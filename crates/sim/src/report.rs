//! Generic reporting over unified [`Record`] rows.
//!
//! One table formatter and one comparison formatter replace the old
//! per-figure formatters: every sweep prints through
//! [`format_records_table`] (the raw simulated quantities) and
//! [`format_comparison_table`] (each variant against a reference variant
//! within its group — CPI error, host-time speedup, confidence-interval
//! coverage). The two genuinely structural views the multi-core figures
//! need — STP/ANTT over a copy-count axis and execution time normalized to
//! a reference run — are generic over records too ([`stp_antt_rows`],
//! [`format_normalized_table`]); they work for any sweep with the right
//! axes, not just the figure that motivated them.

use crate::metrics;
use crate::scenario::Record;

/// The records of one comparison group, in sweep order.
#[derive(Debug, Clone)]
pub struct Group<'a> {
    /// Group key (see [`Record::group`]).
    pub key: &'a str,
    /// Records of the group, in sweep order.
    pub records: Vec<&'a Record>,
}

impl<'a> Group<'a> {
    /// The group's record for `variant`, if present.
    #[must_use]
    pub fn variant(&self, variant: &str) -> Option<&'a Record> {
        self.records.iter().copied().find(|r| r.variant == variant)
    }
}

/// Splits records into their comparison groups, preserving first-seen
/// order of both groups and records.
#[must_use]
pub fn groups(records: &[Record]) -> Vec<Group<'_>> {
    let mut out: Vec<Group<'_>> = Vec::new();
    for r in records {
        match out.iter_mut().find(|g| g.key == r.group) {
            Some(g) => g.records.push(r),
            None => out.push(Group {
                key: &r.group,
                records: vec![r],
            }),
        }
    }
    out
}

/// Formats the raw simulated quantities of a record set: one line per
/// record with workload, cores, instructions, cycles, IPC, CPI (with the
/// 95% half-width for sampled records), swaps and host seconds.
#[must_use]
pub fn format_records_table(title: &str, records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<16} {:<30} {:>5} {:>10} {:>10} {:>7} {:>7} {:>8} {:>6} {:>9}\n",
        "group", "variant", "cores", "insts", "cycles", "IPC", "CPI", "±95%", "swaps", "host s"
    ));
    for r in records {
        if let Some(failure) = &r.failure {
            out.push_str(&format!(
                "{:<16} {:<30} QUARANTINED [{}] after {} attempt(s): {}\n",
                r.group,
                r.variant,
                failure.kind.name(),
                failure.attempts,
                failure.message
            ));
            continue;
        }
        let ci = r
            .ci95_half_width()
            .map_or_else(|| "-".to_string(), |w| format!("{w:.3}"));
        out.push_str(&format!(
            "{:<16} {:<30} {:>5} {:>10} {:>10} {:>7.3} {:>7.3} {:>8} {:>6} {:>9.3}\n",
            r.group,
            r.variant,
            r.cores,
            r.instructions,
            r.cycles,
            r.ipc(),
            r.cpi(),
            ci,
            r.swaps,
            r.host_seconds
        ));
    }
    let quarantined = records.iter().filter(|r| r.is_quarantined()).count();
    if quarantined > 0 {
        out.push_str(&format!(
            "{quarantined} of {} row(s) quarantined\n",
            records.len()
        ));
    }
    out
}

/// Average and maximum CPI error of every non-reference record against its
/// group's `reference` record (groups without a reference are skipped).
#[must_use]
pub fn error_summary(records: &[Record], reference: &str) -> (f64, f64) {
    let mut errors = Vec::new();
    for group in groups(records) {
        let Some(reference) = group.variant(reference) else {
            continue;
        };
        if reference.is_quarantined() {
            continue;
        }
        for r in &group.records {
            if r.variant != reference.variant && !r.is_quarantined() {
                errors.push(r.cpi_error_vs(reference));
            }
        }
    }
    (metrics::mean(&errors), metrics::max(&errors))
}

/// Formats every record against its group's `reference` variant: CPI of
/// both, relative CPI error, host-time speedup, and — for sampled records
/// — whether the 95% interval brackets the reference CPI. The footer
/// quotes the summary statistics the paper reports in its text (average
/// and maximum error, average speedup, CI coverage).
#[must_use]
pub fn format_comparison_table(title: &str, records: &[Record], reference: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}   (reference: {reference})\n"));
    out.push_str(&format!(
        "{:<16} {:<30} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8}\n",
        "group", "variant", "ref CPI", "CPI", "±95%", "CPI err", "speedup", "CI hits"
    ));
    let mut errors = Vec::new();
    let mut speedups = Vec::new();
    let mut sampled = 0usize;
    let mut bracketing = 0usize;
    let mut quarantined = 0usize;
    for group in groups(records) {
        let reference_ok = group.variant(reference).filter(|r| !r.is_quarantined());
        let Some(reference_record) = reference_ok else {
            out.push_str(&format!(
                "{:<16} (no usable `{reference}` record in this group)\n",
                group.key
            ));
            quarantined += group.records.iter().filter(|r| r.is_quarantined()).count();
            continue;
        };
        for r in &group.records {
            if r.variant == reference_record.variant {
                continue;
            }
            if let Some(failure) = &r.failure {
                quarantined += 1;
                out.push_str(&format!(
                    "{:<16} {:<30} QUARANTINED [{}]: {}\n",
                    group.key,
                    r.variant,
                    failure.kind.name(),
                    failure.message
                ));
                continue;
            }
            let error = r.cpi_error_vs(reference_record);
            let speedup = r.speedup_vs(reference_record);
            errors.push(error);
            speedups.push(speedup);
            let (ci, hits) = match r.ci95_half_width() {
                Some(w) => {
                    sampled += 1;
                    let hit = r.ci_brackets(reference_record.cpi());
                    bracketing += usize::from(hit);
                    (format!("{w:.3}"), if hit { "yes" } else { "NO" })
                }
                None => ("-".to_string(), "-"),
            };
            out.push_str(&format!(
                "{:<16} {:<30} {:>8.3} {:>8.3} {:>8} {:>7.1}% {:>8.1}x {:>8}\n",
                group.key,
                r.variant,
                reference_record.cpi(),
                r.cpi(),
                ci,
                error * 100.0,
                speedup,
                hits
            ));
        }
    }
    out.push_str(&format!(
        "average CPI error {:.1}%   max CPI error {:.1}%   average speedup {:.1}x\n",
        metrics::mean(&errors) * 100.0,
        metrics::max(&errors) * 100.0,
        metrics::mean(&speedups)
    ));
    if sampled > 0 {
        out.push_str(&format!(
            "95% CI brackets the reference CPI in {bracketing}/{sampled} sampled rows\n"
        ));
    }
    if quarantined > 0 {
        out.push_str(&format!(
            "{quarantined} quarantined row(s) excluded from the summary statistics\n"
        ));
    }
    out
}

/// One derived STP/ANTT row: a `(benchmark, variant)` pair at a copy
/// count, against the same pair's single-copy baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct StpAnttRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Variant label (model name for single-template sweeps).
    pub variant: String,
    /// Number of co-running copies (= cores).
    pub copies: usize,
    /// System throughput (`Σ C_i^SP / C_i^MP`; higher is better, at most
    /// `copies`).
    pub stp: f64,
    /// Average normalized turnaround time (`(1/n) Σ C_i^MP / C_i^SP`;
    /// lower is better, at least 1).
    pub antt: f64,
}

/// Derives STP and ANTT rows from a sweep over a copy-count axis: for
/// every `(benchmark, variant)` pair the `cores == 1` record is the
/// single-program baseline and every record of the same pair yields one
/// row (the single-copy row itself is trivially `STP = ANTT = 1`).
/// Records without a benchmark coordinate or without a single-copy
/// baseline are skipped.
#[must_use]
pub fn stp_antt_rows(records: &[Record]) -> Vec<StpAnttRow> {
    let mut rows = Vec::new();
    for r in records {
        if r.is_quarantined() {
            continue;
        }
        let Some(benchmark) = &r.benchmark else {
            continue;
        };
        let Some(single) = records.iter().find(|s| {
            s.benchmark.as_deref() == Some(benchmark.as_str())
                && s.variant == r.variant
                && s.cores == 1
                && !s.is_quarantined()
        }) else {
            continue;
        };
        let single_cycles: Vec<u64> = vec![single.per_core[0].cycles; r.cores];
        let multi_cycles: Vec<u64> = r.per_core.iter().map(|c| c.cycles).collect();
        rows.push(StpAnttRow {
            benchmark: benchmark.clone(),
            variant: r.variant.clone(),
            copies: r.cores,
            stp: metrics::stp(&single_cycles, &multi_cycles),
            antt: metrics::antt(&single_cycles, &multi_cycles),
        });
    }
    rows
}

/// Formats the STP/ANTT view of a copy-count sweep (Figure 6's shape).
#[must_use]
pub fn format_stp_antt_table(title: &str, records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<14} {:<14} {:>6} {:>10} {:>10}\n",
        "benchmark", "variant", "copies", "STP", "ANTT"
    ));
    let rows = stp_antt_rows(records);
    for r in &rows {
        out.push_str(&format!(
            "{:<14} {:<14} {:>6} {:>10.3} {:>10.3}\n",
            r.benchmark, r.variant, r.copies, r.stp, r.antt
        ));
    }
    // The paper quotes the interval-vs-detailed error of these metrics;
    // pair up rows that differ only in variant.
    let mut stp_errors = Vec::new();
    let mut antt_errors = Vec::new();
    for r in rows.iter().filter(|r| r.variant != "detailed") {
        if let Some(d) = rows
            .iter()
            .find(|d| d.variant == "detailed" && d.benchmark == r.benchmark && d.copies == r.copies)
        {
            stp_errors.push(metrics::relative_error(r.stp, d.stp));
            antt_errors.push(metrics::relative_error(r.antt, d.antt));
        }
    }
    if !stp_errors.is_empty() {
        out.push_str(&format!(
            "average STP error {:.1}%   average ANTT error {:.1}%\n",
            metrics::mean(&stp_errors) * 100.0,
            metrics::mean(&antt_errors) * 100.0
        ));
    }
    out
}

/// Formats execution times normalized to a reference run (Figures 7 and
/// 8's shape): for every benchmark, the **first** record whose variant is
/// `reference` supplies the reference cycles (in sweep order — the
/// single-core detailed run for a cores sweep, the first design point's
/// detailed run for a design-space sweep), and every record of the
/// benchmark prints its cycles normalized to it.
#[must_use]
pub fn format_normalized_table(title: &str, records: &[Record], reference: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{title}   (times normalized to the first `{reference}` run per benchmark)\n"
    ));
    out.push_str(&format!(
        "{:<14} {:<30} {:>6} {:>12}\n",
        "benchmark", "variant", "cores", "norm. time"
    ));
    for r in records {
        if r.is_quarantined() {
            continue;
        }
        let Some(benchmark) = &r.benchmark else {
            continue;
        };
        let Some(reference_record) = records.iter().find(|s| {
            s.benchmark.as_deref() == Some(benchmark.as_str())
                && s.variant.ends_with(reference)
                && !s.is_quarantined()
        }) else {
            continue;
        };
        out.push_str(&format!(
            "{:<14} {:<30} {:>6} {:>12.3}\n",
            benchmark,
            r.variant,
            r.cores,
            metrics::normalized_time(r.cycles, reference_record.cycles)
        ));
    }
    out
}

/// The one-line verdict of a speed-vs-accuracy frontier (a sweep with
/// hybrid or sampled variants): the fastest `candidates` record within 5%
/// CPI error of its group's `reference`, with its 95% interval when it has
/// one, or a line saying no candidate got that close.
#[must_use]
pub fn format_best_point(records: &[Record], reference: &str, candidates: &[&str]) -> String {
    let best = groups(records)
        .into_iter()
        .filter_map(|group| {
            let reference = group.variant(reference).filter(|r| !r.is_quarantined())?;
            group
                .records
                .iter()
                .filter(|r| {
                    candidates.contains(&r.variant.as_str())
                        && !r.is_quarantined()
                        && r.cpi_error_vs(reference) <= 0.05
                })
                .map(|&r| {
                    (
                        r,
                        group.key,
                        r.speedup_vs(reference),
                        r.cpi_error_vs(reference),
                    )
                })
                .max_by(|a, b| a.2.total_cmp(&b.2))
        })
        .max_by(|a, b| a.2.total_cmp(&b.2));
    match best {
        Some((r, benchmark, speedup, error)) => {
            let ci = r
                .ci95_half_width()
                .map_or_else(String::new, |w| format!(" (95% CI half-width {w:.3} CPI)"));
            format!(
                "best point within 5% CPI error: {} on {benchmark} — {speedup:.1}x at {:.1}% \
                 error{ci}\n",
                r.variant,
                error * 100.0
            )
        }
        None => "no point stayed within 5% CPI error at this scale\n".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CoreSummary;
    use crate::sampling::SamplingEstimate;
    use crate::scenario::fnv1a_hex;

    fn record(group: &str, variant: &str, cores: usize, cycles: u64, host: f64) -> Record {
        let per_core_cycles = cycles / cores as u64;
        Record {
            sweep: "test".to_string(),
            group: group.to_string(),
            variant: variant.to_string(),
            benchmark: Some(group.split('/').next().unwrap().to_string()),
            digest: fnv1a_hex(&format!("{group}/{variant}")),
            workload: group.to_string(),
            cores,
            seed: 42,
            per_core: (0..cores)
                .map(|core| CoreSummary {
                    core,
                    instructions: 1_000,
                    cycles: per_core_cycles,
                })
                .collect(),
            cycles,
            instructions: 1_000 * cores as u64,
            host_seconds: host,
            swaps: 0,
            sampling: None,
            failure: None,
        }
    }

    #[test]
    fn groups_preserve_order_and_membership() {
        let records = vec![
            record("gcc", "detailed", 1, 2_000, 4.0),
            record("gcc", "interval", 1, 2_100, 1.0),
            record("mcf", "detailed", 1, 4_000, 5.0),
        ];
        let gs = groups(&records);
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0].key, "gcc");
        assert_eq!(gs[0].records.len(), 2);
        assert!(gs[0].variant("interval").is_some());
        assert!(gs[1].variant("interval").is_none());
    }

    #[test]
    fn comparison_table_reports_error_and_speedup() {
        let records = vec![
            record("mcf", "detailed", 1, 2_000, 4.0),
            record("mcf", "hybrid-periodic-4@2000", 1, 2_100, 1.0),
        ];
        let t = format_comparison_table("Hybrid frontier", &records, "detailed");
        assert!(t.contains("hybrid-periodic-4@2000"));
        assert!(t.contains("5.0%"), "5% CPI error expected in: {t}");
        assert!(t.contains("4.0x"), "4x speedup expected in: {t}");
        assert!(t.contains("average CPI error"));
    }

    #[test]
    fn comparison_table_reports_ci_coverage_for_sampled_rows() {
        let mut sampled = record("mcf", "sampled-detailed-1in10@500w100p4", 1, 2_050, 2.0);
        sampled.sampling = Some(SamplingEstimate {
            units_total: 10,
            units_measured: 4,
            prefix_instructions: 100,
            measured_instructions: 400,
            cpi: 2.1,
            steady_cpi: 2.1,
            aux_slope: 0.0,
            cpi_stddev: 0.05,
            ci95_half_width: 0.15,
        });
        let records = vec![record("mcf", "detailed", 1, 2_000, 10.0), sampled];
        let t = format_comparison_table("Sampling frontier", &records, "detailed");
        assert!(t.contains("5.0%"), "5% CPI error expected in: {t}");
        assert!(t.contains("5.0x"), "5x speedup expected in: {t}");
        assert!(t.contains("1/1 sampled rows"), "CI coverage in: {t}");
    }

    #[test]
    fn missing_reference_is_reported_not_hidden() {
        let records = vec![record("gcc", "interval", 1, 2_000, 1.0)];
        let t = format_comparison_table("x", &records, "detailed");
        assert!(t.contains("no usable `detailed` record"), "got: {t}");
    }

    #[test]
    fn stp_antt_rows_use_the_single_copy_baseline() {
        let records = vec![
            record("gcc/1c", "detailed", 1, 2_000, 1.0),
            record("gcc/2c", "detailed", 2, 5_000, 1.0),
        ];
        let rows = stp_antt_rows(&records);
        assert_eq!(rows.len(), 2);
        let single = &rows[0];
        assert!((single.stp - 1.0).abs() < 1e-9 && (single.antt - 1.0).abs() < 1e-9);
        let row = &rows[1];
        assert_eq!(row.copies, 2);
        // Single-copy per-core cycles 2000, multi per-core 2500:
        // STP = 2 * 2000/2500 = 1.6, ANTT = 2500/2000 = 1.25.
        assert!((row.stp - 1.6).abs() < 1e-9);
        assert!((row.antt - 1.25).abs() < 1e-9);
        let table = format_stp_antt_table("fig6", &records);
        assert!(table.contains("gcc"));
        assert!(table.contains("1.600"));
    }

    #[test]
    fn normalized_table_divides_by_the_first_reference_run() {
        let records = vec![
            record("vips/1c", "detailed", 1, 2_000, 1.0),
            record("vips/2c", "detailed", 2, 1_200, 1.0),
            record("vips/2c", "interval", 2, 1_100, 1.0),
        ];
        let t = format_normalized_table("fig7", &records, "detailed");
        assert!(t.contains("1.000"), "reference row: {t}");
        assert!(t.contains("0.600"), "scaled detailed row: {t}");
        assert!(t.contains("0.550"), "scaled interval row: {t}");
    }

    #[test]
    fn best_point_is_the_fastest_candidate_within_five_percent() {
        let records = vec![
            record("gcc", "detailed", 1, 2_000, 8.0),
            record("gcc", "interval", 1, 2_050, 0.5),
            record("gcc", "hybrid-periodic-4@2000", 1, 2_060, 2.0),
            record("gcc", "hybrid-always-interval@2000", 1, 2_400, 1.0),
            record("mcf", "detailed", 1, 4_000, 8.0),
            record("mcf", "hybrid-periodic-4@2000", 1, 4_040, 4.0),
        ];
        let candidates = ["hybrid-periodic-4@2000", "hybrid-always-interval@2000"];
        // `interval` is faster but no candidate; always-interval is 20% off.
        let line = format_best_point(&records, "detailed", &candidates);
        assert_eq!(
            line,
            "best point within 5% CPI error: hybrid-periodic-4@2000 on gcc — 4.0x at 3.0% error\n"
        );
        let line = format_best_point(&records[..4], "detailed", &candidates[1..]);
        assert_eq!(line, "no point stayed within 5% CPI error at this scale\n");
    }

    #[test]
    fn records_table_contains_every_record() {
        let records = vec![
            record("gcc", "detailed", 1, 2_000, 4.0),
            record("gcc", "interval", 1, 2_100, 1.0),
        ];
        let t = format_records_table("Figure 5", &records);
        assert!(t.contains("detailed") && t.contains("interval"));
        assert!(t.contains("2000"));
    }

    #[test]
    fn quarantined_rows_render_and_stay_out_of_the_statistics() {
        use crate::batch::{FailureKind, JobFailure};
        let failure = JobFailure {
            job: 3,
            workload: "mcf".to_string(),
            seed: 42,
            model: "interval".to_string(),
            digest: "beef".to_string(),
            kind: FailureKind::Crash,
            message: "process exited with code 17".to_string(),
            attempts: 3,
        };
        let records = vec![
            record("gcc", "detailed", 1, 1_000, 1.0),
            record("gcc", "interval", 1, 1_100, 1.0),
            record("mcf", "detailed", 1, 1_000, 1.0),
            Record::from_failure("test", "mcf", "interval", Some("mcf"), failure),
        ];
        let t = format_records_table("t", &records);
        assert!(t.contains("QUARANTINED [crash]"), "got: {t}");
        assert!(t.contains("1 of 4 row(s) quarantined"), "got: {t}");
        let c = format_comparison_table("t", &records, "detailed");
        assert!(c.contains("QUARANTINED [crash]"), "got: {c}");
        assert!(c.contains("1 quarantined row(s) excluded"), "got: {c}");
        // Only the healthy gcc pair feeds the summary: 10% error.
        assert!(c.contains("average CPI error 10.0%"), "got: {c}");
        let (avg, max) = error_summary(&records, "detailed");
        assert!((avg - 0.1).abs() < 1e-9, "avg {avg}");
        assert!((max - 0.1).abs() < 1e-9, "max {max}");
    }

    #[test]
    fn error_summary_reports_mean_and_max() {
        let records = vec![
            record("gcc", "detailed", 1, 1_000, 1.0),
            record("gcc", "interval", 1, 1_100, 1.0),
            record("mcf", "detailed", 1, 1_000, 1.0),
            record("mcf", "interval", 1, 1_300, 1.0),
        ];
        let (avg, max) = error_summary(&records, "detailed");
        assert!((avg - 0.2).abs() < 1e-9, "avg {avg}");
        assert!((max - 0.3).abs() < 1e-9, "max {max}");
    }
}
