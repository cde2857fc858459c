//! CI regression gates: accuracy golden-diff and perf baseline-diff.
//!
//! Two committed files under `ci/` pin what the build must reproduce:
//!
//! * `ci/golden_accuracy.json` — the per-benchmark interval-vs-detailed
//!   error of Figures 4 and 5 and the per-policy hybrid CPI error, all at
//!   quick scale. Every simulated quantity behind these numbers is
//!   deterministic in `(model, config, workload, seed)`, so a diff beyond
//!   the recorded tolerance means a *modeling* change, not noise — the gate
//!   fails the build and forces the author to regenerate the golden file
//!   deliberately (`accuracy_gate --write`).
//! * `ci/BENCH_baseline.json` — a committed `perf` run. The perf gate fails
//!   when any model's simulated MIPS or any batch kernel's MOPS, divided by
//!   its run's host-kernel speed, regresses by more than
//!   [`MAX_REGRESSION`] (25%) against it. Host speed varies between
//!   machines and between a shared host's phases, which is why the gate
//!   normalizes and tolerates a generous margin rather than an exact match.
//!
//! The workspace links no serialization framework, so both files are
//! written by hand here (one object per line inside the `rows` / `models` /
//! `kernels` arrays) and read back through the workspace's one JSON reader, [`iss_sim::jsonval`]. The parsers are pure functions over
//! text so the gate logic — including "injected drift must fail" — is
//! unit-tested directly.

use std::fmt::Write as _;

use iss_sim::experiments::{builtin, ExperimentScale};
use iss_sim::jsonval::{self, Json};
use iss_sim::report;
use iss_sim::Record;

/// One pinned accuracy number.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRow {
    /// Which experiment the number comes from (`fig4-<variant>`, `fig5`, or
    /// `hybrid-<policy label>`).
    pub figure: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Relative error against detailed simulation (interval IPC error for
    /// the figures, hybrid CPI error for the hybrid rows).
    pub error: f64,
}

/// A parsed golden-accuracy file.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenAccuracy {
    /// Experiment scale the numbers were produced at.
    pub scale: ExperimentScale,
    /// Absolute error drift allowed per row.
    pub tolerance: f64,
    /// The pinned rows.
    pub rows: Vec<GoldenRow>,
}

/// The array `key` of a parsed perf or golden file; absent means empty.
fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_default()
}

/// The string field `key` of an object.
fn str_of(obj: &Json, key: &str) -> Option<String> {
    obj.get(key)?.as_str().map(str::to_string)
}

/// The numeric field `key` of an object.
fn num_of(obj: &Json, key: &str) -> Option<f64> {
    obj.get(key)?.as_f64()
}

/// Writes the `"scale"` line of a golden or perf file.
fn render_scale(j: &mut String, scale: ExperimentScale) {
    let _ = writeln!(
        j,
        "  \"scale\": {{\"spec_length\": {}, \"parsec_length\": {}, \"seed\": {}}},",
        scale.spec_length, scale.parsec_length, scale.seed
    );
}

/// Reads the `"scale"` object of a golden or perf file.
fn parse_scale(doc: &Json) -> Result<ExperimentScale, String> {
    let scale = doc.get("scale").ok_or("missing scale")?;
    let length = |key: &str| {
        scale
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("malformed scale: {key}"))
    };
    Ok(ExperimentScale {
        spec_length: length("spec_length")?,
        parsec_length: length("parsec_length")?,
        seed: length("seed")?,
    })
}

/// Renders a golden-accuracy file.
#[must_use]
pub fn render_golden_accuracy(
    scale: ExperimentScale,
    tolerance: f64,
    rows: &[GoldenRow],
) -> String {
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"iss-accuracy-golden/v1\",\n");
    render_scale(&mut j, scale);
    let _ = writeln!(j, "  \"tolerance\": {tolerance:.4},");
    j.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"figure\": \"{}\", \"benchmark\": \"{}\", \"error\": {:.6}}}{}",
            r.figure,
            r.benchmark,
            r.error,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");
    j
}

/// Parses a golden-accuracy file.
///
/// # Errors
///
/// Returns a message when the schema marker or any required field is
/// missing or malformed.
pub fn parse_golden_accuracy(text: &str) -> Result<GoldenAccuracy, String> {
    if !text.contains("iss-accuracy-golden/v1") {
        return Err("not an iss-accuracy-golden/v1 file".to_string());
    }
    let doc = jsonval::parse(text).map_err(|e| {
        format!(
            "golden file has no rows it can read ({e}) — truncated or malformed; \
             regenerate with `accuracy_gate --write`"
        )
    })?;
    let rows = array(&doc, "rows")
        .iter()
        .map(|r| {
            Ok(GoldenRow {
                figure: str_of(r, "figure").ok_or("malformed row: figure")?,
                benchmark: str_of(r, "benchmark").ok_or("malformed row: benchmark")?,
                error: num_of(r, "error").ok_or("malformed row: error")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if rows.is_empty() {
        return Err(
            "golden file contains no rows — truncated or malformed; regenerate with `accuracy_gate --write`"
                .to_string(),
        );
    }
    Ok(GoldenAccuracy {
        scale: parse_scale(&doc)?,
        tolerance: num_of(&doc, "tolerance").ok_or("missing tolerance")?,
        rows,
    })
}

/// Diffs freshly computed rows against a golden file. Returns one violation
/// message per drifted, missing or unpinned row; an empty list means the
/// gate passes.
#[must_use]
pub fn diff_accuracy(golden: &GoldenAccuracy, current: &[GoldenRow]) -> Vec<String> {
    let mut violations = Vec::new();
    // A gate that compares nothing proves nothing: an empty baseline (a
    // truncated or hand-edited golden file) or an empty fresh run must be
    // loud failures, never a green build.
    if golden.rows.is_empty() {
        violations.push(
            "golden baseline is empty — the gate would pass vacuously; regenerate with `accuracy_gate --write`"
                .to_string(),
        );
    }
    if current.is_empty() {
        violations.push(
            "this build produced no accuracy rows — the gate would pass vacuously".to_string(),
        );
    }
    for g in &golden.rows {
        match current
            .iter()
            .find(|c| c.figure == g.figure && c.benchmark == g.benchmark)
        {
            None => violations.push(format!(
                "{} / {}: pinned in the golden file but not produced by this build",
                g.figure, g.benchmark
            )),
            Some(c) => {
                let drift = (c.error - g.error).abs();
                if drift > golden.tolerance {
                    violations.push(format!(
                        "{} / {}: error {:.4} drifted {:.4} from golden {:.4} \
                         (tolerance {:.4})",
                        g.figure, g.benchmark, c.error, drift, g.error, golden.tolerance
                    ));
                }
            }
        }
    }
    for c in current {
        if !golden
            .rows
            .iter()
            .any(|g| g.figure == c.figure && g.benchmark == c.benchmark)
        {
            violations.push(format!(
                "{} / {}: produced by this build but not pinned — regenerate the \
                 golden file (accuracy_gate --write)",
                c.figure, c.benchmark
            ));
        }
    }
    violations
}

/// Computes the current accuracy rows: all four Figure 4 variants, Figure 5,
/// and the hybrid/sampling frontiers, each its built-in sweep over
/// `benchmarks` — all through the generic scenario engine, paired out of
/// the unified [`Record`] rows.
///
/// The error formulas are the figures' own: per-core IPC error for the
/// single-threaded accuracy figures, whole-run CPI error (against the
/// group's pure-detailed reference) for the frontier rows — identical
/// operations to the legacy bespoke drivers, so the committed golden file
/// keeps passing without regeneration.
///
/// # Panics
///
/// Panics when a sweep fails (unknown benchmark) or a comparison group
/// comes back without its reference record.
#[must_use]
pub fn compute_accuracy_rows(benchmarks: &[&str], scale: ExperimentScale) -> Vec<GoldenRow> {
    // The frontiers compare wall-clocks, so they run on one worker like
    // `iss run` does; the error columns are worker-count invariant anyway.
    let run = |name: &str, threads: Option<usize>| {
        let mut sweep = builtin(name, scale).expect("accuracy sweeps are built-ins");
        sweep.benchmarks = benchmarks.iter().map(|b| (*b).to_string()).collect();
        match threads {
            Some(threads) => sweep.run_with_threads(threads),
            None => sweep.run(),
        }
        .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let mut rows = Vec::new();
    for name in [
        "fig4-dispatch",
        "fig4-icache",
        "fig4-branch",
        "fig4-l2",
        "fig5",
    ] {
        rows.extend(ipc_error_rows(&run(name, None)));
    }
    rows.extend(cpi_error_rows(&run("hybrid", Some(1)), "hybrid-", ""));
    rows.extend(cpi_error_rows(
        &run("sampling", Some(1)),
        "sampled-",
        "sampling-",
    ));
    rows
}

/// One golden row per group: the interval variant's core-0 IPC error
/// against the detailed variant (Figures 4 and 5), keyed by the sweep
/// name.
fn ipc_error_rows(records: &[Record]) -> Vec<GoldenRow> {
    report::groups(records)
        .into_iter()
        .map(|group| {
            let detailed = group.variant("detailed").expect("detailed reference");
            let interval = group.variant("interval").expect("interval candidate");
            GoldenRow {
                figure: interval.sweep.clone(),
                benchmark: group.key.to_string(),
                error: interval.ipc_error_vs(detailed),
            }
        })
        .collect()
}

/// One golden row per `(group, matching variant)`: the variant's CPI error
/// against the group's detailed reference, keyed by the variant label with
/// an optional figure prefix (the hybrid and sampling frontiers).
fn cpi_error_rows(records: &[Record], variant_prefix: &str, figure_prefix: &str) -> Vec<GoldenRow> {
    let mut rows = Vec::new();
    for group in report::groups(records) {
        let detailed = group.variant("detailed").expect("detailed reference");
        for r in &group.records {
            if r.variant.starts_with(variant_prefix) {
                rows.push(GoldenRow {
                    figure: format!("{figure_prefix}{}", r.variant),
                    benchmark: group.key.to_string(),
                    error: r.cpi_error_vs(detailed),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Perf baseline gate
// ---------------------------------------------------------------------------

/// Largest regression of a host-normalized rate the perf gate tolerates.
pub const MAX_REGRESSION: f64 = 0.25;

/// One measured row of a perf file: the simulated instructions of a core
/// model (or of the warming path), or the operations of a batch kernel,
/// over the host seconds they took.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRow {
    /// Model (`interval`, `warming`, ...) or kernel (`tag_compare`, ...).
    pub name: String,
    /// Instructions simulated, or kernel operations run.
    pub work: u64,
    /// Host seconds the work took.
    pub host_seconds: f64,
}

impl PerfRow {
    /// Millions of work units per host second: simulated MIPS for a
    /// model, MOPS for a kernel.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.host_seconds <= 0.0 {
            0.0
        } else {
            self.work as f64 / self.host_seconds / 1e6
        }
    }
}

/// A `perf` run: `BENCH_interval.json`, or the committed baseline
/// `ci/BENCH_baseline.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfFile {
    /// Experiment scale the run measured at.
    pub scale: ExperimentScale,
    /// Host speed during the run, from
    /// [`iss_sim::host_time::host_kernel_mops`]: every rate is divided by
    /// it before two runs are compared.
    pub host_kernel_mops: f64,
    /// Single-thread throughput per core model, plus the `warming` row.
    pub models: Vec<PerfRow>,
    /// Throughput per batch kernel ([`crate::kernels`]).
    pub kernels: Vec<PerfRow>,
}

impl PerfFile {
    /// Host-time ratio of the detailed to the interval model, the paper's
    /// headline speedup; `0` when either row is missing.
    #[must_use]
    pub fn interval_over_detailed_speedup(&self) -> f64 {
        let seconds = |name: &str| {
            self.models
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.host_seconds)
        };
        match (seconds("interval"), seconds("detailed")) {
            (Some(i), Some(d)) if i > 0.0 => d / i,
            _ => 0.0,
        }
    }
}

/// Keys of a model row and of a kernel row: name, work, derived rate.
type RowKeys = (&'static str, &'static str, &'static str);
const MODEL_KEYS: RowKeys = ("model", "instructions", "simulated_mips");
const KERNEL_KEYS: RowKeys = ("kernel", "ops", "mops");

/// Renders a perf file; [`parse_perf`] reads it back.
#[must_use]
pub fn render_perf(file: &PerfFile) -> String {
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"iss-bench-perf/v2\",\n");
    render_scale(&mut j, file.scale);
    let _ = writeln!(j, "  \"host_kernel_mops\": {:.3},", file.host_kernel_mops);
    for (section, (name_key, work_key, rate_key), rows) in [
        ("models", MODEL_KEYS, &file.models),
        ("kernels", KERNEL_KEYS, &file.kernels),
    ] {
        let _ = writeln!(j, "  \"{section}\": [");
        for (i, r) in rows.iter().enumerate() {
            let _ = writeln!(
                j,
                "    {{\"{name_key}\": \"{}\", \"{work_key}\": {}, \"host_seconds\": {:.6}, \"{rate_key}\": {:.3}}}{}",
                r.name,
                r.work,
                r.host_seconds,
                r.rate(),
                if i + 1 < rows.len() { "," } else { "" }
            );
        }
        j.push_str("  ],\n");
    }
    let _ = writeln!(
        j,
        "  \"interval_over_detailed_speedup\": {:.3}\n}}",
        file.interval_over_detailed_speedup()
    );
    j
}

/// Parses a perf file.
///
/// # Errors
///
/// Returns a message when the text is not an `iss-bench-perf/v2` file, the
/// host-kernel speed is missing or not positive, `models` or `kernels` is
/// missing or empty, or a row lacks a field.
pub fn parse_perf(text: &str) -> Result<PerfFile, String> {
    if !text.contains("iss-bench-perf/v2") {
        return Err("not an iss-bench-perf/v2 file".to_string());
    }
    let doc = jsonval::parse(text)?;
    let host_kernel_mops = num_of(&doc, "host_kernel_mops")
        .filter(|m| m.is_finite() && *m > 0.0)
        .ok_or("missing or non-positive host_kernel_mops")?;
    let rows = |section: &str, (name_key, work_key, _): RowKeys| {
        let rows = array(&doc, section)
            .iter()
            .map(|r| {
                Ok(PerfRow {
                    name: str_of(r, name_key)
                        .ok_or(format!("{section} row without `{name_key}`"))?,
                    work: r
                        .get(work_key)
                        .and_then(Json::as_u64)
                        .ok_or(format!("{section} row without `{work_key}`"))?,
                    host_seconds: num_of(r, "host_seconds")
                        .ok_or(format!("{section} row without `host_seconds`"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if rows.is_empty() {
            return Err(format!("no {section} rows"));
        }
        Ok(rows)
    };
    Ok(PerfFile {
        scale: parse_scale(&doc)?,
        host_kernel_mops,
        models: rows("models", MODEL_KEYS)?,
        kernels: rows("kernels", KERNEL_KEYS)?,
    })
}

/// Diffs a fresh perf run against the committed baseline. Every rate is
/// divided by its run's host-kernel MOPS first, so a uniformly slow or
/// loaded host cancels out and the margin gates simulator regressions
/// only. A model or kernel regresses when its normalized rate falls below
/// `1 - MAX_REGRESSION` of the baseline's; a row the fresh run lacks, a
/// fresh row the baseline lacks (it would never be gated) and an empty
/// section on either side are violations too. Speedups never fail the
/// gate.
#[must_use]
pub fn diff_perf(baseline: &PerfFile, fresh: &PerfFile) -> Vec<String> {
    let mut violations = Vec::new();
    for (section, label, base_rows, fresh_rows) in [
        ("model", "", &baseline.models, &fresh.models),
        ("kernel", "kernel ", &baseline.kernels, &fresh.kernels),
    ] {
        // Comparing against (or with) nothing is a failure, not a pass.
        if base_rows.is_empty() {
            violations.push(format!(
                "perf baseline has no {section} rows — the gate would pass vacuously; \
                 regenerate it with the `perf` binary"
            ));
        } else {
            // A row the baseline lacks would never be gated. (An empty
            // baseline is reported once above, not row by row.)
            for f in fresh_rows {
                if !base_rows.iter().any(|b| b.name == f.name) {
                    violations.push(format!(
                        "{label}{}: present in the fresh run but missing from the baseline \
                         — add its row to the baseline",
                        f.name
                    ));
                }
            }
        }
        if fresh_rows.is_empty() {
            violations.push(format!(
                "fresh perf run has no {section} rows — the gate would pass vacuously"
            ));
        }
        for b in base_rows {
            let Some(f) = fresh_rows.iter().find(|f| f.name == b.name) else {
                violations.push(format!(
                    "{label}{}: present in the baseline but missing from the fresh run",
                    b.name
                ));
                continue;
            };
            let base_norm = b.rate() / baseline.host_kernel_mops;
            let fresh_norm = f.rate() / fresh.host_kernel_mops;
            let floor = base_norm * (1.0 - MAX_REGRESSION);
            if fresh_norm < floor {
                violations.push(format!(
                    "{label}{}: {fresh_norm:.5} normalized (rate per host-kernel MOPS) is below \
                     the allowed floor {floor:.5} (baseline {base_norm:.5}, max regression {:.0}%)",
                    b.name,
                    MAX_REGRESSION * 100.0
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> GoldenAccuracy {
        GoldenAccuracy {
            scale: ExperimentScale::quick(),
            tolerance: 0.02,
            rows: vec![
                GoldenRow {
                    figure: "fig5".into(),
                    benchmark: "gcc".into(),
                    error: 0.085,
                },
                GoldenRow {
                    figure: "hybrid-periodic-4@2000".into(),
                    benchmark: "mcf".into(),
                    error: 0.031,
                },
            ],
        }
    }

    #[test]
    fn golden_file_round_trips_through_render_and_parse() {
        let g = golden();
        let text = render_golden_accuracy(g.scale, g.tolerance, &g.rows);
        let parsed = parse_golden_accuracy(&text).unwrap();
        assert_eq!(parsed.scale, g.scale);
        assert!((parsed.tolerance - g.tolerance).abs() < 1e-9);
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.rows[0].figure, "fig5");
        assert!((parsed.rows[1].error - 0.031).abs() < 1e-6);
    }

    #[test]
    fn matching_rows_pass_the_accuracy_gate() {
        let g = golden();
        // Within tolerance: tiny platform wiggle.
        let mut current = g.rows.clone();
        current[0].error += 0.019;
        assert!(diff_accuracy(&g, &current).is_empty());
    }

    #[test]
    fn injected_accuracy_drift_fails_the_gate() {
        let g = golden();
        let mut current = g.rows.clone();
        current[0].error += 0.05; // injected drift beyond the 0.02 tolerance
        let violations = diff_accuracy(&g, &current);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("fig5 / gcc"), "got: {violations:?}");
        assert!(violations[0].contains("drifted"));
    }

    #[test]
    fn missing_and_unpinned_rows_fail_the_gate() {
        let g = golden();
        let current = vec![
            g.rows[0].clone(),
            GoldenRow {
                figure: "fig5".into(),
                benchmark: "newbench".into(),
                error: 0.01,
            },
        ];
        let violations = diff_accuracy(&g, &current);
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| v.contains("not produced")));
        assert!(violations.iter().any(|v| v.contains("not pinned")));
    }

    #[test]
    fn truncated_golden_file_fails_to_parse() {
        // A golden file cut off before its rows (e.g. a bad merge or a
        // partial write) used to parse to zero rows and pass the gate
        // vacuously; it must now be a parse error.
        let g = golden();
        let full = render_golden_accuracy(g.scale, g.tolerance, &g.rows);
        let cut = full.split("\"rows\"").next().unwrap();
        let err = parse_golden_accuracy(cut).unwrap_err();
        assert!(err.contains("no rows"), "got: {err}");
        // Keeping the `rows` header but dropping every entry is equally
        // truncated.
        let header_only = format!("{cut}\"rows\": [\n  ]\n}}\n");
        let err = parse_golden_accuracy(&header_only).unwrap_err();
        assert!(err.contains("no rows"), "got: {err}");
    }

    #[test]
    fn empty_golden_baseline_fails_the_accuracy_gate() {
        let empty = GoldenAccuracy {
            scale: ExperimentScale::quick(),
            tolerance: 0.02,
            rows: Vec::new(),
        };
        let current = golden().rows;
        let violations = diff_accuracy(&empty, &current);
        assert!(
            violations.iter().any(|v| v.contains("vacuously")),
            "got: {violations:?}"
        );
    }

    #[test]
    fn empty_fresh_accuracy_rows_fail_the_gate() {
        let g = golden();
        let violations = diff_accuracy(&g, &[]);
        // One vacuous-pass violation plus one not-produced violation per
        // pinned row.
        assert!(violations.len() > g.rows.len());
        assert!(violations.iter().any(|v| v.contains("vacuously")));
    }

    /// Rows at the given rates (millions per host second), one second each.
    fn rows(rates: &[(&str, f64)]) -> Vec<PerfRow> {
        rates
            .iter()
            .map(|&(name, rate)| PerfRow {
                name: name.into(),
                work: (rate * 1e6).round() as u64,
                host_seconds: 1.0,
            })
            .collect()
    }

    fn perf(host_kernel_mops: f64, models: &[(&str, f64)], kernels: &[(&str, f64)]) -> PerfFile {
        PerfFile {
            scale: ExperimentScale::quick(),
            host_kernel_mops,
            models: rows(models),
            kernels: rows(kernels),
        }
    }

    const KERNELS: [(&str, f64); 2] = [("tag_compare", 350.0), ("threshold_scan", 290.0)];

    const PERF_TEXT: &str = "{\n  \"schema\": \"iss-bench-perf/v2\",\n  \
        \"scale\": {\"spec_length\": 100000, \"parsec_length\": 200000, \"seed\": 42},\n  \
        \"host_kernel_mops\": 812.503,\n  \"models\": [\n    \
        {\"model\": \"interval\", \"instructions\": 120000, \
        \"host_seconds\": 0.021, \"simulated_mips\": 5.714},\n    \
        {\"model\": \"detailed\", \"instructions\": 120000, \
        \"host_seconds\": 0.135, \"simulated_mips\": 0.889}\n  ],\n  \"kernels\": [\n    \
        {\"kernel\": \"tag_compare\", \"ops\": 2996000, \
        \"host_seconds\": 0.009, \"mops\": 332.889},\n    \
        {\"kernel\": \"tlb_access_batch\", \"ops\": 2996000, \
        \"host_seconds\": 0.017, \"mops\": 176.235}\n  ],\n  \
        \"interval_over_detailed_speedup\": 6.429\n}\n";

    #[test]
    fn perf_file_parses_model_mips() {
        let models = parse_perf(PERF_TEXT).unwrap().models;
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].name, "interval");
        assert!((models[1].rate() - 120_000.0 / 0.135 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn perf_file_round_trips_through_render_and_parse() {
        let file = PerfFile {
            scale: ExperimentScale::quick(),
            host_kernel_mops: 97.125,
            models: vec![
                PerfRow {
                    name: "interval".into(),
                    work: 600_000,
                    host_seconds: 0.105_123,
                },
                PerfRow {
                    name: "detailed".into(),
                    work: 600_000,
                    host_seconds: 0.734_5,
                },
            ],
            kernels: vec![PerfRow {
                name: "branch_update_batch".into(),
                work: 1_474_560,
                host_seconds: 0.011_2,
            }],
        };
        let text = render_perf(&file);
        assert_eq!(parse_perf(&text).unwrap(), file);
    }

    #[test]
    fn injected_perf_regression_fails_the_gate() {
        let baseline = perf(800.0, &[("interval", 5.6), ("detailed", 0.9)], &KERNELS);
        // Interval regresses by 50%: violation. Detailed speeds up: fine.
        let fresh = perf(800.0, &[("interval", 2.8), ("detailed", 1.2)], &KERNELS);
        let violations = diff_perf(&baseline, &fresh);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].starts_with("interval:"),
            "got: {violations:?}"
        );
    }

    #[test]
    fn perf_within_margin_and_missing_model_behave() {
        let baseline = perf(800.0, &[("one-ipc", 8.0)], &KERNELS);
        // ~19% down, within the 25% margin.
        let ok = perf(800.0, &[("one-ipc", 6.5)], &KERNELS);
        assert!(diff_perf(&baseline, &ok).is_empty());
        // Empty fresh run: one vacuous-pass violation plus the missing
        // model.
        let violations = diff_perf(&baseline, &perf(800.0, &[], &KERNELS));
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| v.contains("vacuously")));
        assert!(violations.iter().any(|v| v.contains("missing")));
    }

    #[test]
    fn empty_perf_baseline_fails_the_gate() {
        let fresh = perf(800.0, &[("interval", 5.0)], &KERNELS);
        let violations = diff_perf(&perf(800.0, &[], &KERNELS), &fresh);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("vacuously"), "got: {violations:?}");
    }

    #[test]
    fn host_kernel_parses_and_rejects_degenerate_values() {
        let mops = parse_perf(PERF_TEXT).unwrap().host_kernel_mops;
        assert!((mops - 812.503).abs() < 1e-9);
        for degenerate in ["0.000", "-3.5"] {
            let text = PERF_TEXT.replace("812.503", degenerate);
            let err = parse_perf(&text).unwrap_err();
            assert!(err.contains("host_kernel_mops"), "got: {err}");
        }
        // A file without the field (such as an iss-bench-perf/v1 file
        // carrying the retired xorshift reference kernel) does not parse.
        let v1 = PERF_TEXT
            .replace("perf/v2", "perf/v1")
            .replace("host_kernel_mops", "reference_kernel_mops");
        assert!(parse_perf(&v1).is_err());
        let unmarked = PERF_TEXT.replace("host_kernel_mops", "reference_kernel_mops");
        assert!(parse_perf(&unmarked)
            .unwrap_err()
            .contains("host_kernel_mops"));
    }

    #[test]
    fn kernel_normalization_cancels_a_uniformly_slow_host() {
        let baseline = perf(1000.0, &[("interval", 10.0)], &KERNELS);
        // The fresh host runs everything at 40% speed, the host kernel
        // included, so the normalized gate passes; the same rate on a host
        // that did not slow down is a real regression.
        let slow_host = perf(
            400.0,
            &[("interval", 4.0)],
            &[("tag_compare", 140.0), ("threshold_scan", 116.0)],
        );
        assert!(diff_perf(&baseline, &slow_host).is_empty());
        let same_host = PerfFile {
            host_kernel_mops: 1000.0,
            ..slow_host
        };
        assert!(!diff_perf(&baseline, &same_host).is_empty());
    }

    #[test]
    fn perf_file_parses_kernel_rows_and_rejects_their_absence() {
        let kernels = parse_perf(PERF_TEXT).unwrap().kernels;
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].name, "tag_compare");
        assert!((kernels[1].rate() - 2_996_000.0 / 0.017 / 1e6).abs() < 1e-9);
        // A file without kernel rows, or with an empty list, does not parse.
        let cut = PERF_TEXT.find("  \"kernels\"").unwrap();
        let end = PERF_TEXT.find("  \"interval_over").unwrap();
        let without = format!("{}{}", &PERF_TEXT[..cut], &PERF_TEXT[end..]);
        assert!(parse_perf(&without).unwrap_err().contains("kernels"));
        let empty = format!(
            "{}  \"kernels\": [],\n{}",
            &PERF_TEXT[..cut],
            &PERF_TEXT[end..]
        );
        assert!(parse_perf(&empty).unwrap_err().contains("kernels"));
    }

    #[test]
    fn injected_kernel_regression_fails_the_gate() {
        let baseline = perf(800.0, &[("interval", 5.0)], &KERNELS);
        // threshold_scan lost half its speed.
        let fresh = perf(
            800.0,
            &[("interval", 5.0)],
            &[("tag_compare", 350.0), ("threshold_scan", 140.0)],
        );
        let violations = diff_perf(&baseline, &fresh);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("threshold_scan"),
            "got: {violations:?}"
        );
        assert!(violations[0].contains("below the allowed floor"));
    }

    #[test]
    fn kernel_gate_normalizes_host_speed_like_the_model_gate() {
        let baseline = perf(1000.0, &[("interval", 5.0)], &KERNELS);
        // Uniformly 40%-speed host: both kernels pass because the host
        // kernel slowed identically; on an unslowed host both would fail.
        let slow: Vec<(&str, f64)> = KERNELS.iter().map(|&(k, m)| (k, m * 0.4)).collect();
        assert!(diff_perf(&baseline, &perf(400.0, &[("interval", 2.0)], &slow)).is_empty());
        let violations = diff_perf(&baseline, &perf(1000.0, &[("interval", 5.0)], &slow));
        assert_eq!(violations.len(), 2, "got: {violations:?}");
    }

    #[test]
    fn lost_kernel_measurement_fails_the_gate() {
        let models = [("interval", 5.0)];
        // A fresh run without kernels: loud failure, not a vacuous pass.
        let violations = diff_perf(&perf(800.0, &models, &KERNELS), &perf(800.0, &models, &[]));
        assert!(
            violations.iter().any(|v| v.contains("vacuously")),
            "got: {violations:?}"
        );
        // A baseline without kernels pins nothing and fails the same way.
        let violations = diff_perf(&perf(800.0, &models, &[]), &perf(800.0, &models, &KERNELS));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("vacuously"), "got: {violations:?}");
        // A single dropped kernel is flagged by name.
        let partial = perf(800.0, &models, &KERNELS[..1]);
        let violations = diff_perf(&perf(800.0, &models, &KERNELS), &partial);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("threshold_scan") && violations[0].contains("missing"),
            "got: {violations:?}"
        );
    }

    #[test]
    fn a_fresh_row_the_baseline_lacks_fails_the_gate() {
        let models = [("interval", 5.0)];
        // A kernel added to `perf` without a baseline row would never be
        // gated: flagged by name, however fast it runs.
        let mut grown = KERNELS.to_vec();
        grown.push(("soa_decode", 20.0));
        let violations = diff_perf(
            &perf(800.0, &models, &KERNELS),
            &perf(800.0, &models, &grown),
        );
        assert_eq!(violations.len(), 1, "got: {violations:?}");
        assert!(
            violations[0].starts_with("kernel soa_decode:")
                && violations[0].contains("missing from the baseline"),
            "got: {violations:?}"
        );
    }

    #[test]
    fn kernel_normalization_still_gates_real_regressions() {
        // Same host speed (equal kernel MOPS) but the simulator itself lost
        // half its throughput: normalization must not absolve it.
        let baseline = perf(800.0, &[("interval", 10.0)], &KERNELS);
        let fresh = perf(800.0, &[("interval", 5.0)], &KERNELS);
        let violations = diff_perf(&baseline, &fresh);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("normalized"), "got: {violations:?}");
    }
}
