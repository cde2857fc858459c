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
//!   when any model's simulated MIPS regresses by more than the allowed
//!   fraction against it. Host speed varies between machines, which is why
//!   this gate tolerates a generous margin (default 25%) rather than an
//!   exact match.
//!
//! The vendored `serde` is a no-op marker with no serializer backend, so
//! both files are written by hand here (one object per line inside the
//! `rows` / `models` arrays) and read back through the workspace's one
//! JSON reader, [`iss_sim::jsonval`]. The parsers are pure functions over
//! text so the gate logic — including "injected drift must fail" — is
//! unit-tested directly.

use std::fmt::Write as _;

pub use iss_lint::ModelMips;
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

/// Renders a golden-accuracy file.
#[must_use]
pub fn render_golden_accuracy(
    scale: ExperimentScale,
    tolerance: f64,
    rows: &[GoldenRow],
) -> String {
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"iss-accuracy-golden/v1\",\n");
    let _ = writeln!(
        j,
        "  \"scale\": {{\"spec_length\": {}, \"parsec_length\": {}, \"seed\": {}}},",
        scale.spec_length, scale.parsec_length, scale.seed
    );
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
    let scale = doc.get("scale").ok_or("missing scale")?;
    let length = |key: &str| {
        scale
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("malformed scale: {key}"))
    };
    Ok(GoldenAccuracy {
        scale: ExperimentScale {
            spec_length: length("spec_length")?,
            parsec_length: length("parsec_length")?,
            seed: length("seed")?,
        },
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

/// Parses the `reference_kernel_mops` entry of a perf file: the throughput
/// of the fixed host-speed calibration kernel, or `None` for files written
/// before the kernel existed.
#[must_use]
pub fn parse_reference_kernel(text: &str) -> Option<f64> {
    num_of(&jsonval::parse(text).ok()?, "reference_kernel_mops").filter(|&m| m > 0.0)
}

/// Parses the `models` entries of a `BENCH_interval.json` perf file.
///
/// # Errors
///
/// Returns a message when the schema marker is missing or no model entry
/// parses.
pub fn parse_perf_models(text: &str) -> Result<Vec<ModelMips>, String> {
    if !text.contains("iss-bench-perf/v1") {
        return Err("not an iss-bench-perf/v1 file".to_string());
    }
    ModelMips::parse(text)
}

/// Diffs a fresh perf run against the committed baseline. A model regresses
/// when its simulated MIPS falls below `(1 - max_regression)` of the
/// baseline; missing models are violations too. Speedups never fail the
/// gate.
///
/// `baseline_ref` / `fresh_ref` are the two runs' reference-kernel
/// throughputs (MOPS of the same fixed integer kernel on each host). When
/// both are present, every MIPS number is divided by its run's kernel speed
/// before comparison, so a host that is uniformly slower (or noisier) than
/// the baseline machine cancels out and the margin gates *simulator*
/// regressions only. When either is missing (a pre-calibration baseline
/// file), the comparison falls back to raw MIPS.
#[must_use]
pub fn diff_perf(
    baseline: &[ModelMips],
    fresh: &[ModelMips],
    baseline_ref: Option<f64>,
    fresh_ref: Option<f64>,
    max_regression: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    // Same vacuous-pass hardening as the accuracy gate: comparing against
    // (or with) nothing is a failure, not a pass.
    if baseline.is_empty() {
        violations.push(
            "perf baseline is empty — the gate would pass vacuously; regenerate it with the `perf` binary"
                .to_string(),
        );
    }
    if fresh.is_empty() {
        violations.push(
            "fresh perf run has no model entries — the gate would pass vacuously".to_string(),
        );
    }
    let (base_div, fresh_div, normalized) = match (baseline_ref, fresh_ref) {
        (Some(b), Some(f)) if b > 0.0 && f > 0.0 => (b, f, true),
        _ => (1.0, 1.0, false),
    };
    for b in baseline {
        match fresh.iter().find(|f| f.model == b.model) {
            None => violations.push(format!(
                "{}: present in the baseline but missing from the fresh run",
                b.model
            )),
            Some(f) => {
                let base_norm = b.simulated_mips / base_div;
                let fresh_norm = f.simulated_mips / fresh_div;
                let floor = base_norm * (1.0 - max_regression);
                if fresh_norm < floor {
                    let unit = if normalized {
                        "normalized MIPS (MIPS per kernel MOPS)"
                    } else {
                        "simulated MIPS"
                    };
                    violations.push(format!(
                        "{}: {:.4} {unit} is below the allowed floor {:.4} \
                         (baseline {:.4}, max regression {:.0}%)",
                        b.model,
                        fresh_norm,
                        floor,
                        base_norm,
                        max_regression * 100.0
                    ));
                }
            }
        }
    }
    violations
}

/// Throughput entry of one isolated batch kernel in a perf file.
///
/// These are the lane kernels behind the warming and interval hot loops
/// (set-major tag compare, batched TLB translate, the geometric threshold
/// scan, batched branch update), measured in million operations per second
/// on realistic harvested columns. The perf gate pins each one the same
/// way it pins the model MIPS rows: as a host-normalized ratio against the
/// committed baseline, so a vectorized kernel cannot quietly rot back to
/// scalar speed without failing CI.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMops {
    /// Kernel name (`tag_compare`, `tlb_access_batch`, `threshold_scan`,
    /// `branch_update_batch`).
    pub kernel: String,
    /// Million kernel operations per host second.
    pub mops: f64,
}

/// Parses the `kernels` entries of a perf file. Files written before the
/// kernel rows existed have none; the empty list is the back-compat signal
/// [`diff_kernels`] keys on. Text that is not JSON has no rows either
/// ([`parse_perf_models`] reports it), and a malformed entry is skipped.
#[must_use]
pub fn parse_perf_kernels(text: &str) -> Vec<KernelMops> {
    let Ok(doc) = jsonval::parse(text) else {
        return Vec::new();
    };
    array(&doc, "kernels")
        .iter()
        .filter_map(|k| {
            Some(KernelMops {
                kernel: str_of(k, "kernel")?,
                mops: num_of(k, "mops")?,
            })
        })
        .collect()
}

/// Diffs a fresh run's kernel throughputs against the committed baseline,
/// with the same host normalization as [`diff_perf`]: when both runs carry
/// a reference-kernel entry, each kernel's MOPS is divided by its run's
/// reference MOPS, so the floor is a ratio of simulator-kernel speed to
/// host speed rather than a raw number some slower machine could never
/// meet.
///
/// A baseline with no kernel entries predates the kernel rows: nothing is
/// pinned and the diff is empty (refreshing the baseline starts enforcing
/// the floors). A baseline *with* kernels against a fresh run without them
/// is a violation — losing the measurement would silently retire the gate.
#[must_use]
pub fn diff_kernels(
    baseline: &[KernelMops],
    fresh: &[KernelMops],
    baseline_ref: Option<f64>,
    fresh_ref: Option<f64>,
    max_regression: f64,
) -> Vec<String> {
    if baseline.is_empty() {
        return Vec::new();
    }
    let mut violations = Vec::new();
    if fresh.is_empty() {
        violations.push(format!(
            "baseline pins {} kernel floor(s) but the fresh run measured no kernels — \
             the kernel gate would pass vacuously",
            baseline.len()
        ));
    }
    let (base_div, fresh_div, normalized) = match (baseline_ref, fresh_ref) {
        (Some(b), Some(f)) if b > 0.0 && f > 0.0 => (b, f, true),
        _ => (1.0, 1.0, false),
    };
    for b in baseline {
        match fresh.iter().find(|f| f.kernel == b.kernel) {
            None if fresh.is_empty() => {} // already reported above
            None => violations.push(format!(
                "kernel {}: present in the baseline but missing from the fresh run",
                b.kernel
            )),
            Some(f) => {
                let base_norm = b.mops / base_div;
                let fresh_norm = f.mops / fresh_div;
                let floor = base_norm * (1.0 - max_regression);
                if fresh_norm < floor {
                    let unit = if normalized {
                        "normalized MOPS (kernel MOPS per reference MOPS)"
                    } else {
                        "MOPS"
                    };
                    violations.push(format!(
                        "kernel {}: {:.4} {unit} is below the allowed floor {:.4} \
                         (baseline {:.4}, max regression {:.0}%)",
                        b.kernel,
                        fresh_norm,
                        floor,
                        base_norm,
                        max_regression * 100.0
                    ));
                }
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

    #[test]
    fn perf_file_parses_model_mips() {
        let text = "{\n  \"schema\": \"iss-bench-perf/v1\",\n  \"models\": [\n    \
                    {\"model\": \"interval\", \"instructions\": 120000, \
                    \"host_seconds\": 0.021, \"simulated_mips\": 5.71},\n    \
                    {\"model\": \"detailed\", \"instructions\": 120000, \
                    \"host_seconds\": 0.134, \"simulated_mips\": 0.89}\n  ]\n}\n";
        let models = parse_perf_models(text).unwrap();
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].model, "interval");
        assert!((models[1].simulated_mips - 0.89).abs() < 1e-9);
    }

    #[test]
    fn injected_perf_regression_fails_the_gate() {
        let baseline = vec![
            ModelMips {
                model: "interval".into(),
                simulated_mips: 5.6,
            },
            ModelMips {
                model: "detailed".into(),
                simulated_mips: 0.9,
            },
        ];
        // Interval regresses by 50%: violation. Detailed speeds up: fine.
        let fresh = vec![
            ModelMips {
                model: "interval".into(),
                simulated_mips: 2.8,
            },
            ModelMips {
                model: "detailed".into(),
                simulated_mips: 1.2,
            },
        ];
        let violations = diff_perf(&baseline, &fresh, None, None, 0.25);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].starts_with("interval:"),
            "got: {violations:?}"
        );
    }

    #[test]
    fn perf_within_margin_and_missing_model_behave() {
        let baseline = vec![ModelMips {
            model: "one-ipc".into(),
            simulated_mips: 8.0,
        }];
        let ok = vec![ModelMips {
            model: "one-ipc".into(),
            simulated_mips: 6.5, // ~19% down, within the 25% margin
        }];
        assert!(diff_perf(&baseline, &ok, None, None, 0.25).is_empty());
        // Empty fresh run: one vacuous-pass violation plus the missing
        // model.
        let violations = diff_perf(&baseline, &[], None, None, 0.25);
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| v.contains("vacuously")));
        assert!(violations.iter().any(|v| v.contains("missing")));
    }

    #[test]
    fn empty_perf_baseline_fails_the_gate() {
        let fresh = vec![ModelMips {
            model: "interval".into(),
            simulated_mips: 5.0,
        }];
        let violations = diff_perf(&[], &fresh, None, None, 0.25);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("vacuously"), "got: {violations:?}");
    }

    #[test]
    fn reference_kernel_parses_and_rejects_degenerate_values() {
        let text = "{\n  \"schema\": \"iss-bench-perf/v1\",\n  \
                    \"reference_kernel_mops\": 812.503\n}\n";
        let mops = parse_reference_kernel(text).unwrap();
        assert!((mops - 812.503).abs() < 1e-9);
        assert_eq!(parse_reference_kernel("{\"schema\": \"x\"}"), None);
        let zero = "{\n  \"reference_kernel_mops\": 0.000\n}\n";
        assert_eq!(parse_reference_kernel(zero), None);
    }

    #[test]
    fn kernel_normalization_cancels_a_uniformly_slow_host() {
        let baseline = vec![ModelMips {
            model: "interval".into(),
            simulated_mips: 10.0,
        }];
        // The fresh host runs everything at 40% speed — a raw comparison
        // would flag a 60% "regression", but the reference kernel slowed
        // down identically, so the normalized gate passes.
        let fresh = vec![ModelMips {
            model: "interval".into(),
            simulated_mips: 4.0,
        }];
        assert!(!diff_perf(&baseline, &fresh, None, None, 0.25).is_empty());
        assert!(diff_perf(&baseline, &fresh, Some(1000.0), Some(400.0), 0.25).is_empty());
    }

    fn kernel_rows() -> Vec<KernelMops> {
        vec![
            KernelMops {
                kernel: "tag_compare".into(),
                mops: 350.0,
            },
            KernelMops {
                kernel: "threshold_scan".into(),
                mops: 290.0,
            },
        ]
    }

    #[test]
    fn perf_file_parses_kernel_rows_and_tolerates_their_absence() {
        let text = "{\n  \"schema\": \"iss-bench-perf/v1\",\n  \"kernels\": [\n    \
                    {\"kernel\": \"tag_compare\", \"ops\": 2996000, \
                    \"host_seconds\": 0.009, \"mops\": 351.2},\n    \
                    {\"kernel\": \"tlb_access_batch\", \"ops\": 2996000, \
                    \"host_seconds\": 0.017, \"mops\": 176.4}\n  ]\n}\n";
        let kernels = parse_perf_kernels(text);
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].kernel, "tag_compare");
        assert!((kernels[1].mops - 176.4).abs() < 1e-9);
        // Pre-kernel files simply have no rows — not a parse error.
        assert!(parse_perf_kernels("{\n  \"schema\": \"iss-bench-perf/v1\"\n}\n").is_empty());
    }

    #[test]
    fn injected_kernel_regression_fails_the_gate() {
        let baseline = kernel_rows();
        let mut fresh = kernel_rows();
        fresh[1].mops = 140.0; // threshold_scan lost half its speed
        let violations = diff_kernels(&baseline, &fresh, Some(800.0), Some(800.0), 0.25);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("threshold_scan"),
            "got: {violations:?}"
        );
        assert!(violations[0].contains("below the allowed floor"));
    }

    #[test]
    fn kernel_gate_normalizes_host_speed_like_the_model_gate() {
        let baseline = kernel_rows();
        // Uniformly 40%-speed host: raw comparison would flag both kernels,
        // the normalized one passes because the reference kernel slowed
        // identically.
        let fresh: Vec<KernelMops> = kernel_rows()
            .into_iter()
            .map(|k| KernelMops {
                mops: k.mops * 0.4,
                ..k
            })
            .collect();
        assert!(!diff_kernels(&baseline, &fresh, None, None, 0.25).is_empty());
        assert!(diff_kernels(&baseline, &fresh, Some(1000.0), Some(400.0), 0.25).is_empty());
    }

    #[test]
    fn pre_kernel_baseline_skips_but_lost_measurement_fails() {
        // Baseline without kernel rows: nothing pinned, gate is silent.
        assert!(diff_kernels(&[], &kernel_rows(), Some(800.0), Some(800.0), 0.25).is_empty());
        // Baseline with rows but a fresh run without them: loud failure,
        // not a vacuous pass.
        let violations = diff_kernels(&kernel_rows(), &[], Some(800.0), Some(800.0), 0.25);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("vacuously"), "got: {violations:?}");
        // A single dropped kernel is flagged by name.
        let partial = vec![kernel_rows().remove(0)];
        let violations = diff_kernels(&kernel_rows(), &partial, Some(800.0), Some(800.0), 0.25);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("threshold_scan") && violations[0].contains("missing"),
            "got: {violations:?}"
        );
    }

    #[test]
    fn kernel_normalization_still_gates_real_regressions() {
        let baseline = vec![ModelMips {
            model: "interval".into(),
            simulated_mips: 10.0,
        }];
        // Same host speed (equal kernel MOPS) but the simulator itself lost
        // half its throughput: normalization must not absolve it.
        let fresh = vec![ModelMips {
            model: "interval".into(),
            simulated_mips: 5.0,
        }];
        let violations = diff_perf(&baseline, &fresh, Some(800.0), Some(800.0), 0.25);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("normalized"), "got: {violations:?}");
        // A pre-calibration baseline (no kernel entry) falls back to the
        // raw comparison rather than passing vacuously.
        let raw = diff_perf(&baseline, &fresh, None, Some(800.0), 0.25);
        assert_eq!(raw.len(), 1);
        assert!(raw[0].contains("simulated MIPS"), "got: {raw:?}");
    }
}
