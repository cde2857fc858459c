//! Static analysis of scenario specs, before any simulation (`iss lint`).
//!
//! A sweep that parses and validates can still be wasteful or
//! meaningless: two expanded points with identical canonical config
//! digests simulate the same design point twice and then overwrite each
//! other in comparisons; a one-value sweep axis is dead weight; a
//! machine with an L2 smaller than its L1 or a window/dispatch ratio far
//! outside the paper's modeled range produces numbers nobody should
//! read. [`analyze`] finds all of that from the spec text alone and adds
//! a cost estimate (expanded job count × per-model throughput from
//! `ci/BENCH_baseline.json`) so a fat sweep is visible before it burns
//! CI minutes.

use std::collections::BTreeMap;

use iss_sim::workload::WorkloadSpec;
use iss_sim::SweepSpec;

use crate::gates::PerfRow;

/// Severity of one spec finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The spec should not be run as-is; `iss lint` exits nonzero.
    Error,
    /// Worth fixing, does not fail the lint.
    Warning,
}

/// One spec-analysis finding.
#[derive(Debug, Clone)]
pub struct SpecFinding {
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
}

/// Full analysis of one spec.
#[derive(Debug, Clone)]
pub struct SpecReport {
    /// Sweep name from the file.
    pub name: String,
    /// Expanded design-point count.
    pub points: usize,
    /// Estimated total simulated instructions across all points.
    pub instructions: u64,
    /// Estimated host seconds (`None` when no baseline is available).
    pub estimated_seconds: Option<f64>,
    /// Findings, errors first (stable order).
    pub findings: Vec<SpecFinding>,
}

impl SpecReport {
    /// Whether any finding is an [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }
}

/// Simulated MIPS for `model` from the `models` rows of a perf file
/// ([`crate::gates::parse_perf`]): an exact name match, else the slowest
/// known model (a conservative estimate for hybrids and newcomers). Rows
/// without a positive rate are ignored.
#[must_use]
pub fn mips_for(models: &[PerfRow], model: &str) -> Option<f64> {
    let rated = || {
        models
            .iter()
            .map(|m| (m, m.rate()))
            .filter(|(_, rate)| *rate > 0.0)
    };
    rated()
        .find(|(m, _)| m.name == model)
        .or_else(|| rated().min_by(|a, b| a.1.total_cmp(&b.1)))
        .map(|(_, rate)| rate)
}

/// Total simulated instructions one expanded point costs.
fn workload_instructions(w: &WorkloadSpec) -> u64 {
    match w {
        WorkloadSpec::Single { length, .. } => *length,
        WorkloadSpec::MultiprogramHomogeneous {
            copies,
            length_per_copy,
            ..
        } => length_per_copy.saturating_mul(*copies as u64),
        WorkloadSpec::Multiprogram {
            benchmarks,
            length_per_copy,
        } => length_per_copy.saturating_mul(benchmarks.len() as u64),
        WorkloadSpec::Multithreaded { total_length, .. } => *total_length,
    }
}

/// The paper's modeled window/dispatch regime. Outside this band the
/// interval model's assumptions (balanced dispatch, W/D-bounded interval
/// profiles) degrade; specs get a warning, not an error.
const WINDOW_PER_DISPATCH: (u64, u64) = (4, 256);

/// Digests the expanded points of `sweep` and statically checks them.
///
/// # Errors
///
/// Returns the underlying parse/expansion error when the sweep cannot be
/// expanded at all — that is `iss validate` territory; the lint pass
/// only runs on specs that validate.
pub fn analyze(sweep: &SweepSpec, mips: Option<&[PerfRow]>) -> Result<SpecReport, String> {
    let points = sweep.expand()?;
    let mut findings = Vec::new();

    // Duplicate design points via the canonical config digest.
    let mut by_digest: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for p in &points {
        by_digest
            .entry(p.digest()?)
            .or_default()
            .push(p.name.clone());
    }
    for (digest, names) in &by_digest {
        if names.len() > 1 {
            findings.push(SpecFinding {
                severity: Severity::Error,
                message: format!(
                    "duplicate design point (digest {digest}): {} expand to the same \
                     simulation — deduplicate the sweep axes or differentiate the variants",
                    names.join(", ")
                ),
            });
        }
    }

    // Dead axes: declared as a sweep but holding a single value.
    for (axis, len) in [
        ("models", sweep.models.len()),
        ("benchmarks", sweep.benchmarks.len()),
        ("cores", sweep.cores.len()),
        ("seeds", sweep.seeds.len()),
    ] {
        if len == 1 {
            findings.push(SpecFinding {
                severity: Severity::Warning,
                message: format!(
                    "sweep axis `{axis}` holds a single value — fold it into the template \
                     (a one-point axis reads like a sweep but is not one)"
                ),
            });
        }
    }

    // Machine sanity, deduplicated across points sharing a config.
    let mut machine_notes: BTreeMap<String, Severity> = BTreeMap::new();
    for p in &points {
        let config = p.resolved_config()?;
        let caches = [("l1i", &config.memory.l1i), ("l1d", &config.memory.l1d)];
        for (label, cache) in caches {
            if !cache.size_bytes.is_power_of_two() || !cache.ways.is_power_of_two() {
                machine_notes.insert(
                    format!(
                        "{label} geometry is not a power of two ({} bytes, {}-way) — \
                         set indexing will round down",
                        cache.size_bytes, cache.ways
                    ),
                    Severity::Warning,
                );
            }
        }
        if let Some(l2) = &config.memory.l2 {
            if !l2.size_bytes.is_power_of_two() || !l2.ways.is_power_of_two() {
                machine_notes.insert(
                    format!(
                        "l2 geometry is not a power of two ({} bytes, {}-way) — \
                         set indexing will round down",
                        l2.size_bytes, l2.ways
                    ),
                    Severity::Warning,
                );
            }
            if l2.size_bytes < config.memory.l1d.size_bytes {
                machine_notes.insert(
                    format!(
                        "L2 ({} bytes) is smaller than L1d ({} bytes) — the hierarchy \
                         is inverted and every L1 victim thrashes",
                        l2.size_bytes, config.memory.l1d.size_bytes
                    ),
                    Severity::Error,
                );
            }
        }
        let width = u64::from(config.interval_core.dispatch_width.max(1));
        let ratio = config.interval_core.window_size as u64 / width;
        if ratio < WINDOW_PER_DISPATCH.0 || ratio > WINDOW_PER_DISPATCH.1 {
            machine_notes.insert(
                format!(
                    "window/dispatch ratio {ratio} (window {} / width {}) is outside the \
                     modeled range [{}, {}] — interval-model accuracy is uncharacterized \
                     there",
                    config.interval_core.window_size,
                    config.interval_core.dispatch_width,
                    WINDOW_PER_DISPATCH.0,
                    WINDOW_PER_DISPATCH.1
                ),
                Severity::Warning,
            );
        }
    }
    for (message, severity) in machine_notes {
        findings.push(SpecFinding { severity, message });
    }
    findings.sort_by_key(|f| f.severity == Severity::Warning);

    // Cost estimate.
    let mut instructions: u64 = 0;
    let mut seconds = 0.0_f64;
    let mut have_seconds = mips.is_some();
    for p in &points {
        let insts = workload_instructions(&p.workload);
        instructions = instructions.saturating_add(insts);
        // The baseline keys throughput by plain model names; parameterized
        // models (hybrid, sampled) fall back to the slowest row unless their
        // exact name is present.
        match mips.and_then(|m| mips_for(m, &p.model.name())) {
            Some(rate) => seconds += insts as f64 / (rate * 1.0e6),
            None => have_seconds = false,
        }
    }

    Ok(SpecReport {
        name: sweep.name.clone(),
        points: points.len(),
        instructions,
        estimated_seconds: have_seconds.then_some(seconds),
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::parse_perf;

    fn spec(text: &str) -> SweepSpec {
        SweepSpec::from_toml(text).unwrap()
    }

    const BASELINE: &str = r#"{
        "schema": "iss-bench-perf/v2",
        "scale": {"spec_length": 1000, "parsec_length": 1000, "seed": 42},
        "host_kernel_mops": 100.0,
        "models": [
            {"model": "interval", "instructions": 5000000, "host_seconds": 1.0},
            {"model": "detailed", "instructions": 500000, "host_seconds": 1.0}
        ],
        "kernels": [{"kernel": "tag_compare", "ops": 1000, "host_seconds": 1.0}]
    }"#;

    fn baseline() -> Vec<PerfRow> {
        parse_perf(BASELINE).unwrap().models
    }

    #[test]
    fn duplicate_design_points_are_errors() {
        // Two variants with identical machine/model/workload/seed collide.
        let text = r#"
            schema = "iss-scenario/v1"
            name = "dup"
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
            [[scenario]]
            variant = "a"
            [[scenario]]
            variant = "b"
        "#;
        let report = analyze(&spec(text), None).unwrap();
        assert!(report.has_errors());
        assert!(
            report.findings[0]
                .message
                .contains("duplicate design point"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn clean_specs_report_no_findings_and_a_cost() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "ok"
            [workload]
            kind = "single"
            length = 10000
            [sweep]
            models = ["interval", "detailed"]
            benchmarks = ["gcc", "mcf"]
        "#;
        let report = analyze(&spec(text), Some(&baseline())).unwrap();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.points, 4);
        assert_eq!(report.instructions, 40_000);
        // 2×10k at 5 MIPS + 2×10k at 0.5 MIPS.
        let expected = 20_000.0 / 5.0e6 + 20_000.0 / 0.5e6;
        assert!((report.estimated_seconds.unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn single_value_axes_warn() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "dead-axis"
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
            [sweep]
            models = ["interval"]
        "#;
        let report = analyze(&spec(text), None).unwrap();
        assert!(!report.has_errors());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("`models`")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn inverted_cache_hierarchy_is_an_error() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "tiny-l2"
            [machine]
            l2_size_kb = 16
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
        "#;
        let report = analyze(&spec(text), None).unwrap();
        assert!(report.has_errors(), "{:?}", report.findings);
        assert!(
            report.findings[0].message.contains("smaller than L1d"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn extreme_window_dispatch_ratio_warns() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "wide"
            [machine]
            window_size = 2048
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
        "#;
        let report = analyze(&spec(text), None).unwrap();
        assert!(!report.has_errors());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("window/dispatch")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn baseline_parsing_reads_the_perf_file_shape() {
        let mips = baseline();
        assert_eq!(mips_for(&mips, "interval"), Some(5.0));
        assert_eq!(mips_for(&mips, "detailed"), Some(0.5));
        // Unknown models fall back to the slowest entry.
        assert_eq!(mips_for(&mips, "hybrid-periodic-4@2000"), Some(0.5));
        assert!(parse_perf("{}").is_err());
    }
}
