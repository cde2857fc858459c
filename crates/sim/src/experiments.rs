//! The built-in sweeps: every figure of the paper's evaluation as its
//! checked-in scenario file.
//!
//! Each figure is data, not code. [`BUILTINS`] embeds the 12 files under
//! `examples/scenarios/` that define the figures, and [`builtin`] parses
//! one and applies an [`ExperimentScale`] to it. The files are written at
//! quick scale, so `builtin(name, ExperimentScale::quick())` is exactly
//! the file. Editing a figure means editing its file; there is no second
//! definition to keep in step. The generic scenario engine runs the sweep
//! into unified [`Record`](crate::scenario::Record) rows, and the derived
//! quantities the figures plot (IPC error, STP/ANTT, normalized execution
//! time, host-time speedup, confidence intervals) are views over records
//! (see [`crate::report`]).
//!
//! Sweeps execute on the parallel [`batch`](crate::batch) engine; every
//! simulated quantity is deterministic in `(model, config, workload,
//! seed)`, so the rows are identical whether `ISS_THREADS` is 1 or 64.

use crate::hybrid::HybridSpec;
use crate::runner::CoreModel;
use crate::sampling::SamplingSpec;
use crate::scenario::SweepSpec;
use crate::workload::WorkloadSpec;

/// Instruction budget and seed for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Instructions per SPEC program (per core for multi-program workloads).
    pub spec_length: u64,
    /// Total instructions per PARSEC program (split over its threads).
    pub parsec_length: u64,
    /// Workload generation seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Small budget for unit/integration tests (seconds of host time).
    #[must_use]
    pub fn quick() -> Self {
        ExperimentScale {
            spec_length: 20_000,
            parsec_length: 40_000,
            seed: 42,
        }
    }

    /// The budget of the paper-style figure runs.
    #[must_use]
    pub fn full() -> Self {
        ExperimentScale {
            spec_length: 200_000,
            parsec_length: 400_000,
            seed: 42,
        }
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self::quick()
    }
}

/// The built-in sweeps in `iss list` order: name, one-line description,
/// and the checked-in scenario file that defines the sweep at quick scale.
pub const BUILTINS: [(&str, &str, &str); 12] = [
    (
        "fig4-dispatch",
        "Fig 4(a): effective dispatch rate isolation, detailed vs interval",
        include_str!("../../../examples/scenarios/fig4-dispatch.toml"),
    ),
    (
        "fig4-icache",
        "Fig 4(b): I-cache/I-TLB isolation, detailed vs interval",
        include_str!("../../../examples/scenarios/fig4-icache.toml"),
    ),
    (
        "fig4-branch",
        "Fig 4(c): branch prediction isolation, detailed vs interval",
        include_str!("../../../examples/scenarios/fig4-branch.toml"),
    ),
    (
        "fig4-l2",
        "Fig 4(d): L2 cache isolation, detailed vs interval",
        include_str!("../../../examples/scenarios/fig4-l2.toml"),
    ),
    (
        "fig5",
        "Fig 5: single-threaded SPEC accuracy on the Table 1 baseline",
        include_str!("../../../examples/scenarios/fig5.toml"),
    ),
    (
        "fig6",
        "Fig 6: homogeneous multi-program STP/ANTT vs copy count",
        include_str!("../../../examples/scenarios/fig6.toml"),
    ),
    (
        "fig7",
        "Fig 7 and Fig 10: multi-threaded PARSEC normalized time and speedup vs core count",
        include_str!("../../../examples/scenarios/fig7.toml"),
    ),
    (
        "fig8",
        "Fig 8: 3D-stacking case study (2 cores + L2 vs 4 cores + 3D)",
        include_str!("../../../examples/scenarios/fig8.toml"),
    ),
    (
        "fig9",
        "Fig 9: simulation speedup, SPEC multi-program workloads",
        include_str!("../../../examples/scenarios/fig9.toml"),
    ),
    (
        "hybrid",
        "Hybrid frontier: swap policies vs pure detailed (speed vs CPI error)",
        include_str!("../../../examples/scenarios/hybrid.toml"),
    ),
    (
        "sampling",
        "Sampling frontier: sampled CPI with 95% CI vs pure detailed/interval",
        include_str!("../../../examples/scenarios/sampling.toml"),
    ),
    (
        "ablation",
        "Ablation: overlap modeling, old-window reset, one-IPC vs detailed",
        include_str!("../../../examples/scenarios/ablation.toml"),
    ),
];

/// Resolves a built-in sweep at `scale`: its checked-in file, with every
/// scale-dependent value moved from quick scale to `scale`. Those values
/// are the SPEC lengths (single and homogeneous workloads), the PARSEC
/// lengths (multithreaded workloads), the seed, the hybrid quantum, and
/// the sampled unit and warmup. `None` for an unknown name.
///
/// # Panics
///
/// Never panics: the embedded files parse by construction (a test pins
/// every one of them).
#[must_use]
pub fn builtin(name: &str, scale: ExperimentScale) -> Option<SweepSpec> {
    let (_, _, text) = BUILTINS.iter().find(|(n, _, _)| *n == name)?;
    #[expect(
        clippy::expect_used,
        reason = "builtin() parses a compiled-in scenario file with expect; the builtins test parses every one"
    )]
    let mut sweep = SweepSpec::from_toml(text).expect("built-in scenario files parse");
    let quick = ExperimentScale::quick();
    for template in &mut sweep.templates {
        template.seed = scale.seed;
        template.model = scaled_model(template.model, scale);
        match &mut template.workload {
            WorkloadSpec::Single { length, .. }
            | WorkloadSpec::MultiprogramHomogeneous {
                length_per_copy: length,
                ..
            } => *length = rescale(*length, quick.spec_length, scale.spec_length),
            WorkloadSpec::Multithreaded { total_length, .. } => {
                *total_length = rescale(*total_length, quick.parsec_length, scale.parsec_length);
            }
            WorkloadSpec::Multiprogram { .. } => {}
        }
    }
    for model in &mut sweep.models {
        *model = scaled_model(*model, scale);
    }
    Some(sweep)
}

/// `value * to / from`, saturating: one quick-scale budget at another
/// scale.
fn rescale(value: u64, from: u64, to: u64) -> u64 {
    u64::try_from(u128::from(value) * u128::from(to) / u128::from(from.max(1))).unwrap_or(u64::MAX)
}

/// A built-in model moved from quick scale to `scale`: the hybrid quantum
/// follows [`hybrid_quantum`], the sampled unit and warmup grow by
/// [`sampling_unit_factor`].
fn scaled_model(model: CoreModel, scale: ExperimentScale) -> CoreModel {
    match model {
        CoreModel::Hybrid(mut spec) => {
            spec.interval_insts = rescale(
                spec.interval_insts,
                hybrid_quantum(ExperimentScale::quick()),
                hybrid_quantum(scale),
            );
            CoreModel::Hybrid(spec)
        }
        CoreModel::Sampled(mut spec) => {
            let m = sampling_unit_factor(scale);
            spec.unit_insts = spec.unit_insts.saturating_mul(m);
            spec.warmup_insts = spec.warmup_insts.saturating_mul(m);
            CoreModel::Sampled(spec)
        }
        other => other,
    }
}

/// The hybrid interval quantum at `scale`: a tenth of the per-benchmark
/// budget (so every run crosses several swap decisions), at least 500.
fn hybrid_quantum(scale: ExperimentScale) -> u64 {
    (scale.spec_length / 10).max(500)
}

/// How many times the quick-scale sampling unit and warmup a sampled run
/// at `scale` uses: the sampling budget over the quick one, at least 1.
fn sampling_unit_factor(scale: ExperimentScale) -> u64 {
    (sampling_length(scale) / sampling_length(ExperimentScale::quick())).max(1)
}

/// The hybrid policies of the `hybrid` built-in at `scale`, in file order:
/// pin-interval (the fast extreme), periodic detailed sampling, and
/// phase-triggered swapping, each on a quantum of a tenth of the SPEC
/// budget (at least 500) so every run crosses several swap decisions.
#[must_use]
pub fn default_hybrid_policies(scale: ExperimentScale) -> Vec<HybridSpec> {
    builtin_models("hybrid", scale)
        .filter_map(|model| match model {
            CoreModel::Hybrid(spec) => Some(spec),
            _ => None,
        })
        .collect()
}

/// The sampled configurations of the `sampling` built-in at `scale`, in
/// file order. Tuned at the quick-scale sampling budget, they span the
/// frontier: a sparse detailed-measurement config (the ≥5×-at-≤5%-average
/// acceptance point), a dense one (the accuracy end, ~3% average error at
/// ~3×), and an interval-measurement config (the speed extreme, ~9× with
/// a confidence interval attached). Units and warmups grow with the
/// sampling budget so every run crosses several measured units.
#[must_use]
pub fn default_sampling_specs(scale: ExperimentScale) -> Vec<SamplingSpec> {
    builtin_models("sampling", scale)
        .filter_map(|model| match model {
            CoreModel::Sampled(spec) => Some(spec),
            _ => None,
        })
        .collect()
}

/// The model axis of the `name` built-in at `scale`.
fn builtin_models(name: &str, scale: ExperimentScale) -> impl Iterator<Item = CoreModel> {
    builtin(name, scale)
        .into_iter()
        .flat_map(|sweep| sweep.models)
}

/// The per-benchmark instruction budget of the sampled-simulation figure:
/// five times the SPEC budget of the scale. Sampling amortizes a
/// run-length-independent cost (the cold-start transient it must measure
/// exactly, plus per-sample warmups) over the run; at the plain quick
/// budget that overhead alone is ~10% of the run and no sampling schedule
/// can be both fast and tight. 5× the budget is the regime the technique
/// is built for, while the pure reference models still finish in seconds
/// at quick scale.
#[must_use]
pub fn sampling_length(scale: ExperimentScale) -> u64 {
    scale.spec_length.saturating_mul(5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use crate::scenario::Record;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            spec_length: 8_000,
            parsec_length: 16_000,
            seed: 7,
        }
    }

    /// The `name` builtin at tiny scale, cut down to `benchmarks` (and to
    /// `cores` when given).
    fn tiny_builtin(name: &str, benchmarks: &[&str], cores: &[usize]) -> SweepSpec {
        let mut sweep = builtin(name, tiny()).expect("builtin resolves");
        sweep.benchmarks = benchmarks.iter().map(|b| (*b).to_string()).collect();
        if !cores.is_empty() {
            sweep.cores = cores.to_vec();
        }
        sweep
    }

    fn run(sweep: &SweepSpec) -> Vec<Record> {
        sweep.run().unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn every_listed_builtin_resolves_and_expands() {
        let scale = ExperimentScale::quick();
        for (name, _, _) in BUILTINS {
            let sweep =
                builtin(name, scale).unwrap_or_else(|| panic!("builtin `{name}` must resolve"));
            assert_eq!(sweep.name, name);
            let points = sweep
                .expand()
                .unwrap_or_else(|e| panic!("builtin `{name}` must expand: {e}"));
            assert!(!points.is_empty(), "builtin `{name}` expands to no points");
        }
        assert!(builtin("fig11", scale).is_none());
    }

    #[test]
    fn builtin_files_round_trip_through_the_codec() {
        for scale in [ExperimentScale::quick(), ExperimentScale::full(), tiny()] {
            for (name, _, _) in BUILTINS {
                let sweep = builtin(name, scale).unwrap();
                let reparsed = SweepSpec::from_toml(&sweep.to_toml())
                    .unwrap_or_else(|e| panic!("builtin `{name}` must re-parse: {e}"));
                assert_eq!(
                    sweep, reparsed,
                    "builtin `{name}` drifted through the codec"
                );
            }
        }
    }

    #[test]
    fn fig4_variants_produce_paired_records_with_bounded_error() {
        let records = run(&tiny_builtin("fig4-dispatch", &["gzip", "swim"], &[]));
        assert_eq!(records.len(), 4); // 2 benchmarks x 2 models
        for pair in records.chunks_exact(2) {
            let (detailed, interval) = (&pair[0], &pair[1]);
            assert_eq!(detailed.variant, "detailed");
            assert_eq!(interval.variant, "interval");
            assert_eq!(detailed.group, interval.group);
            assert!(detailed.core_ipc(0) > 0.0 && interval.core_ipc(0) > 0.0);
            assert!(
                interval.ipc_error_vs(detailed) < 0.5,
                "{}: interval {:.3} vs detailed {:.3}",
                interval.group,
                interval.core_ipc(0),
                detailed.core_ipc(0)
            );
        }
    }

    #[test]
    fn fig5_reports_all_requested_benchmarks() {
        let records = run(&tiny_builtin("fig5", &["gcc", "mcf"], &[]));
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].group, "gcc");
        assert_eq!(records[2].group, "mcf");
        assert!(records.iter().all(|r| r.core_ipc(0) > 0.0));
        assert!(records.iter().all(|r| r.sweep == "fig5"));
    }

    #[test]
    fn fig6_stp_between_one_and_copies() {
        let records = run(&tiny_builtin("fig6", &["gcc"], &[1, 2]));
        // 1 benchmark x 2 copy counts x 2 models.
        assert_eq!(records.len(), 4);
        let rows = report::stp_antt_rows(&records);
        assert_eq!(rows.len(), 4); // (2 models) x (2 copy counts)
        for row in &rows {
            assert!(row.stp > 0.0 && row.stp <= row.copies as f64 + 0.35);
            assert!(row.antt >= 0.9);
        }
    }

    #[test]
    fn fig7_single_core_detailed_is_normalized_to_one() {
        let records = run(&tiny_builtin("fig7", &["blackscholes"], &[1, 2]));
        assert_eq!(records.len(), 4);
        let one_core_detailed = records
            .iter()
            .find(|r| r.cores == 1 && r.variant == "detailed")
            .unwrap();
        let table = report::format_normalized_table("fig7", &records, "detailed");
        assert!(table.contains("blackscholes"));
        assert!(one_core_detailed.cycles > 0);
    }

    #[test]
    fn fig8_produces_two_designs_per_benchmark() {
        let records = run(&tiny_builtin("fig8", &["swaptions"], &[]));
        // 1 benchmark x 2 designs x 2 models.
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].variant, "2 cores + L2/detailed");
        assert_eq!(records[2].variant, "4 cores + 3D/detailed");
        assert_eq!(records[2].cores, 4);
        let quad = records[2].clone();
        assert!(quad.cycles > 0);
    }

    #[test]
    fn fig9_speedup_is_positive_and_generally_above_one() {
        let records = run(&tiny_builtin("fig9", &["mcf"], &[1]));
        assert_eq!(records.len(), 2);
        let (detailed, interval) = (&records[0], &records[1]);
        assert!(interval.speedup_vs(detailed) > 0.0);
    }

    #[test]
    fn fig_hybrid_produces_one_record_per_benchmark_policy_pair() {
        let scale = tiny();
        let policies = default_hybrid_policies(scale);
        let records = tiny_builtin("hybrid", &["gcc"], &[])
            .run_with_threads(1)
            .unwrap();
        assert_eq!(records.len(), 1 + policies.len());
        let detailed = &records[0];
        assert_eq!(detailed.variant, "detailed");
        for hybrid in &records[1..] {
            assert!(hybrid.variant.starts_with("hybrid-"));
            assert!(detailed.cpi() > 0.0 && hybrid.cpi() > 0.0);
            assert!(
                hybrid.cpi_error_vs(detailed) < 0.5,
                "{} under {}: hybrid CPI {:.3} vs detailed {:.3}",
                hybrid.group,
                hybrid.variant,
                hybrid.cpi(),
                detailed.cpi()
            );
        }
        // The periodic policy actually swaps on a multi-interval budget.
        let periodic = records
            .iter()
            .find(|r| r.variant.starts_with("hybrid-periodic"))
            .unwrap();
        assert!(periodic.swaps > 0, "periodic sampling must swap models");
    }

    #[test]
    fn ablation_removes_mlp_and_hurts_memory_bound_accuracy() {
        let sweep = tiny_builtin("ablation", &["mcf"], &[]);
        let records = run(&sweep);
        assert_eq!(records.len(), 5);
        let by_variant = |v: &str| {
            records
                .iter()
                .find(|r| r.variant == v)
                .unwrap_or_else(|| panic!("missing variant {v}"))
        };
        let interval = by_variant("interval");
        let no_overlap = by_variant("interval-no-overlap");
        // Without overlap modeling every long-latency miss is charged in
        // full, so the estimate must be slower (lower IPC) than the full
        // interval model on a memory-bound benchmark.
        assert!(
            no_overlap.core_ipc(0) < interval.core_ipc(0),
            "no-overlap IPC {:.3} must be below full-model IPC {:.3}",
            no_overlap.core_ipc(0),
            interval.core_ipc(0)
        );
        // Every variant produces a usable (positive, bounded) estimate.
        for template in &sweep.templates {
            let v = template.variant.as_deref().expect("labelled variant");
            let ipc = by_variant(v).core_ipc(0);
            assert!(ipc > 0.0 && ipc <= 4.0, "{v}: {ipc}");
        }
    }
}
