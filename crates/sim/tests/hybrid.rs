//! Integration tests of the hybrid model-swapping subsystem: checkpoint
//! round trips, bit-identity of pinned hybrid runs, worker-count invariance
//! of hybrid batch rows, and the speed-vs-accuracy acceptance frontier.

use iss_sim::batch::run_batch_with_threads;
use iss_sim::experiments::{builtin, default_hybrid_policies, ExperimentScale};
use iss_sim::hybrid::HybridSpec;
use iss_sim::model::{AnyMachine, CpuModel};
use iss_sim::runner::{run, BaseModel, CoreModel};
use iss_sim::{SimJob, SystemConfig, WorkloadSpec};

fn machine(kind: BaseModel, spec: &WorkloadSpec, config: &SystemConfig, seed: u64) -> AnyMachine {
    AnyMachine::build(kind, config, spec.build(seed).unwrap())
}

/// `restore(checkpoint())` into the same model is an identity: continuing
/// the restored machine produces the exact summary the original produces.
#[test]
fn checkpoint_restore_is_an_identity_for_each_model() {
    let config = SystemConfig::hpca2010_baseline(1);
    let spec = WorkloadSpec::single("gcc", 6_000);
    for kind in [BaseModel::Interval, BaseModel::Detailed, BaseModel::OneIpc] {
        let mut original = machine(kind, &spec, &config, 11);
        original.step_interval(2_500);
        let ckpt = original.checkpoint();
        let mut restored = AnyMachine::restore(kind, &config, ckpt);
        original.run_to_completion();
        restored.run_to_completion();
        let a = original.summary(kind.into(), "gcc".into());
        let b = restored.summary(kind.into(), "gcc".into());
        assert_eq!(
            a.canonical_record(),
            b.canonical_record(),
            "same-model restore must be exact for {}",
            kind.name()
        );
    }
}

/// The identity holds at multi-core checkpoints too (cores at different
/// per-core times, shared L2 and synchronization state in flight).
#[test]
fn checkpoint_restore_is_an_identity_on_multicore_workloads() {
    let config = SystemConfig::hpca2010_baseline(2);
    let spec = WorkloadSpec::multithreaded("fluidanimate", 2, 30_000);
    let mut original = machine(BaseModel::Interval, &spec, &config, 5);
    original.step_interval(9_000);
    let ckpt = original.checkpoint();
    let mut restored = AnyMachine::restore(BaseModel::Interval, &config, ckpt);
    original.run_to_completion();
    restored.run_to_completion();
    assert_eq!(
        original
            .summary(CoreModel::Interval, spec.label())
            .canonical_record(),
        restored
            .summary(CoreModel::Interval, spec.label())
            .canonical_record()
    );
}

/// Cross-model restore preserves the functional execution: no instruction is
/// lost or duplicated across the swap, and the swap is deterministic.
#[test]
fn cross_model_restore_retires_exactly_the_remaining_instructions() {
    let config = SystemConfig::hpca2010_baseline(1);
    let spec = WorkloadSpec::single("mcf", 8_000);
    for (from, to) in [
        (BaseModel::Interval, BaseModel::Detailed),
        (BaseModel::Detailed, BaseModel::Interval),
        (BaseModel::Interval, BaseModel::OneIpc),
        (BaseModel::OneIpc, BaseModel::Detailed),
    ] {
        let run_once = || {
            let mut m = machine(from, &spec, &config, 3);
            m.step_interval(3_000);
            let retired_at_swap = m.retired_instructions();
            let ckpt = m.checkpoint_lean();
            let mut incoming = AnyMachine::restore(to, &config, ckpt);
            assert_eq!(
                incoming.retired_instructions(),
                retired_at_swap,
                "{} -> {}: the incoming model must continue from the same \
                 retired-instruction count",
                from.name(),
                to.name()
            );
            incoming.run_to_completion();
            incoming.summary(to.into(), spec.label())
        };
        let first = run_once();
        let second = run_once();
        assert_eq!(
            first.total_instructions,
            8_000,
            "{} -> {}: every instruction retires exactly once",
            from.name(),
            to.name()
        );
        assert_eq!(
            first.canonical_record(),
            second.canonical_record(),
            "{} -> {}: a swap must be deterministic",
            from.name(),
            to.name()
        );
    }
}

/// A hybrid run pinned to `always-interval` is the plain interval run, bit
/// for bit: same cycles, same per-core counts, same memory statistics.
#[test]
fn hybrid_pinned_to_interval_matches_plain_interval_bit_for_bit() {
    let config1 = SystemConfig::hpca2010_baseline(1);
    let config4 = SystemConfig::hpca2010_baseline(4);
    let pinned = HybridSpec::always(BaseModel::Interval, 2_000);
    let cases = [
        (config1, WorkloadSpec::single("gcc", 20_000)),
        (config1, WorkloadSpec::single("mcf", 20_000)),
        (config4, WorkloadSpec::homogeneous("gzip", 4, 8_000)),
        (
            config4,
            WorkloadSpec::multithreaded("blackscholes", 4, 40_000),
        ),
    ];
    for (config, spec) in cases {
        let plain = run(CoreModel::Interval, &config, &spec, 42);
        let hybrid = run(CoreModel::Hybrid(pinned), &config, &spec, 42);
        assert_eq!(
            hybrid.swaps,
            0,
            "{}: a pinned run never swaps",
            spec.label()
        );
        assert_eq!(
            plain.canonical_record_modelless(),
            hybrid.canonical_record_modelless(),
            "{}: pinned hybrid must reproduce the plain interval run",
            spec.label()
        );
    }
}

/// Hybrid jobs go through the batch engine like any other job, and their
/// rows are bit-identical whether the batch runs on 1 worker or 4.
#[test]
fn hybrid_batch_rows_are_worker_count_invariant() {
    let config = SystemConfig::hpca2010_baseline(1);
    let scale_len = 10_000;
    let jobs: Vec<SimJob> = ["gcc", "mcf", "swim"]
        .iter()
        .flat_map(|b| {
            let spec = WorkloadSpec::single(b, scale_len);
            [
                SimJob::new(
                    CoreModel::Hybrid(HybridSpec::periodic(4, 1_000)),
                    config,
                    spec.clone(),
                    42,
                ),
                SimJob::new(
                    CoreModel::Hybrid(HybridSpec::phase_cpi(200, 1_000)),
                    config,
                    spec,
                    42,
                ),
            ]
        })
        .collect();
    let serial = run_batch_with_threads(&jobs, 1);
    let parallel = run_batch_with_threads(&jobs, 4);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.canonical_record(), p.canonical_record());
    }
    // The swapping policies actually swapped somewhere in this batch.
    assert!(
        serial.iter().any(|s| s.swaps > 0),
        "at least one hybrid job must perform a swap"
    );
}

/// The acceptance frontier: at quick scale, the hybrid sweep contains a
/// policy point that is at least 2x faster (host wall-clock) than pure
/// detailed simulation while staying within 5% CPI error.
#[test]
fn frontier_contains_a_2x_faster_point_within_5_percent_error() {
    let scale = ExperimentScale::quick();
    let policies = default_hybrid_policies(scale);
    let mut sweep = builtin("hybrid", scale).unwrap();
    sweep.benchmarks.truncate(4);
    assert_eq!(sweep.benchmarks, ["gcc", "gzip", "mcf", "twolf"]);
    let records = sweep.run_with_threads(1).unwrap();
    // One detailed reference plus one hybrid record per policy, per
    // benchmark.
    assert_eq!(records.len(), 4 * (1 + policies.len()));
    let winner = iss_sim::report::groups(&records).into_iter().any(|group| {
        let detailed = group.variant("detailed").expect("reference per group");
        group.records.iter().any(|r| {
            r.variant != "detailed"
                && r.speedup_vs(detailed) >= 2.0
                && r.cpi_error_vs(detailed) <= 0.05
        })
    });
    assert!(
        winner,
        "no (benchmark, policy) point met the 2x / 5% bar; frontier:\n{}",
        iss_sim::report::format_comparison_table("hybrid", &records, "detailed")
    );
}
