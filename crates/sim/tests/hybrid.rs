//! Integration tests of the hybrid model-swapping subsystem: cross-model
//! restores, bit-identity of pinned hybrid runs, worker-count invariance of
//! hybrid batch rows, and the speed-vs-accuracy acceptance frontier.

use iss_sim::batch::try_run_batch_with_threads;
use iss_sim::experiments::{builtin, default_hybrid_policies, ExperimentScale};
use iss_sim::hybrid::HybridSpec;
use iss_sim::model::{AnyMachine, CpuModel};
use iss_sim::runner::{run, BaseModel, CoreModel, SimSummary};
use iss_sim::{SimJob, SystemConfig, WorkloadSpec};

/// Runs the batch and unwraps every slot.
fn run_all(jobs: &[SimJob], threads: usize) -> Vec<SimSummary> {
    try_run_batch_with_threads(jobs, threads)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

fn machine(kind: BaseModel, spec: &WorkloadSpec, config: &SystemConfig, seed: u64) -> AnyMachine {
    AnyMachine::build(kind, config, spec.build(seed).unwrap())
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
            let ckpt = m.into_lean_checkpoint();
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
    let serial = run_all(&jobs, 1);
    let parallel = run_all(&jobs, 4);
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
/// policy point within 5% CPI error of pure detailed simulation that runs
/// at least 1.05x as fast on the host, about 0.8 of the 1.25–1.3x that its
/// best such point measures in a debug build. The error bar reads the
/// records. The speed
/// bar re-times each such point and its detailed reference three times
/// back to back and compares the fastest runs, so one run slowed by
/// sibling tests on a loaded host cannot decide it.
#[test]
fn frontier_contains_a_faster_point_within_5_percent_error() {
    let scale = ExperimentScale::quick();
    let policies = default_hybrid_policies(scale);
    let mut sweep = builtin("hybrid", scale).unwrap();
    sweep.benchmarks.truncate(4);
    assert_eq!(sweep.benchmarks, ["gcc", "gzip", "mcf", "twolf"]);
    let points = sweep.expand().unwrap();
    let records = sweep.run_points(&points, 1).unwrap();
    // One detailed reference plus one hybrid record per policy, per
    // benchmark.
    assert_eq!(records.len(), 4 * (1 + policies.len()));
    let reference = |i: usize| {
        records
            .iter()
            .position(|r| r.group == records[i].group && r.variant == "detailed")
            .expect("reference per group")
    };
    // Points within 5% CPI error, the fastest recorded first.
    let mut within: Vec<usize> = (0..records.len())
        .filter(|&i| {
            records[i].variant != "detailed"
                && records[i].cpi_error_vs(&records[reference(i)]) <= 0.05
        })
        .collect();
    within.sort_by(|&a, &b| {
        let speedup = |i: usize| records[i].speedup_vs(&records[reference(i)]);
        speedup(b).total_cmp(&speedup(a))
    });
    // Fastest of three runs each of a point and its reference, taken in
    // turns so that both see the same load.
    let retimed_speedup = |i: usize| {
        let jobs = [
            points[reference(i)].to_job().unwrap(),
            points[i].to_job().unwrap(),
        ];
        let (mut detailed, mut hybrid) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let summaries = run_all(&jobs, 1);
            detailed = detailed.min(summaries[0].host_seconds);
            hybrid = hybrid.min(summaries[1].host_seconds);
        }
        detailed / hybrid
    };
    let winner = within.iter().any(|&i| retimed_speedup(i) >= 1.05);
    assert!(
        winner,
        "no (benchmark, policy) point met the 1.05x / 5% bar on re-timing; frontier:\n{}",
        iss_sim::report::format_comparison_table("hybrid", &records, "detailed")
    );
}
