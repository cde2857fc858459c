//! Conservation invariants: every base model, a hybrid run and a sampled run
//! each retire exactly the workload's instructions, and no core of a base
//! model commits faster than its dispatch width allows. Monotonicity: a
//! perfect branch front-end, instruction side, data side or L2 never makes
//! a run slower.

use proptest::prelude::*;

use iss_sim::experiments::ExperimentScale;
use iss_sim::model::{AnyMachine, CpuModel};
use iss_sim::runner::{run, BaseModel, CoreModel};
use iss_sim::scenario::MachineOverrides;
use iss_sim::{HybridSpec, MachineSpec, SamplingSpec, SystemConfig, WorkloadSpec};

const MODELS: [BaseModel; 3] = [BaseModel::Interval, BaseModel::Detailed, BaseModel::OneIpc];

/// Runs that cross models and functional warming through checkpoints: a
/// phase-driven hybrid whose quantum is below the shortest case, and a
/// sampled run with an exact prefix, warmed units and measured units.
fn checkpointed_models() -> [CoreModel; 2] {
    [
        CoreModel::Hybrid(HybridSpec::phase_cpi(200, 250)),
        CoreModel::Sampled(SamplingSpec::new(BaseModel::Detailed, 200, 3, 50, 1)),
    ]
}

/// Instructions a core of `kind` can retire per cycle at most.
fn dispatch_width(kind: BaseModel, config: &SystemConfig) -> u64 {
    match kind {
        BaseModel::Interval => u64::from(config.interval_core.dispatch_width),
        BaseModel::Detailed => u64::from(config.detailed_core.dispatch_width),
        BaseModel::OneIpc => 1,
    }
}

/// Runs `spec` to completion under every model and checks that it retires
/// exactly `expected` instructions, that each core's cycles are at least its
/// instructions divided by the dispatch width, and that the interval model's
/// penalty accounting is internally consistent. The hybrid and sampled runs
/// are checked for conservation only: sampled per-core cycles are
/// extrapolated, not counted.
fn check_conservation(spec: &WorkloadSpec, seed: u64, expected: u64, perfect_memory: bool) {
    let mut config = SystemConfig::hpca2010_baseline(spec.num_cores());
    if perfect_memory {
        config.memory = config
            .memory
            .with_perfect_instruction_side()
            .with_perfect_data_side();
    }
    for kind in MODELS {
        let mut machine = AnyMachine::build(kind, &config, spec.build(seed).unwrap());
        machine.run_to_completion();
        assert_eq!(machine.retired_instructions(), expected, "{}", kind.name());
        let summary = machine.summary(kind.into(), spec.label());
        assert_eq!(summary.total_instructions, expected, "{}", kind.name());
        assert_eq!(
            summary.per_core.iter().map(|c| c.instructions).sum::<u64>(),
            expected
        );
        let width = dispatch_width(kind, &config);
        for core in &summary.per_core {
            assert!(
                core.cycles > 0,
                "{}: core {} reports no cycles",
                kind.name(),
                core.core
            );
            assert!(
                core.cycles * width >= core.instructions,
                "{}: core {} retired {} instructions in {} cycles at width {width}",
                kind.name(),
                core.core,
                core.instructions,
                core.cycles
            );
        }
        if let AnyMachine::Interval(sim) = &machine {
            for core in sim.result().per_core {
                let s = core.stats;
                assert!(s.total_penalty() <= s.cycles);
                assert!(s.bandwidth_residual_penalty <= s.long_latency_penalty);
            }
        }
    }
    for model in checkpointed_models() {
        let summary = run(model, &config, spec, seed);
        assert_eq!(summary.total_instructions, expected, "{}", model.name());
        assert_eq!(
            summary.per_core.iter().map(|c| c.instructions).sum::<u64>(),
            expected,
            "{}",
            model.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One program on one core with the real memory hierarchy: every model
    /// conserves instructions for any benchmark, seed and length.
    #[test]
    fn every_model_conserves_instructions(
        bench in prop_oneof![Just("gcc"), Just("mcf"), Just("gzip"), Just("swim")],
        seed in 0u64..10_000,
        len in 500u64..4_000,
    ) {
        check_conservation(&WorkloadSpec::single(bench, len), seed, len, false);
    }
}

proptest! {
    // Each case runs all three models on two cores, so this property draws
    // fewer cases than the single-core one.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two copies of a program or two PARSEC threads: every model conserves
    /// instructions on each core. Half the cases make both memory sides
    /// perfect, where cores run close to the dispatch-width bound.
    #[test]
    fn every_model_conserves_instructions_on_two_cores(
        threaded in any::<bool>(),
        spec_bench in prop_oneof![Just("gcc"), Just("mcf"), Just("gzip"), Just("swim")],
        parsec_bench in prop_oneof![Just("blackscholes"), Just("fluidanimate"), Just("streamcluster")],
        perfect_memory in any::<bool>(),
        seed in 0u64..10_000,
        len in 500u64..4_000,
    ) {
        let spec = if threaded {
            WorkloadSpec::multithreaded(parsec_bench, 2, 2 * len)
        } else {
            WorkloadSpec::homogeneous(spec_bench, 2, len)
        };
        check_conservation(&spec, seed, 2 * len, perfect_memory);
    }
}

/// Removing one class of miss events removes penalties and adds none: on
/// each quick-scale SPEC program, the interval and the detailed model take
/// no more cycles with the structure that `perfect` makes perfect than on
/// the baseline machine.
fn assert_perfect_is_never_slower(structure: &str, perfect: fn(&mut MachineOverrides)) {
    let scale = ExperimentScale::quick();
    let baseline = MachineSpec::hpca2010().resolve(1).unwrap();
    let mut spec = MachineSpec::hpca2010();
    perfect(&mut spec.overrides);
    let ideal_machine = spec.resolve(1).unwrap();
    for bench in ["gcc", "gzip", "mcf", "twolf", "swim", "mesa"] {
        let workload = WorkloadSpec::single(bench, scale.spec_length);
        for kind in [BaseModel::Interval, BaseModel::Detailed] {
            let cycles =
                |config: &SystemConfig| run(kind.into(), config, &workload, scale.seed).cycles;
            let (real, ideal) = (cycles(&baseline), cycles(&ideal_machine));
            assert!(
                ideal <= real,
                "{bench} {}: {ideal} cycles with a perfect {structure}, {real} without",
                kind.name()
            );
        }
    }
}

#[test]
fn perfect_branch_prediction_is_never_slower() {
    assert_perfect_is_never_slower("front-end", |o| o.perfect_branch = true);
}

/// The rest of the Figure 4 isolations: a perfect instruction side, data
/// side or L2 never costs cycles either.
#[test]
fn perfect_memory_structures_are_never_slower() {
    assert_perfect_is_never_slower("instruction side", |o| o.perfect_iside = true);
    assert_perfect_is_never_slower("data side", |o| o.perfect_dside = true);
    assert_perfect_is_never_slower("L2", |o| o.perfect_l2 = true);
}
