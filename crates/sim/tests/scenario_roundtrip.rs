//! Round-trip tests for the full spec surface.
//!
//! The workspace links no serialization framework, so the text codec in
//! `iss_sim::scenario` *is* the serialization layer for everything a
//! checked-in scenario file can express: machine specs (and through them
//! `SystemConfig`), workload specs, model strings (`CoreModel`,
//! `HybridSpec`, `SamplingSpec`) and whole `SweepSpec`s. These tests pin
//! `parse(render(x)) == x` across that surface so spec files cannot
//! silently drift from the Rust types.

use iss_sim::experiments::{builtin, ExperimentScale};
use iss_sim::hybrid::HybridSpec;
use iss_sim::runner::{BaseModel, CoreModel};
use iss_sim::sampling::SamplingSpec;
use iss_sim::scenario::{parse_model, MachineOverrides, MachineSpec, ScenarioSpec, SweepSpec};
use iss_sim::workload::WorkloadSpec;

/// A grid of machine specs spanning every baseline and every override
/// knob (individually and in combinations the figures use).
fn machine_grid() -> Vec<MachineSpec> {
    let mut grid = vec![
        MachineSpec::hpca2010(),
        MachineSpec::fig8_dual_core_l2(),
        MachineSpec::fig8_quad_core_3d(),
        MachineSpec::hpca2010().with_cores(8),
    ];
    // The Figure 4 component-isolation machines.
    for name in ["fig4-dispatch", "fig4-icache", "fig4-branch", "fig4-l2"] {
        let sweep = builtin(name, ExperimentScale::quick()).expect("builtin resolves");
        grid.push(sweep.templates[0].machine);
    }
    let knobs: Vec<MachineOverrides> = vec![
        MachineOverrides {
            no_l2: true,
            ..Default::default()
        },
        MachineOverrides {
            dispatch_width: Some(2),
            window_size: Some(128),
            ..Default::default()
        },
        MachineOverrides {
            dram_latency: Some(80),
            l2_size_kb: Some(2048),
            ..Default::default()
        },
        MachineOverrides {
            overlap_effects: Some(false),
            old_window_reset: Some(false),
            ..Default::default()
        },
        MachineOverrides {
            perfect_branch: true,
            perfect_iside: true,
            perfect_dside: true,
            perfect_l2: true,
            ..Default::default()
        },
    ];
    for overrides in knobs {
        let mut m = MachineSpec::hpca2010();
        m.overrides = overrides;
        grid.push(m);
    }
    grid
}

fn workload_grid() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::single("gcc", 20_000),
        WorkloadSpec::homogeneous("mcf", 4, 10_000),
        WorkloadSpec::Multiprogram {
            benchmarks: vec!["gcc".into(), "mcf".into(), "swim".into()],
            length_per_copy: 5_000,
        },
        WorkloadSpec::multithreaded("vips", 8, 40_000),
    ]
}

fn model_grid() -> Vec<CoreModel> {
    vec![
        CoreModel::Interval,
        CoreModel::Detailed,
        CoreModel::OneIpc,
        CoreModel::Hybrid(HybridSpec::always(BaseModel::Interval, 2_000)),
        CoreModel::Hybrid(HybridSpec::always(BaseModel::OneIpc, 777)),
        CoreModel::Hybrid(HybridSpec::periodic(4, 2_000)),
        CoreModel::Hybrid(HybridSpec::phase_cpi(200, 1_500)),
        CoreModel::Sampled(SamplingSpec::new(BaseModel::Detailed, 350, 28, 60, 6)),
        CoreModel::Sampled(SamplingSpec::new(BaseModel::Interval, 500, 12, 100, 4)),
        CoreModel::Sampled(SamplingSpec::new(BaseModel::OneIpc, 1_000, 1, 0, 0)),
    ]
}

/// A sweep built from one (machine, workload, model) template round-trips
/// through the TOML codec field for field — including the resolved
/// `SystemConfig`, which must come out bit-identical.
#[test]
fn every_template_combination_round_trips_through_toml() {
    for machine in machine_grid() {
        for workload in workload_grid() {
            for model in model_grid() {
                let mut base = ScenarioSpec::new(workload.clone(), 7);
                base.machine = machine;
                base.model = model;
                let mut sweep = SweepSpec::new("roundtrip", base);
                sweep.templates[0].model = model;
                let rendered = sweep.to_toml();
                let reparsed = SweepSpec::from_toml(&rendered)
                    .unwrap_or_else(|e| panic!("reparse failed for:\n{rendered}\nerror: {e}"));
                assert_eq!(sweep, reparsed, "drift through:\n{rendered}");
                // The machine half must resolve to the same concrete
                // config on both sides (this is the `SystemConfig`
                // round-trip: specs are its serialized form).
                let cores = machine.resolved_cores(workload.num_cores());
                assert_eq!(
                    machine.resolve(cores).ok(),
                    reparsed.templates[0].machine.resolve(cores).ok(),
                    "resolved config drifted through:\n{rendered}"
                );
            }
        }
    }
}

/// Model strings (the `CoreModel` serialization) invert `name()` exactly,
/// including every hybrid policy and sampling shape.
#[test]
fn model_strings_round_trip_for_the_whole_grid() {
    for model in model_grid() {
        let name = model.name();
        assert_eq!(
            parse_model(&name).unwrap(),
            model,
            "model string `{name}` did not round-trip"
        );
    }
}

/// Sweeps with every axis populated round-trip, and expansion of the
/// reparsed sweep produces the same scenarios in the same order.
#[test]
fn sweeps_with_all_axes_round_trip_and_re_expand_identically() {
    let mut base = ScenarioSpec::new(WorkloadSpec::homogeneous("gcc", 1, 4_000), 42);
    base.machine = MachineSpec::hpca2010();
    let mut sweep = SweepSpec::new("axes", base);
    sweep.benchmarks = vec!["gcc".into(), "mcf".into()];
    sweep.cores = vec![1, 2, 4];
    sweep.seeds = vec![42, 43];
    sweep.models = vec![CoreModel::Detailed, CoreModel::Interval];

    let reparsed = SweepSpec::from_toml(&sweep.to_toml()).unwrap();
    assert_eq!(sweep, reparsed);
    let a = sweep.expand().unwrap();
    let b = reparsed.expand().unwrap();
    assert_eq!(a, b);
    assert_eq!(a.len(), 2 * 3 * 2 * 2);
}

/// Multi-template sweeps (the ablation/fig8 shape) round-trip with their
/// variant labels and per-template machines intact.
#[test]
fn multi_template_sweeps_round_trip() {
    let mut base = ScenarioSpec::new(WorkloadSpec::single("mcf", 8_000), 42);
    base.model = CoreModel::Detailed;
    let mut sweep = SweepSpec::new("variants", base.clone());
    sweep.templates[0].variant = Some("reference".into());
    let mut degraded = iss_sim::scenario::Template::from_scenario(&base);
    degraded.variant = Some("no-overlap".into());
    degraded.model = CoreModel::Interval;
    degraded.machine.overrides.overlap_effects = Some(false);
    sweep.templates.push(degraded);
    sweep.benchmarks = vec!["mcf".into(), "twolf".into()];

    let reparsed = SweepSpec::from_toml(&sweep.to_toml()).unwrap();
    assert_eq!(sweep, reparsed);
    let points = reparsed.expand().unwrap();
    assert_eq!(points.len(), 4);
    assert_eq!(points[0].variant, "reference");
    assert_eq!(points[1].variant, "no-overlap");
    assert!(
        !points[1]
            .resolved_config()
            .unwrap()
            .interval_core
            .model_overlap_effects
    );
}

/// The workload validation layer keeps its precise error messages through
/// the codec: a file describing a defective workload fails at expansion
/// with the same message direct construction gives.
#[test]
fn spec_level_defects_surface_identically_from_files() {
    let text = r#"
        schema = "iss-scenario/v1"
        name = "bad"
        [machine]
        cores = 4
        [workload]
        kind = "single"
        benchmark = "gcc"
        length = 1000
    "#;
    let sweep = SweepSpec::from_toml(text).unwrap();
    let e = sweep.expand().unwrap_err();
    assert!(
        e.contains("occupies 1 core(s) but the machine pins 4"),
        "core-count mismatch must fail at spec load, got: {e}"
    );
}
