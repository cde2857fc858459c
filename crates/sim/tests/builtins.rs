//! The built-in sweeps are their checked-in scenario files: at quick scale
//! a builtin renders back to its file byte for byte, and at every scale its
//! scale-dependent values are the ones the default frontier helpers (which
//! other harnesses call directly) compute.

use std::path::PathBuf;

use iss_sim::experiments::{
    builtin, default_hybrid_policies, default_sampling_specs, sampling_length, ExperimentScale,
    BUILTINS,
};
use iss_sim::runner::CoreModel;
use iss_sim::WorkloadSpec;

fn scenario_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(format!("{name}.toml"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The four scales `ISS_EXPERIMENT_SCALE` selects in practice: the two
/// keywords, and one number on each side of the quick SPEC budget.
fn scales() -> Vec<ExperimentScale> {
    let number = |n: u64| ExperimentScale {
        spec_length: n,
        parsec_length: n * 2,
        seed: 42,
    };
    vec![
        ExperimentScale::quick(),
        ExperimentScale::full(),
        number(3_000),
        number(30_000),
    ]
}

#[test]
fn quick_builtins_render_to_their_checked_in_files() {
    assert_eq!(BUILTINS.len(), 13);
    for (name, _, embedded) in BUILTINS {
        let file = scenario_file(name);
        assert_eq!(embedded, file, "`{name}` embeds a stale copy of its file");
        let sweep = builtin(name, ExperimentScale::quick()).expect("builtin resolves");
        assert_eq!(
            sweep.to_toml(),
            file,
            "`iss export {name}` at quick scale must reproduce examples/scenarios/{name}.toml"
        );
    }
}

#[test]
fn frontier_builtins_scale_like_the_default_helpers() {
    for scale in scales() {
        let hybrid = builtin("hybrid", scale).unwrap();
        let expected: Vec<CoreModel> = std::iter::once(CoreModel::Detailed)
            .chain(
                default_hybrid_policies(scale)
                    .into_iter()
                    .map(CoreModel::Hybrid),
            )
            .collect();
        assert_eq!(hybrid.models, expected, "hybrid models at {scale:?}");

        let sampling = builtin("sampling", scale).unwrap();
        let expected: Vec<CoreModel> = [CoreModel::Detailed, CoreModel::Interval]
            .into_iter()
            .chain(
                default_sampling_specs(scale)
                    .into_iter()
                    .map(CoreModel::Sampled),
            )
            .collect();
        assert_eq!(sampling.models, expected, "sampling models at {scale:?}");
        assert!(
            matches!(sampling.templates[0].workload, WorkloadSpec::Single { length, .. }
                if length == sampling_length(scale)),
            "sampling length at {scale:?}"
        );

        let fig8 = builtin("fig8", scale).unwrap();
        assert_eq!(fig8.templates.len(), 2);
        for template in &fig8.templates {
            assert!(
                matches!(template.workload, WorkloadSpec::Multithreaded { total_length, .. }
                    if total_length == scale.parsec_length),
                "fig8 length at {scale:?}"
            );
            assert_eq!(template.seed, scale.seed);
        }
    }
}

#[test]
fn numeric_scales_export_what_earlier_releases_exported() {
    // `ISS_EXPERIMENT_SCALE=3000`: the quantum floors at 500 and the
    // sampled units stay at their quick size.
    let small = scales()[2];
    let hybrid = builtin("hybrid", small).unwrap().to_toml();
    assert!(hybrid.contains("\"hybrid-periodic-4@500\""), "{hybrid}");
    let sampling = builtin("sampling", small).unwrap().to_toml();
    assert!(
        sampling.contains("\"sampled-detailed-1in28@350w60p6\""),
        "{sampling}"
    );
    assert!(sampling.contains("length = 15000"), "{sampling}");
    // `ISS_EXPERIMENT_SCALE=30000`.
    let large = scales()[3];
    let hybrid = builtin("hybrid", large).unwrap().to_toml();
    assert!(hybrid.contains("\"hybrid-periodic-4@3000\""), "{hybrid}");
    assert!(hybrid.contains("length = 30000"), "{hybrid}");
    let sampling = builtin("sampling", large).unwrap().to_toml();
    assert!(sampling.contains("length = 150000"), "{sampling}");
}
