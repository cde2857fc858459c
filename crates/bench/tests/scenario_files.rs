//! The checked-in scenario files under `examples/scenarios/` are the
//! public face of the experiment harness (the built-in figure sweeps are
//! these files); these tests pin that every file parses and expands.

use std::path::PathBuf;

use iss_sim::runner::CoreModel;
use iss_sim::SweepSpec;

fn scenario_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
}

fn read_sweep(file: &str) -> SweepSpec {
    let path = scenario_dir().join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    SweepSpec::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every file in the directory — the built-in figures and the other
/// scenarios — parses, expands and validates.
#[test]
fn every_checked_in_file_parses_and_expands() {
    let dir = scenario_dir();
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/scenarios exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let sweep =
            SweepSpec::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let points = sweep
            .expand()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!points.is_empty(), "{} expands to nothing", path.display());
        checked += 1;
    }
    // The 12 built-in figures plus the heterogeneous showcase and the
    // serve smoke scenario.
    assert!(checked >= 14, "only {checked} scenario files found");
}

/// The showcase scenario — a shape no legacy driver could express — stays
/// what its comments claim: a heterogeneous multiprogram mix on a
/// quad-core machine without an L2, under the sampled model.
#[test]
fn hetero_showcase_scenario_keeps_its_novel_shape() {
    let sweep = read_sweep("hetero-quad-no-l2-sampled.toml");
    let points = sweep.expand().unwrap();
    assert_eq!(points.len(), 3, "detailed + interval references + sampled");
    let sampled = points
        .iter()
        .find(|p| matches!(p.model, CoreModel::Sampled(_)))
        .expect("a sampled point");
    assert_eq!(sampled.resolved_cores(), 4);
    assert_eq!(sampled.workload.num_cores(), 4);
    let config = sampled.resolved_config().unwrap();
    assert!(config.memory.l2.is_none(), "the L2 must be removed");
    assert!(
        matches!(&sampled.workload, iss_sim::WorkloadSpec::Multiprogram { benchmarks, .. }
            if benchmarks.len() == 4),
        "one distinct benchmark per core"
    );
}
