//! # iss-bench — the `iss` scenario CLI, CI gates and benchmarks
//!
//! The `iss` binary is the front door: `iss run <spec-or-figure>` executes
//! any scenario file or built-in figure sweep through the generic scenario
//! engine, `iss validate` checks spec files without simulating, `iss list`
//! names what is available. The built-in sweeps are the checked-in files
//! under `examples/scenarios/` (see [`iss_sim::experiments::builtin`]);
//! `table1` prints the Table 1 configuration. The gate binaries
//! (`accuracy_gate`, `perf`, `perf_gate`) pin accuracy and speed in CI
//! ([`gates`]); `perf` times the batch kernels of [`kernels`]. `iss lint`
//! runs the static spec checks of [`spec_lint`].
//!
//! The instruction budget of the built-in sweeps is controlled by the
//! `ISS_EXPERIMENT_SCALE` environment variable: `quick` (default for CI
//! smoke runs), `full` (the paper-style runs), or a number of instructions
//! per benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gates;
pub mod kernels;
pub mod spec_lint;

// The scale knob lives in the shared `iss_sim::env` table; re-exported here
// so every bench binary (and downstream user) reaches it through one path
// with one loud-failure contract.
pub use iss_sim::env::EXPERIMENT_SCALE;

/// The SPEC benchmarks the gates measure (one representative per behaviour
/// class; the same set the built-in sweeps use).
pub const SPEC_QUICK: [&str; 6] = ["gcc", "gzip", "mcf", "twolf", "swim", "mesa"];

/// The PARSEC benchmarks of the built-in multithreaded sweeps.
pub const PARSEC_QUICK: [&str; 4] = ["blackscholes", "canneal", "fluidanimate", "vips"];

#[cfg(test)]
mod tests {
    use super::*;
    use iss_sim::experiments::ExperimentScale;

    #[test]
    fn env_scale_parses_known_values() {
        // The environment is not modified here (tests may run concurrently);
        // only the default path is exercised.
        let s = EXPERIMENT_SCALE.get();
        assert!(s.spec_length > 0 && s.parsec_length > 0);
    }

    #[test]
    fn re_exported_scale_parser_is_the_shared_one() {
        assert_eq!(
            EXPERIMENT_SCALE.parse(Some("quick".as_ref())).unwrap(),
            ExperimentScale::quick()
        );
        assert!(EXPERIMENT_SCALE.parse(Some("ful".as_ref())).is_err());
    }

    #[test]
    fn quick_subsets_exist_in_catalog() {
        for b in SPEC_QUICK {
            assert!(iss_trace::catalog::spec_profile(b).is_some(), "{b} missing");
        }
        for b in PARSEC_QUICK {
            assert!(
                iss_trace::catalog::parsec_profile(b).is_some(),
                "{b} missing"
            );
        }
    }
}
