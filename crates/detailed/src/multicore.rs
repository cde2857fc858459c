//! The detailed and one-IPC multi-core simulators: the shared
//! [`Multicore`] machine of `iss-interval` over this crate's cores. All
//! cores advance in lock-step over a shared memory hierarchy and a shared
//! synchronization controller, which is what produces the
//! resource-contention and thread-interleaving behaviour the paper's
//! multi-core experiments measure.

use iss_interval::Multicore;

use crate::oneipc::OneIpcCore;
use crate::oo_core::OutOfOrderCore;

/// Cycle-accurate multi-core simulator (the paper's baseline).
pub type DetailedSimulator<S> = Multicore<OutOfOrderCore<S>>;

/// Multi-core simulator of the one-IPC model. It has no core configuration
/// (pass `&()`) and ignores the branch-predictor configuration.
pub type OneIpcSimulator<S> = Multicore<OneIpcCore<S>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetailedCoreConfig;
    use iss_branch::BranchPredictorConfig;
    use iss_mem::MemoryConfig;
    use iss_trace::{catalog, ThreadedWorkload};

    #[test]
    fn detailed_single_core_completes() {
        let p = catalog::spec_profile("gzip").unwrap();
        let w = ThreadedWorkload::single(&p, 1, 5_000);
        let mut sim = DetailedSimulator::from_workload(
            &DetailedCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1),
            w,
        );
        let r = sim.run();
        assert_eq!(r.total_instructions, 5_000);
        assert!(r.per_core[0].ipc() > 0.1 && r.per_core[0].ipc() <= 4.0);
    }

    #[test]
    fn detailed_multithreaded_finishes_with_synchronization() {
        let p = catalog::parsec_profile("streamcluster").unwrap();
        let w = ThreadedWorkload::multithreaded(&p, 2, 3, 30_000);
        let mut sim = DetailedSimulator::from_workload(
            &DetailedCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(2),
            w,
        );
        let r = sim.run_with_limit(50_000_000);
        assert_eq!(r.total_instructions, 30_000);
        assert_eq!(r.per_core.len(), 2);
    }

    #[test]
    fn one_ipc_is_never_faster_than_one() {
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::single(&p, 1, 5_000);
        let mut sim = OneIpcSimulator::from_workload(
            &(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1),
            w,
        );
        let r = sim.run();
        assert!(r.per_core[0].ipc() <= 1.0 + 1e-9);
        assert_eq!(r.total_instructions, 5_000);
    }

    #[test]
    fn detailed_beats_one_ipc_on_high_ilp_code() {
        let p = catalog::spec_profile("mesa").unwrap();
        let detailed = {
            let w = ThreadedWorkload::single(&p, 1, 5_000);
            DetailedSimulator::from_workload(
                &DetailedCoreConfig::hpca2010_baseline(),
                &BranchPredictorConfig::hpca2010_baseline(),
                &MemoryConfig::hpca2010_baseline(1),
                w,
            )
            .run()
        };
        let one_ipc = {
            let w = ThreadedWorkload::single(&p, 1, 5_000);
            OneIpcSimulator::from_workload(
                &(),
                &BranchPredictorConfig::hpca2010_baseline(),
                &MemoryConfig::hpca2010_baseline(1),
                w,
            )
            .run()
        };
        assert!(
            detailed.per_core[0].ipc() > one_ipc.per_core[0].ipc(),
            "a 4-wide out-of-order core must outperform the one-IPC model on ILP-rich code"
        );
    }

    #[test]
    #[should_panic(expected = "one instruction stream per core")]
    fn mismatched_streams_panic() {
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::single(&p, 1, 100);
        let _ = DetailedSimulator::from_workload(
            &DetailedCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(2),
            w,
        );
    }
}
