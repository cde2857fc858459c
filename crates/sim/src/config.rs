//! Whole-system configuration.

use iss_branch::BranchPredictorConfig;
use iss_detailed::DetailedCoreConfig;
use iss_interval::IntervalCoreConfig;
use iss_mem::MemoryConfig;

/// Complete configuration of a simulated chip multiprocessor: the analytical
/// core model parameters, the detailed core parameters, the branch predictor
/// and the memory hierarchy. The defaults reproduce Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Interval (analytical) core model parameters.
    pub interval_core: IntervalCoreConfig,
    /// Detailed out-of-order core parameters.
    pub detailed_core: DetailedCoreConfig,
    /// Branch predictor configuration (shared by both core models).
    pub branch: BranchPredictorConfig,
    /// Memory hierarchy configuration (includes the core count).
    pub memory: MemoryConfig,
}

impl SystemConfig {
    /// The paper's Table 1 baseline for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    #[must_use]
    pub fn hpca2010_baseline(num_cores: usize) -> Self {
        SystemConfig {
            interval_core: IntervalCoreConfig::hpca2010_baseline(),
            detailed_core: DetailedCoreConfig::hpca2010_baseline(),
            branch: BranchPredictorConfig::hpca2010_baseline(),
            memory: MemoryConfig::hpca2010_baseline(num_cores),
        }
    }

    /// Number of cores in the configuration.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.memory.num_cores
    }

    /// Figure 8, first design point: dual core, 4 MB L2, external DRAM behind
    /// a 16-byte bus.
    #[must_use]
    pub fn fig8_dual_core_l2() -> Self {
        let mut c = Self::hpca2010_baseline(2);
        c.memory = MemoryConfig::fig8_dual_core_l2();
        c
    }

    /// Figure 8, second design point: quad core, no L2, 3D-stacked DRAM
    /// behind a 128-byte bus.
    #[must_use]
    pub fn fig8_quad_core_3d() -> Self {
        let mut c = Self::hpca2010_baseline(4);
        c.memory = MemoryConfig::fig8_quad_core_3d();
        c
    }

    /// Returns a copy with a different number of cores (keeping everything
    /// else the same).
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    #[must_use]
    pub fn with_cores(mut self, num_cores: usize) -> Self {
        assert!(num_cores > 0, "a system needs at least one core");
        self.memory.num_cores = num_cores;
        self
    }

    /// Validates every component configuration.
    ///
    /// # Errors
    ///
    /// Returns the first validation error encountered.
    pub fn validate(&self) -> Result<(), String> {
        self.interval_core.validate()?;
        self.detailed_core.validate()?;
        self.branch.validate()?;
        self.memory.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates_and_matches_table1() {
        let c = SystemConfig::hpca2010_baseline(8);
        c.validate().unwrap();
        assert_eq!(c.num_cores(), 8);
        assert_eq!(c.interval_core.dispatch_width, 4);
        assert_eq!(c.detailed_core.rob_entries, 256);
        assert_eq!(c.memory.l2.unwrap().size_bytes, 4 * 1024 * 1024);
    }

    #[test]
    fn fig4_variants_isolate_components() {
        let machine = |name: &str| {
            crate::experiments::builtin(name, crate::experiments::ExperimentScale::quick())
                .expect("builtin resolves")
                .templates[0]
                .machine
                .resolve(1)
                .unwrap()
        };
        let a = machine("fig4-dispatch");
        assert!(a.branch.perfect);
        assert!(a.memory.perfect_l1i && a.memory.perfect_l2 && !a.memory.perfect_l1d);

        let b = machine("fig4-icache");
        assert!(b.memory.perfect_l1d && !b.memory.perfect_l1i);

        let c = machine("fig4-branch");
        assert!(!c.branch.perfect);
        assert!(c.memory.perfect_l1i && c.memory.perfect_l1d);

        let d = machine("fig4-l2");
        assert!(d.branch.perfect);
        assert!(d.memory.perfect_l1i && !d.memory.perfect_l1d && !d.memory.perfect_l2);
    }

    #[test]
    fn fig8_design_points() {
        let dual = SystemConfig::fig8_dual_core_l2();
        let quad = SystemConfig::fig8_quad_core_3d();
        assert_eq!(dual.num_cores(), 2);
        assert_eq!(quad.num_cores(), 4);
        assert!(dual.memory.l2.is_some());
        assert!(quad.memory.l2.is_none());
        dual.validate().unwrap();
        quad.validate().unwrap();
    }

    #[test]
    fn with_cores_changes_only_core_count() {
        let c = SystemConfig::hpca2010_baseline(1).with_cores(4);
        assert_eq!(c.num_cores(), 4);
        assert_eq!(c.detailed_core, DetailedCoreConfig::hpca2010_baseline());
    }
}
