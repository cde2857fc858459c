//! Declarative machine descriptions: a named baseline plus structured
//! overrides, resolved into a concrete [`SystemConfig`].
//!
//! A [`MachineSpec`] is the configuration half of a scenario file: instead
//! of hand-constructing a [`SystemConfig`] in Rust, a spec names one of the
//! paper's baselines and flips the knobs the paper's experiments (and any
//! new design-space point) need — perfect-component toggles, core counts,
//! cache/DRAM sizing, core widths, and the interval model's ablation
//! switches. Resolution is a thin layer over the baseline constructors
//! and the component configs' own perfect-structure toggles, so the
//! scenario file is the only place a figure's machine is written down.

use iss_branch::BranchPredictorConfig;

use crate::config::SystemConfig;

/// The named starting points a machine spec can build on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineBaseline {
    /// The paper's Table 1 baseline ([`SystemConfig::hpca2010_baseline`]).
    Hpca2010,
    /// Figure 8 first design point: dual core, 4 MB L2, external DRAM
    /// behind a 16-byte bus ([`SystemConfig::fig8_dual_core_l2`]).
    Fig8DualCoreL2,
    /// Figure 8 second design point: quad core, no L2, 3D-stacked DRAM
    /// behind a 128-byte bus ([`SystemConfig::fig8_quad_core_3d`]).
    Fig8QuadCore3d,
}

impl MachineBaseline {
    /// Stable name used in scenario files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MachineBaseline::Hpca2010 => "hpca2010",
            MachineBaseline::Fig8DualCoreL2 => "fig8-dual-core-l2",
            MachineBaseline::Fig8QuadCore3d => "fig8-quad-core-3d",
        }
    }

    /// Parses a scenario-file baseline name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the known baselines for an unknown name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "hpca2010" => Ok(MachineBaseline::Hpca2010),
            "fig8-dual-core-l2" => Ok(MachineBaseline::Fig8DualCoreL2),
            "fig8-quad-core-3d" => Ok(MachineBaseline::Fig8QuadCore3d),
            other => Err(format!(
                "unknown machine baseline `{other}` (known: hpca2010, \
                 fig8-dual-core-l2, fig8-quad-core-3d)"
            )),
        }
    }
}

/// Structured overrides applied on top of a [`MachineBaseline`]. The
/// default value (`MachineOverrides::default()`) changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MachineOverrides {
    /// Replace the branch predictor with a perfect one (Figure 4 isolation).
    pub perfect_branch: bool,
    /// Treat the instruction side (L1I + I-TLB) as perfect.
    pub perfect_iside: bool,
    /// Treat the data side (L1D + D-TLB + L2) as perfect.
    pub perfect_dside: bool,
    /// Treat the L2 (and everything below it) as perfect while keeping the
    /// L1 data cache real.
    pub perfect_l2: bool,
    /// Remove the shared L2 entirely (the Figure 8 3D-stacking idea applied
    /// to any baseline).
    pub no_l2: bool,
    /// Dispatch width of both core models (interval dispatch width and the
    /// detailed core's decode/dispatch/commit width move together, as in
    /// Table 1).
    pub dispatch_width: Option<u32>,
    /// Instruction window: the interval model's window and old-window sizes
    /// and the detailed core's ROB, moved together (the paper equates them).
    pub window_size: Option<usize>,
    /// DRAM access latency in cycles.
    pub dram_latency: Option<u64>,
    /// Shared L2 capacity in kilobytes (ignored when `no_l2` removes it).
    pub l2_size_kb: Option<u64>,
    /// Model second-order overlap effects in the interval core (`false`
    /// reproduces first-order-only prior work; the ablation knob).
    pub overlap_effects: Option<bool>,
    /// Empty the old window on miss events (`false` removes the
    /// interval-length dependence; the other ablation knob).
    pub old_window_reset: Option<bool>,
}

/// A machine description: baseline, optional explicit core count, and
/// overrides. `cores: None` derives the core count from the workload the
/// scenario runs (which makes core-count mismatches unrepresentable);
/// `cores: Some(n)` pins it, and scenario validation fails loudly when the
/// workload disagrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Named starting configuration.
    pub baseline: MachineBaseline,
    /// Explicit core count; `None` follows the workload.
    pub cores: Option<usize>,
    /// Structured knob overrides.
    pub overrides: MachineOverrides,
}

impl MachineSpec {
    /// The paper's Table 1 baseline with no overrides and a
    /// workload-derived core count.
    #[must_use]
    pub fn hpca2010() -> Self {
        MachineSpec {
            baseline: MachineBaseline::Hpca2010,
            cores: None,
            overrides: MachineOverrides::default(),
        }
    }

    /// Figure 8 dual-core + L2 design point.
    #[must_use]
    pub fn fig8_dual_core_l2() -> Self {
        MachineSpec {
            baseline: MachineBaseline::Fig8DualCoreL2,
            ..Self::hpca2010()
        }
    }

    /// Figure 8 quad-core + 3D-stacked-DRAM design point.
    #[must_use]
    pub fn fig8_quad_core_3d() -> Self {
        MachineSpec {
            baseline: MachineBaseline::Fig8QuadCore3d,
            ..Self::hpca2010()
        }
    }

    /// Returns a copy with an explicit core count.
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = Some(cores);
        self
    }

    /// The core count this machine will resolve to when the workload
    /// occupies `workload_cores` cores.
    #[must_use]
    pub fn resolved_cores(&self, workload_cores: usize) -> usize {
        self.cores.unwrap_or(workload_cores)
    }

    /// Resolves the spec into a concrete [`SystemConfig`] for `cores`
    /// cores, applying the overrides on top of the baseline through the
    /// component configs' own constructors and toggles.
    ///
    /// # Errors
    ///
    /// Returns a message when the core count is zero or the resolved
    /// configuration fails component validation.
    pub fn resolve(&self, cores: usize) -> Result<SystemConfig, String> {
        if cores == 0 {
            return Err("machine core count must be non-zero".to_string());
        }
        let mut c = match self.baseline {
            MachineBaseline::Hpca2010 => SystemConfig::hpca2010_baseline(cores),
            MachineBaseline::Fig8DualCoreL2 => SystemConfig::fig8_dual_core_l2(),
            MachineBaseline::Fig8QuadCore3d => SystemConfig::fig8_quad_core_3d(),
        };
        c.memory.num_cores = cores;
        let o = &self.overrides;
        if o.perfect_branch {
            c.branch = BranchPredictorConfig::perfect();
        }
        if o.perfect_iside {
            c.memory = c.memory.with_perfect_instruction_side();
        }
        if o.perfect_dside {
            c.memory = c.memory.with_perfect_data_side();
        }
        if o.perfect_l2 {
            c.memory = c.memory.with_perfect_l2();
        }
        if o.no_l2 {
            c.memory.l2 = None;
        }
        if let Some(width) = o.dispatch_width {
            c.interval_core.dispatch_width = width;
            c.detailed_core.dispatch_width = width;
        }
        if let Some(window) = o.window_size {
            c.interval_core.window_size = window;
            c.detailed_core.rob_entries = window;
        }
        if let Some(latency) = o.dram_latency {
            c.memory.dram.access_latency = latency;
        }
        if let Some(kb) = o.l2_size_kb {
            match &mut c.memory.l2 {
                Some(l2) => l2.size_bytes = kb * 1024,
                None => {
                    return Err(
                        "l2_size_kb set but the machine has no L2 (baseline without one, \
                         or no_l2 also set)"
                            .to_string(),
                    )
                }
            }
        }
        if let Some(overlap) = o.overlap_effects {
            c.interval_core.model_overlap_effects = overlap;
        }
        if let Some(reset) = o.old_window_reset {
            c.interval_core.empty_old_window_on_miss = reset;
        }
        c.validate().map_err(|e| {
            format!(
                "machine `{}` resolves to an invalid config: {e}",
                self.label()
            )
        })?;
        Ok(c)
    }

    /// Short human-readable label (baseline plus the flipped knobs).
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = self.baseline.name().to_string();
        if let Some(cores) = self.cores {
            s.push_str(&format!("x{cores}"));
        }
        let o = &self.overrides;
        for (on, tag) in [
            (o.perfect_branch, "pbr"),
            (o.perfect_iside, "pis"),
            (o.perfect_dside, "pds"),
            (o.perfect_l2, "pl2"),
            (o.no_l2, "nol2"),
        ] {
            if on {
                s.push('+');
                s.push_str(tag);
            }
        }
        if let Some(w) = o.dispatch_width {
            s.push_str(&format!("+dw{w}"));
        }
        if let Some(w) = o.window_size {
            s.push_str(&format!("+win{w}"));
        }
        if let Some(l) = o.dram_latency {
            s.push_str(&format!("+dram{l}"));
        }
        if let Some(kb) = o.l2_size_kb {
            s.push_str(&format!("+l2s{kb}k"));
        }
        if o.overlap_effects == Some(false) {
            s.push_str("+noovl");
        }
        if o.old_window_reset == Some(false) {
            s.push_str("+norst");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_presets_change_only_their_perfect_toggles() {
        // The accuracy gate's golden numbers depend on the Figure 4 files'
        // machines being the one-core baseline with some components made
        // perfect and nothing else moved.
        let quick = crate::experiments::ExperimentScale::quick();
        let baseline = SystemConfig::hpca2010_baseline(1);
        for name in ["fig4-dispatch", "fig4-icache", "fig4-branch", "fig4-l2"] {
            let mut c = crate::experiments::builtin(name, quick)
                .expect("builtin resolves")
                .templates[0]
                .machine
                .resolve(1)
                .unwrap();
            assert!(
                c.branch == baseline.branch || c.branch == BranchPredictorConfig::perfect(),
                "{name}"
            );
            c.branch = baseline.branch;
            let m = &mut c.memory;
            m.perfect_l1i = false;
            m.perfect_itlb = false;
            m.perfect_l1d = false;
            m.perfect_dtlb = false;
            m.perfect_l2 = false;
            assert_eq!(c, baseline, "{name}");
        }
    }

    #[test]
    fn baselines_resolve_to_the_legacy_configs() {
        assert_eq!(
            MachineSpec::hpca2010().resolve(4).unwrap(),
            SystemConfig::hpca2010_baseline(4)
        );
        assert_eq!(
            MachineSpec::fig8_dual_core_l2().resolve(2).unwrap(),
            SystemConfig::fig8_dual_core_l2()
        );
        assert_eq!(
            MachineSpec::fig8_quad_core_3d().resolve(4).unwrap(),
            SystemConfig::fig8_quad_core_3d()
        );
    }

    #[test]
    fn overrides_change_the_named_knobs() {
        let mut m = MachineSpec::hpca2010();
        m.overrides.no_l2 = true;
        m.overrides.dispatch_width = Some(2);
        m.overrides.dram_latency = Some(80);
        m.overrides.overlap_effects = Some(false);
        let c = m.resolve(4).unwrap();
        assert!(c.memory.l2.is_none());
        assert_eq!(c.interval_core.dispatch_width, 2);
        assert_eq!(c.detailed_core.dispatch_width, 2);
        assert_eq!(c.memory.dram.access_latency, 80);
        assert!(!c.interval_core.model_overlap_effects);
        assert_eq!(c.num_cores(), 4);
    }

    #[test]
    fn l2_sizing_without_an_l2_is_a_loud_error() {
        let mut m = MachineSpec::fig8_quad_core_3d();
        m.overrides.l2_size_kb = Some(2048);
        let e = m.resolve(4).unwrap_err();
        assert!(e.contains("no L2"), "got: {e}");
    }

    #[test]
    fn zero_cores_is_an_error_not_a_panic() {
        assert!(MachineSpec::hpca2010().resolve(0).is_err());
    }

    #[test]
    fn baseline_names_round_trip() {
        for b in [
            MachineBaseline::Hpca2010,
            MachineBaseline::Fig8DualCoreL2,
            MachineBaseline::Fig8QuadCore3d,
        ] {
            assert_eq!(MachineBaseline::parse(b.name()).unwrap(), b);
        }
        assert!(MachineBaseline::parse("pentium").is_err());
    }

    #[test]
    fn labels_surface_the_flipped_knobs() {
        let mut m = MachineSpec::hpca2010().with_cores(4);
        m.overrides.no_l2 = true;
        let label = m.label();
        assert!(label.contains("hpca2010"), "got: {label}");
        assert!(label.contains("x4"), "got: {label}");
        assert!(label.contains("nol2"), "got: {label}");
        assert_eq!(MachineSpec::hpca2010().label(), "hpca2010");
    }
}
