//! Interval core-model configuration.

/// Parameters of the analytical core model. They mirror the core parameters
/// of Table 1 of the paper; only the handful of parameters the interval model
/// actually consumes are present (that is the point of raising the level of
/// abstraction — the issue queue, LSQ and functional-unit counts of the
/// detailed model are not needed).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct IntervalCoreConfig {
    /// Designed dispatch width (instructions entering the ROB per cycle).
    pub dispatch_width: u32,
    /// Reorder-buffer size; also the size of the look-ahead window used for
    /// finding overlapped miss events, the `W` of Little's law, and, as in
    /// the paper, the capacity of the old window (the data-flow model over
    /// recently dispatched instructions).
    pub window_size: usize,
    /// Front-end pipeline depth in stages (part of the branch misprediction
    /// penalty).
    pub frontend_pipeline_depth: u64,
    /// Model second-order overlap effects (miss events hidden underneath
    /// long-latency loads). Disabling this reproduces the "first-order only"
    /// behaviour of prior interval-analysis work and is used by the ablation
    /// experiments.
    pub model_overlap_effects: bool,
    /// Model the interval-length dependence by emptying the old window on
    /// every miss event (Section 3.2). Disabling it is an ablation knob.
    pub empty_old_window_on_miss: bool,
}

impl IntervalCoreConfig {
    /// The paper's baseline core (Table 1): 4-wide dispatch, 256-entry ROB,
    /// 7-stage front-end.
    #[must_use]
    pub fn hpca2010_baseline() -> Self {
        IntervalCoreConfig {
            dispatch_width: 4,
            window_size: 256,
            frontend_pipeline_depth: 7,
            model_overlap_effects: true,
            empty_old_window_on_miss: true,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.dispatch_width == 0 {
            return Err("dispatch_width must be non-zero".to_string());
        }
        if self.window_size == 0 {
            return Err("window_size must be non-zero".to_string());
        }
        if self.frontend_pipeline_depth == 0 {
            return Err("frontend_pipeline_depth must be non-zero".to_string());
        }
        Ok(())
    }
}

/// Written by hand only to keep printing the old window's capacity, which
/// is `window_size`: a run's point digest hashes this text, so records and
/// result stores keep their keys.
impl std::fmt::Debug for IntervalCoreConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntervalCoreConfig")
            .field("dispatch_width", &self.dispatch_width)
            .field("window_size", &self.window_size)
            .field("frontend_pipeline_depth", &self.frontend_pipeline_depth)
            .field("old_window_size", &self.window_size)
            .field("model_overlap_effects", &self.model_overlap_effects)
            .field("empty_old_window_on_miss", &self.empty_old_window_on_miss)
            .finish()
    }
}

impl Default for IntervalCoreConfig {
    fn default() -> Self {
        Self::hpca2010_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = IntervalCoreConfig::hpca2010_baseline();
        c.validate().unwrap();
        assert_eq!(c.dispatch_width, 4);
        assert_eq!(c.window_size, 256);
        assert_eq!(c.frontend_pipeline_depth, 7);
    }

    #[test]
    fn zero_fields_rejected() {
        let mut c = IntervalCoreConfig::hpca2010_baseline();
        c.dispatch_width = 0;
        assert!(c.validate().is_err());
        let mut c = IntervalCoreConfig::hpca2010_baseline();
        c.window_size = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn debug_text_is_the_digest_input_of_every_earlier_record() {
        assert_eq!(
            format!("{:?}", IntervalCoreConfig::hpca2010_baseline()),
            "IntervalCoreConfig { dispatch_width: 4, window_size: 256, \
             frontend_pipeline_depth: 7, old_window_size: 256, \
             model_overlap_effects: true, empty_old_window_on_miss: true }"
        );
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(
            IntervalCoreConfig::default(),
            IntervalCoreConfig::hpca2010_baseline()
        );
    }
}
