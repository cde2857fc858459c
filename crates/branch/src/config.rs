//! Branch predictor configuration.

/// Configuration of the complete branch prediction front-end of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// Whether the whole front-end is perfect: every direction and target
    /// is predicted correctly and no table is consulted. The component
    /// isolation experiments of Figure 4 use this ("the branch predictor is
    /// perfect"); otherwise the front-end is the local predictor, BTB and
    /// RAS below.
    pub perfect: bool,
    /// Entries of the local history table (first level) of the local
    /// predictor.
    pub local_history_entries: usize,
    /// Bits of local history per branch (second-level index width).
    pub local_history_bits: u32,
    /// Entries of the 2-bit counter table (the local predictor's second
    /// level).
    pub counter_entries: usize,
    /// Entries in the branch target buffer.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Entries in the return address stack.
    pub ras_entries: usize,
}

impl BranchPredictorConfig {
    /// The paper's baseline front-end (Table 1): a 12 Kbit local predictor
    /// (1K × 10-bit local histories + 1K × 2-bit counters = 12 Kbit), a
    /// 2K-entry 8-way set-associative BTB and a 32-entry RAS.
    #[must_use]
    pub fn hpca2010_baseline() -> Self {
        BranchPredictorConfig {
            perfect: false,
            local_history_entries: 1024,
            local_history_bits: 10,
            counter_entries: 1024,
            btb_entries: 2048,
            btb_ways: 8,
            ras_entries: 32,
        }
    }

    /// A perfect predictor (all directions and targets correct).
    #[must_use]
    pub fn perfect() -> Self {
        BranchPredictorConfig {
            perfect: true,
            ..Self::hpca2010_baseline()
        }
    }

    /// Total predictor storage in bits (direction predictor only), used to
    /// check that the baseline matches the paper's 12 Kbit budget.
    #[must_use]
    pub fn direction_storage_bits(&self) -> usize {
        if self.perfect {
            0
        } else {
            self.local_history_entries * self.local_history_bits as usize + self.counter_entries * 2
        }
    }

    /// Validates structural parameters (power-of-two table sizes and non-zero
    /// resources).
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("local_history_entries", self.local_history_entries),
            ("counter_entries", self.counter_entries),
            ("btb_entries", self.btb_entries),
            ("btb_ways", self.btb_ways),
            ("ras_entries", self.ras_entries),
        ] {
            if v == 0 {
                return Err(format!(
                    "branch predictor parameter `{name}` must be non-zero"
                ));
            }
        }
        if !self.counter_entries.is_power_of_two() {
            return Err("counter_entries must be a power of two".to_string());
        }
        if !self.local_history_entries.is_power_of_two() {
            return Err("local_history_entries must be a power of two".to_string());
        }
        if !self.btb_entries.is_power_of_two() {
            return Err("btb_entries must be a power of two".to_string());
        }
        if !self.btb_entries.is_multiple_of(self.btb_ways) {
            return Err("btb_entries must be divisible by btb_ways".to_string());
        }
        if self.local_history_bits == 0 || self.local_history_bits > 20 {
            return Err("local_history_bits must be in 1..=20".to_string());
        }
        Ok(())
    }
}

impl Default for BranchPredictorConfig {
    fn default() -> Self {
        Self::hpca2010_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_budget() {
        let c = BranchPredictorConfig::hpca2010_baseline();
        c.validate().unwrap();
        assert_eq!(
            c.direction_storage_bits(),
            12 * 1024,
            "local predictor must be 12 Kbit"
        );
        assert_eq!(c.btb_entries, 2048);
        assert_eq!(c.btb_ways, 8);
        assert_eq!(c.ras_entries, 32);
    }

    #[test]
    fn perfect_config_is_valid_and_costs_nothing() {
        let c = BranchPredictorConfig::perfect();
        c.validate().unwrap();
        assert_eq!(c.direction_storage_bits(), 0);
    }

    #[test]
    fn validation_rejects_non_power_of_two() {
        let mut c = BranchPredictorConfig::hpca2010_baseline();
        c.counter_entries = 1000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_btb_geometry() {
        let mut c = BranchPredictorConfig::hpca2010_baseline();
        c.btb_ways = 7;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(
            BranchPredictorConfig::default(),
            BranchPredictorConfig::hpca2010_baseline()
        );
    }
}
