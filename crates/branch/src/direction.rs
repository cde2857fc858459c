//! The conditional branch direction predictor: the paper's two-level local
//! predictor. `predict` returns the predicted direction for a PC, `update`
//! trains the tables with the resolved direction. It is a deliberately
//! simple, table-based structure — exactly what the miss-event simulators of
//! the paper model.

use crate::config::BranchPredictorConfig;

/// Two-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    fn weakly_taken() -> Self {
        Counter2(2)
    }

    fn predict(self) -> bool {
        self.0 >= 2
    }

    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Two-level local-history predictor — the paper's 12 Kbit baseline.
///
/// The first level is a table of per-branch history registers indexed by the
/// PC; the second level is a table of 2-bit counters indexed by the local
/// history.
#[derive(Debug, Clone)]
pub struct LocalPredictor {
    histories: Vec<u64>,
    history_mask: u64,
    counters: Vec<Counter2>,
    counter_mask: u64,
    l1_mask: u64,
}

impl LocalPredictor {
    /// Creates a local predictor from the structural parameters of `config`.
    ///
    /// # Panics
    ///
    /// Panics if either table size is not a power of two or the history
    /// width is zero.
    #[must_use]
    pub fn new(config: &BranchPredictorConfig) -> Self {
        let history_entries = config.local_history_entries;
        let counter_entries = config.counter_entries;
        assert!(history_entries.is_power_of_two() && history_entries > 0);
        assert!(counter_entries.is_power_of_two() && counter_entries > 0);
        assert!(config.local_history_bits > 0);
        LocalPredictor {
            histories: vec![0; history_entries],
            history_mask: (1 << config.local_history_bits) - 1,
            counters: vec![Counter2::weakly_taken(); counter_entries],
            counter_mask: counter_entries as u64 - 1,
            l1_mask: history_entries as u64 - 1,
        }
    }

    fn l1_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.l1_mask) as usize
    }

    fn l2_index(&self, history: u64) -> usize {
        (history & self.counter_mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        let history = self.histories[self.l1_index(pc)];
        self.counters[self.l2_index(history)].predict()
    }

    /// Trains the predictor with the architecturally resolved direction.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let l1 = self.l1_index(pc);
        let history = self.histories[l1];
        let l2 = self.l2_index(history);
        self.counters[l2].update(taken);
        self.histories[l1] = ((history << 1) | u64::from(taken)) & self.history_mask;
    }

    /// Predicts, trains with the outcome, and reports whether the prediction
    /// was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let predicted = self.predict(pc);
        self.update(pc, taken);
        predicted == taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(p: &mut LocalPredictor, outcomes: &[(u64, bool)]) -> f64 {
        let mut correct = 0usize;
        for &(pc, taken) in outcomes {
            if p.predict_and_update(pc, taken) {
                correct += 1;
            }
        }
        correct as f64 / outcomes.len() as f64
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter2::weakly_taken();
        assert!(c.predict());
        c.update(false);
        c.update(false);
        c.update(false);
        c.update(false);
        assert!(!c.predict());
        c.update(true);
        c.update(true);
        assert!(c.predict());
    }

    #[test]
    fn local_learns_short_loop_pattern() {
        // Pattern: taken 3 times, not taken once (loop trip count 4). A local
        // predictor with >= 4 history bits learns this perfectly.
        let pattern: Vec<(u64, bool)> = (0..4000).map(|i| (0x8000u64, i % 4 != 3)).collect();
        let mut local = LocalPredictor::new(&BranchPredictorConfig::hpca2010_baseline());
        let acc_local = accuracy(&mut local, &pattern);
        assert!(acc_local > 0.97, "local predictor accuracy {acc_local}");
    }

    #[test]
    fn random_outcomes_are_hard_for_everyone() {
        // A deterministic "pseudo random" pattern with ~50% taken rate and no
        // short-period structure: the predictor should be clearly worse than
        // on biased branches.
        let outcomes: Vec<(u64, bool)> = (0u64..4000)
            .map(|i| {
                let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (0x7000, (x ^ (x >> 31)) & 1 == 1)
            })
            .collect();
        let mut p = LocalPredictor::new(&BranchPredictorConfig::hpca2010_baseline());
        let acc = accuracy(&mut p, &outcomes);
        assert!(
            acc < 0.9,
            "pattern should not be trivially predictable, got {acc}"
        );
    }
}
