//! Property-based tests for the branch prediction structures.

use proptest::prelude::*;

use iss_branch::{
    BimodalPredictor, BranchPredictorConfig, BranchTargetBuffer, BranchUnit, DirectionPredictor,
    GsharePredictor, LocalPredictor, ReturnAddressStack,
};
use iss_trace::{BranchClass, BranchInfo};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The RAS depth never exceeds its capacity and pops always return the
    /// most recent unpopped push (for sequences that never overflow).
    #[test]
    fn ras_is_a_bounded_stack(ops in proptest::collection::vec(proptest::option::of(0u64..1_000_000), 1..100)) {
        let mut ras = ReturnAddressStack::new(32);
        let mut model: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Some(addr) => {
                    ras.push(addr);
                    model.push(addr);
                    if model.len() > 32 {
                        model.remove(0);
                    }
                }
                None => {
                    let expected = model.pop();
                    prop_assert_eq!(ras.pop(), expected);
                }
            }
            prop_assert!(ras.depth() <= 32);
            prop_assert_eq!(ras.depth(), model.len());
        }
    }

    /// The BTB always returns the most recently installed target for a PC.
    #[test]
    fn btb_returns_last_installed_target(
        updates in proptest::collection::vec((0u64..512, 0u64..1_000_000), 1..200),
    ) {
        let mut btb = BranchTargetBuffer::new(2048, 8);
        let mut last = std::collections::BTreeMap::new();
        for &(slot, target) in &updates {
            let pc = 0x1000 + slot * 4;
            btb.update(pc, target);
            last.insert(pc, target);
            // With 2048 entries and at most 512 distinct PCs there is no
            // capacity eviction, so every installed PC must still be present.
            prop_assert_eq!(btb.probe(pc), Some(target));
        }
        for (pc, target) in last {
            prop_assert_eq!(btb.probe(pc), Some(target));
        }
    }

    /// Every direction predictor learns a fully biased branch to high
    /// accuracy, for any PC and either polarity.
    #[test]
    fn predictors_learn_constant_branches(pc in 0u64..0xffff_0000u64, taken in any::<bool>()) {
        let cfg = BranchPredictorConfig::hpca2010_baseline();
        let mut predictors: Vec<Box<dyn DirectionPredictor>> = vec![
            Box::new(BimodalPredictor::new(1024)),
            Box::new(GsharePredictor::new(4096, 12)),
            Box::new(LocalPredictor::new(&cfg)),
        ];
        for p in &mut predictors {
            let mut correct = 0;
            for _ in 0..200 {
                if p.predict_and_update(pc, taken) {
                    correct += 1;
                }
            }
            prop_assert!(correct >= 190, "a constant branch must be learned (got {correct}/200)");
        }
    }

    /// The complete branch unit never reports a misprediction for the perfect
    /// configuration and its statistics always add up.
    #[test]
    fn branch_unit_statistics_are_consistent(
        branches in proptest::collection::vec((0u64..256, any::<bool>(), 0u64..4), 1..300),
    ) {
        let mut real = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
        let mut perfect = BranchUnit::new(&BranchPredictorConfig::perfect());
        for &(slot, taken, class_pick) in &branches {
            let pc = 0x4000 + slot * 4;
            let class = match class_pick {
                0 => BranchClass::Conditional,
                1 => BranchClass::UnconditionalDirect,
                2 => BranchClass::Call,
                _ => BranchClass::Return,
            };
            let info = BranchInfo {
                class,
                taken: if class == BranchClass::Conditional { taken } else { true },
                target: 0x8000 + slot * 16,
                fallthrough: pc + 4,
            };
            let o = real.predict_and_update(pc, &info);
            prop_assert_eq!(o.mispredicted, o.direction_mispredict || o.target_mispredict);
            let p = perfect.predict_and_update(pc, &info);
            prop_assert!(!p.mispredicted);
        }
        let stats = real.stats();
        prop_assert_eq!(stats.branches, branches.len() as u64);
        prop_assert!(stats.mispredictions <= stats.branches);
        prop_assert!(
            stats.direction_mispredictions + stats.target_mispredictions == stats.mispredictions
        );
        prop_assert!(stats.accuracy() >= 0.0 && stats.accuracy() <= 1.0);
        prop_assert_eq!(perfect.stats().mispredictions, 0);
    }

    /// `would_mispredict` is a pure query: it never changes the outcome of
    /// the subsequent real prediction.
    #[test]
    fn would_mispredict_has_no_side_effects(
        branches in proptest::collection::vec((0u64..64, any::<bool>()), 1..200),
    ) {
        let mut with_query = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
        let mut without = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
        for &(slot, taken) in &branches {
            let pc = 0x7000 + slot * 4;
            let info = BranchInfo {
                class: BranchClass::Conditional,
                taken,
                target: 0x9000 + slot * 8,
                fallthrough: pc + 4,
            };
            let _ = with_query.would_mispredict(pc, &info);
            let a = with_query.predict_and_update(pc, &info);
            let b = without.predict_and_update(pc, &info);
            prop_assert_eq!(a, b);
        }
    }
}
