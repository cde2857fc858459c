//! Property-based tests for the synthetic workload front-end.

use proptest::prelude::*;

use iss_trace::stream::{InstructionStream, SyntheticStream};
use iss_trace::sync::{SyncController, SyncOp};
use iss_trace::{catalog, OpClass, ThreadedWorkload};

fn any_benchmark() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("gcc"),
        Just("mcf"),
        Just("swim"),
        Just("gzip"),
        Just("vpr"),
        Just("canneal"),
        Just("fluidanimate"),
        Just("blackscholes"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The stream always yields exactly the requested number of instructions,
    /// with strictly increasing sequence numbers.
    #[test]
    fn stream_length_and_sequence_numbers(
        bench in any_benchmark(),
        seed in 0u64..1_000_000,
        len in 1u64..3_000,
    ) {
        let p = catalog::profile(bench).unwrap();
        let mut s = SyntheticStream::new(&p, 0, seed, len);
        let mut count = 0;
        let mut last_seq = None;
        while let Some(i) = s.next_inst() {
            if let Some(prev) = last_seq {
                prop_assert_eq!(i.seq, prev + 1);
            } else {
                prop_assert_eq!(i.seq, 0);
            }
            last_seq = Some(i.seq);
            count += 1;
        }
        prop_assert_eq!(count, len);
        prop_assert!(s.next_inst().is_none(), "the stream must stay exhausted");
    }

    /// Two streams with identical parameters are identical instruction by
    /// instruction (determinism is what makes interval-vs-detailed
    /// comparisons meaningful).
    #[test]
    fn stream_is_reproducible(
        bench in any_benchmark(),
        seed in 0u64..1_000_000,
        len in 1u64..2_000,
    ) {
        let p = catalog::profile(bench).unwrap();
        let mut a = SyntheticStream::new(&p, 0, seed, len);
        let mut b = SyntheticStream::new(&p, 0, seed, len);
        loop {
            match (a.next_inst(), b.next_inst()) {
                (None, None) => break,
                (x, y) => prop_assert_eq!(x, y),
            }
        }
    }

    /// Structural invariants of every generated instruction: loads/stores
    /// carry addresses, branches carry outcomes, nothing else does, and the
    /// instruction classes stay within the profile's vocabulary.
    #[test]
    fn instruction_structure_is_consistent(
        bench in any_benchmark(),
        seed in 0u64..100_000,
    ) {
        let p = catalog::profile(bench).unwrap();
        let mut s = SyntheticStream::with_threads(&p, 0, 2, seed, 2_000);
        while let Some(i) = s.next_inst() {
            match i.op {
                OpClass::Load => {
                    prop_assert!(i.mem.is_some());
                    prop_assert!(!i.mem.unwrap().is_store);
                    prop_assert!(i.dst.is_some());
                }
                OpClass::Store => {
                    prop_assert!(i.mem.is_some());
                    prop_assert!(i.mem.unwrap().is_store);
                }
                OpClass::Branch => {
                    prop_assert!(i.branch.is_some());
                    prop_assert!(i.mem.is_none());
                }
                _ => {
                    prop_assert!(i.branch.is_none());
                    prop_assert!(i.mem.is_none());
                }
            }
            prop_assert!(i.exec_latency() >= 1 && i.exec_latency() <= 20);
        }
    }

    /// A multithreaded workload always splits the requested total exactly and
    /// every thread receives at least one instruction.
    #[test]
    fn threaded_workload_distributes_all_instructions(
        bench in prop_oneof![Just("vips"), Just("blackscholes"), Just("dedup")],
        threads in 1usize..8,
        total in 64u64..20_000,
    ) {
        let p = catalog::parsec_profile(bench).unwrap();
        let w = ThreadedWorkload::multithreaded(&p, threads, 3, total);
        prop_assert_eq!(w.num_cores(), threads);
        prop_assert_eq!(w.total_instructions(), total);
        for t in 0..threads {
            prop_assert!(w.instructions_on_core(t) >= 1);
        }
    }

    /// The synchronization controller releases a barrier no matter in which
    /// order threads arrive, and never reports a blocked thread afterwards.
    #[test]
    fn barriers_release_for_any_arrival_order(order in proptest::sample::subsequence(vec![0usize,1,2,3], 4)) {
        // `order` is a subsequence; the remaining threads arrive afterwards in
        // index order, so every permutation prefix is exercised.
        let mut sync = SyncController::new(4);
        let mut arrived = Vec::new();
        for &t in &order {
            prop_assert!(sync.apply(t, SyncOp::BarrierArrive { id: 1 }));
            arrived.push(t);
        }
        for t in 0..4 {
            if !arrived.contains(&t) {
                prop_assert!(sync.apply(t, SyncOp::BarrierArrive { id: 1 }));
            }
        }
        for t in 0..4 {
            prop_assert!(!sync.is_blocked(t), "thread {t} must be released");
        }
        prop_assert_eq!(sync.barriers_completed(), 1);
    }

    /// Locks are mutually exclusive and always eventually transferable: after
    /// an arbitrary sequence of acquire attempts, releasing by the holder
    /// leaves at most one new holder and no spuriously blocked thread.
    #[test]
    fn locks_are_mutually_exclusive(attempts in proptest::collection::vec(0usize..4, 1..24)) {
        let mut sync = SyncController::new(4);
        let mut holder: Option<usize> = None;
        for &t in &attempts {
            let got = sync.apply(t, SyncOp::LockAcquire { id: 7 });
            match holder {
                None => {
                    prop_assert!(got, "a free lock must be granted");
                    holder = Some(t);
                }
                Some(h) if h == t => prop_assert!(got, "re-acquire by the holder must succeed"),
                Some(_) => prop_assert!(!got, "a held lock must not be granted to another thread"),
            }
        }
        if let Some(h) = holder {
            prop_assert!(sync.apply(h, SyncOp::LockRelease { id: 7 }));
            // After the release, either nobody or exactly one former waiter
            // holds the lock; the holder is never blocked.
            for t in 0..4 {
                if sync.apply(t, SyncOp::LockAcquire { id: 7 }) {
                    prop_assert!(!sync.is_blocked(t));
                    break;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dependence-distance sampler survives the whole profile parameter
    /// space. `geo_p` is derived from `dep_distance_mean` and must be clamped
    /// into the open interval (0, 1): degenerate means (≤ 1.0, NaN, or huge)
    /// used to drive `ln(1 - geo_p)` to the `ln(1e-9)` rescue value, which
    /// collapsed every sampled dependence distance to 1. Whatever the profile
    /// says, the stream must produce the full requested length with sources
    /// drawn from the architectural register file.
    #[test]
    fn dependence_sampling_survives_the_full_profile_space(
        bench in any_benchmark(),
        // The vendored proptest has integer strategies only; floats are
        // derived from integer draws. `mean_kind` spans NaN, negative, the
        // degenerate (0, 1.5) band that clamps at the GEO_P_MAX end, the
        // realistic catalog territory, and the huge GEO_P_MIN extreme.
        mean_kind in 0usize..5,
        mean_raw in 0u64..1_000_000,
        load_pm in 50u64..600,
        branch_pm in 20u64..500,
        chase_pm in 0u64..1_000,
        bias_pm in 0u64..1_000,
        seed in 0u64..100_000,
    ) {
        let unit = mean_raw as f64 / 1e6;
        let mean = match mean_kind {
            0 => f64::NAN,
            1 => -3.0 * unit,
            2 => 1.5 * unit,
            3 => 1.5 + 62.5 * unit,
            _ => 64.0 + (1e9 - 64.0) * unit,
        };
        let (load, branch) = (load_pm as f64 / 1e3, branch_pm as f64 / 1e3);
        let (chase, bias) = (chase_pm as f64 / 1e3, bias_pm as f64 / 1e3);
        let mut p = catalog::profile(bench).unwrap();
        p.dep_distance_mean = mean;
        p.mix.load = load;
        p.mix.branch = branch;
        p.memory.pointer_chase = chase;
        p.branches.bias = bias;
        let mut s = SyntheticStream::new(&p, 0, seed, 2_000);
        let mut n = 0u64;
        while let Some(i) = s.next_inst() {
            for src in i.srcs.into_iter().flatten() {
                prop_assert!(src < iss_trace::NUM_ARCH_REGS);
            }
            // The core models index fixed per-register tables by these ids.
            if let Some(dst) = i.dst {
                prop_assert!(dst < iss_trace::NUM_ARCH_REGS);
            }
            n += 1;
        }
        prop_assert_eq!(n, 2_000);
    }

    /// With a realistic dependence-distance mean, sources must regularly
    /// reach *past* the most recent destination (a geometric distribution
    /// with mean m picks distance 1 only ~1/m of the time). This is the
    /// observable that the collapsed-denominator bug destroyed.
    #[test]
    fn realistic_means_spread_dependence_distances(
        bench in any_benchmark(),
        mean_pm in 6_000u64..32_000,
        seed in 0u64..100_000,
    ) {
        let mean = mean_pm as f64 / 1e3;
        let mut p = catalog::profile(bench).unwrap();
        p.dep_distance_mean = mean;
        let mut s = SyntheticStream::new(&p, 0, seed, 6_000);
        let mut last_dst = None;
        let mut picks = 0u64;
        let mut newest_hits = 0u64;
        let mut i = 0u64;
        while let Some(inst) = s.next_inst() {
            // Ignore the warm-up prefix while the destination pool fills.
            if i > 1_000 {
                if let Some(src) = inst.srcs[0] {
                    picks += 1;
                    if Some(src) == last_dst {
                        newest_hits += 1;
                    }
                }
            }
            if inst.dst.is_some() {
                last_dst = inst.dst;
            }
            i += 1;
        }
        prop_assert!(picks > 100, "the mix must produce source operands");
        // Pointer chasing and pool clamping inflate newest-hits above 1/m,
        // but nowhere near "every pick": under the old bug this ratio was
        // ~1.0 for degenerate denominators.
        prop_assert!(
            (newest_hits as f64) < 0.8 * picks as f64,
            "distance collapsed to 1: {newest_hits}/{picks} picks hit the newest destination"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The geometric threshold classify is invariant in its `head` speed
    /// knob and equal to its defining reference (`partition_point + 1`) for
    /// every draw, every catalog-shaped mean, and every head the adaptive
    /// selector can pick. This is the property that lets `SyntheticStream`
    /// freeze the head per stream purely as a throughput decision.
    #[test]
    fn geo_classify_is_head_invariant(
        mean_pm in 1_050u32..20_000,
        u_pm in 0u64..1_000_000,
    ) {
        let mean = f64::from(mean_pm) / 1e3;
        let table = iss_trace::geo_threshold_table(mean);
        let u = (u_pm as f64 / 1e6).max(iss_trace::GEO_U_MIN);
        let reference = table.partition_point(|&t| u < t) + 1;
        for head in [0usize, 8, 16, iss_trace::geo_classify_head(mean)] {
            prop_assert_eq!(
                iss_trace::geo_classify(&table, head, u),
                reference,
                "head {} diverged at mean {} u {}", head, mean, u
            );
        }
    }

    /// Every head answers the strict count of thresholds above the draw,
    /// plus one, also when the draw equals a table entry exactly: the tie
    /// `u == t` must not count, which a grid of draws almost never hits.
    #[test]
    fn count_gt_is_filter_count(
        mean_pm in 1_050u32..20_000,
        on_entry in any::<bool>(),
        pick in 0usize..iss_trace::DEP_POOL_CAP,
        u_pm in 0u64..1_000_000,
    ) {
        let mean = f64::from(mean_pm) / 1e3;
        let table = iss_trace::geo_threshold_table(mean);
        let u = if on_entry {
            table[pick]
        } else {
            (u_pm as f64 / 1e6).max(iss_trace::GEO_U_MIN)
        };
        let above = table.iter().filter(|&&t| u < t).count();
        for head in [0usize, 8, 16, iss_trace::geo_classify_head(mean)] {
            prop_assert_eq!(
                iss_trace::geo_classify(&table, head, u),
                above + 1,
                "head {} miscounted at mean {} u {}", head, mean, u
            );
        }
    }
}
