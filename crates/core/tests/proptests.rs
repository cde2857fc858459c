//! Property-based tests for the interval model's data structures and the
//! end-to-end engine invariants.

use proptest::prelude::*;

use iss_branch::BranchPredictorConfig;
use iss_interval::{IntervalCoreConfig, IntervalSimulator, OldWindow, Window};
use iss_mem::MemoryConfig;
use iss_trace::{catalog, DynInst, OpClass, ThreadedWorkload};

fn random_inst(seq: u64, op_pick: u8, dst: u16, src: u16) -> DynInst {
    let op = match op_pick % 5 {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::FpAlu,
        3 => OpClass::IntDiv,
        _ => OpClass::Branch,
    };
    DynInst {
        seq,
        pc: 0x1000 + seq * 4,
        op,
        srcs: [Some(src % 32), None],
        dst: Some(dst % 32),
        mem: None,
        branch: None,
        sync: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Old-window invariants under arbitrary instruction sequences: the
    /// critical path never exceeds the sum of inserted latencies, the
    /// effective dispatch rate stays within (0, dispatch width], and the
    /// drain time is at least occupancy / width.
    #[test]
    fn old_window_invariants(
        insts in proptest::collection::vec((0u8..5, 0u16..32, 0u16..32, 0u64..13), 1..300),
    ) {
        let mut ow = OldWindow::new(128, 4);
        let mut latency_sum = 0u64;
        for (i, &(op, dst, src, extra)) in insts.iter().enumerate() {
            let inst = random_inst(i as u64, op, dst, src);
            latency_sum += inst.exec_latency() + extra;
            ow.insert(&inst, extra);
            prop_assert!(ow.critical_path_length() <= latency_sum);
            let rate = ow.effective_dispatch_rate(256);
            prop_assert!(rate > 0.0 && rate <= 4.0 + 1e-9);
            let drain = ow.window_drain_time();
            prop_assert!(drain >= (ow.occupancy() as u64).div_ceil(4));
            prop_assert!(ow.occupancy() <= 128);
        }
        // Clearing always resets the interval-local state.
        ow.clear();
        prop_assert_eq!(ow.occupancy(), 0);
        prop_assert_eq!(ow.critical_path_length(), 0);
    }

    /// The look-ahead window is a faithful FIFO for any interleaving of
    /// pushes and pops that respects capacity.
    #[test]
    fn window_is_fifo(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut w = Window::new(16);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for &push in &ops {
            if push && w.has_room() {
                w.push_tail(DynInst::nop(next_push, next_push * 4));
                next_push += 1;
            } else if !push && !w.is_empty() {
                let seq = w.head_inst().unwrap().seq;
                w.pop_head();
                prop_assert_eq!(seq, next_pop);
                next_pop += 1;
            }
            prop_assert!(w.len() <= 16);
        }
    }

    /// Interval-model timing is monotone in the memory latency: a slower DRAM
    /// never yields fewer cycles.
    #[test]
    fn slower_memory_never_speeds_up_execution(extra_latency in 0u64..400) {
        let p = catalog::profile("equake").unwrap();
        let run_with = |dram_latency: u64| {
            let mut mem = MemoryConfig::hpca2010_baseline(1);
            mem.dram.access_latency = dram_latency;
            let w = ThreadedWorkload::single(&p, 11, 3_000);
            let mut sim = IntervalSimulator::from_workload(
                &IntervalCoreConfig::hpca2010_baseline(),
                &BranchPredictorConfig::hpca2010_baseline(),
                &mem,
                w,
            );
            sim.run_with_limit(50_000_000).cycles
        };
        let base = run_with(150);
        let slower = run_with(150 + extra_latency);
        prop_assert!(slower >= base, "raising DRAM latency by {extra_latency} reduced cycles: {base} -> {slower}");
    }
}
