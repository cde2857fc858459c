//! Differential bit-identity suite for the structure-of-arrays hot path.
//!
//! The batched warming entry points (`MemoryHierarchy::warm_access_batch`,
//! `BranchUnit::update_batch`, and the sampled runner's `ISS_WARM_BATCH`
//! plumbing) promise *exact* equivalence with the scalar per-instruction
//! path: batch size is a pure throughput knob, never a modeling knob. This
//! suite pins that contract at three layers:
//!
//! 1. the memory hierarchy — scalar `access_instruction`/`access_data`
//!    warming loop vs `warm_access_batch` at batch 1, 3, 7, 13 and 64:
//!    [`WarmthSummary`], full [`iss_mem::MemoryStats`] (including the
//!    estimator's `latency_cycles` covariate) must be identical;
//! 2. the branch unit — scalar `predict_and_update` loop vs `update_batch`:
//!    identical statistics after training *and* after a shared probe phase
//!    (probe outcomes depend on every table the training touched);
//! 3. the sampled runner — `run_sampled_with_batch` at batch 1, 7, 13 and
//!    64 produces identical summaries, and driver records are unchanged
//!    when `ISS_WARM_BATCH`/`ISS_THREADS` vary together.
//!
//! The batch sizes span the degenerate batch of 1, small odd sizes (3, 7,
//! 13) and the default 64, so any batch kernel whose handling of batch
//! boundaries diverged from its scalar twin would split these cases.
//!
//! This is deliberately the *only* test in this binary: layer 3 mutates the
//! process environment with `std::env::set_var`, which is unsound when other
//! threads concurrently read the environment (glibc `setenv`/`getenv`
//! race). As the sole test it runs with no sibling test threads, and the
//! batch workers it spawns never touch the environment (both the
//! `ISS_THREADS` worker count and the warming batch size are read on the
//! calling thread before any pool starts).

use iss_branch::{BranchStats, BranchUnit};
use iss_mem::MemoryHierarchy;
use iss_sim::experiments::{builtin, default_sampling_specs, ExperimentScale};
use iss_sim::sampling::{run_sampled_with_batch, SamplingSpec};
use iss_sim::{BaseModel, CoreModel, Record, SimSummary, SystemConfig, WorkloadSpec};
use iss_trace::{
    catalog, BranchInfo, InstructionStream, MemAccess, SyntheticStream, ThreadId, LINE_SHIFT,
};

/// One warming event: which core consumed which instruction.
struct Event {
    core: ThreadId,
    pc: u64,
    mem: Option<MemAccess>,
    branch: Option<(u64, BranchInfo)>,
}

/// A deterministic two-core interleaving (runs of 17 instructions per core,
/// like the fast-forward round-robin) over two different workload profiles —
/// enough cross-core traffic to exercise coherence upgrades and the shared
/// L2 alongside the per-core L1s and TLBs.
fn interleaved_events(length_per_core: u64) -> Vec<Event> {
    let profiles = [
        catalog::profile("mcf").expect("mcf is in the catalog"),
        catalog::profile("gcc").expect("gcc is in the catalog"),
    ];
    let mut streams: Vec<SyntheticStream> = profiles
        .iter()
        .enumerate()
        .map(|(core, p)| SyntheticStream::new(p, 0, 0xbeef + core as u64, length_per_core))
        .collect();
    let mut events = Vec::new();
    let mut live = [true, true];
    while live.iter().any(|&l| l) {
        for core in 0..streams.len() {
            for _ in 0..17 {
                let Some(inst) = streams[core].next_inst() else {
                    live[core] = false;
                    break;
                };
                events.push(Event {
                    core,
                    pc: inst.pc,
                    mem: inst.mem,
                    branch: inst.branch.map(|b| (inst.pc, b)),
                });
            }
        }
    }
    events
}

/// The scalar warming reference: per-instruction, line-deduplicated i-fetch
/// followed by the data access, each stamped with its global position —
/// exactly the access sequence `warm_access_batch` documents.
fn warm_scalar(config: &SystemConfig, events: &[Event]) -> MemoryHierarchy {
    let mut mem = MemoryHierarchy::new(&config.memory);
    mem.set_warming(true);
    let mut last_iline = [u64::MAX; 2];
    for (pos, ev) in events.iter().enumerate() {
        let now = pos as u64;
        let line = ev.pc >> LINE_SHIFT;
        if last_iline[ev.core] != line {
            last_iline[ev.core] = line;
            mem.access_instruction(ev.core, ev.pc, now);
        }
        if let Some(m) = ev.mem {
            mem.access_data(ev.core, m.vaddr, m.is_store, now);
        }
    }
    mem
}

/// The batched path: consecutive same-core events are grouped into columns
/// of at most `batch` instructions (a batch never spans a core switch, as
/// in `fast_forward_batched`) and replayed through `warm_access_batch`.
fn warm_batched(config: &SystemConfig, events: &[Event], batch: usize) -> MemoryHierarchy {
    let mut mem = MemoryHierarchy::new(&config.memory);
    mem.set_warming(true);
    let mut last_iline = [u64::MAX; 2];

    let mut pc: Vec<u64> = Vec::new();
    let mut mem_pos: Vec<u32> = Vec::new();
    let mut mem_addr: Vec<u64> = Vec::new();
    let mut mem_store: Vec<bool> = Vec::new();
    let mut chunk_core: ThreadId = 0;
    let mut chunk_now: u64 = 0;

    let flush = |mem: &mut MemoryHierarchy,
                 last_iline: &mut [u64; 2],
                 core: ThreadId,
                 now: u64,
                 pc: &mut Vec<u64>,
                 mem_pos: &mut Vec<u32>,
                 mem_addr: &mut Vec<u64>,
                 mem_store: &mut Vec<bool>| {
        if pc.is_empty() {
            return;
        }
        mem.warm_access_batch(
            core,
            pc,
            mem_pos,
            mem_addr,
            mem_store,
            LINE_SHIFT,
            &mut last_iline[core],
            now,
        );
        pc.clear();
        mem_pos.clear();
        mem_addr.clear();
        mem_store.clear();
    };

    for (pos, ev) in events.iter().enumerate() {
        if !pc.is_empty() && (ev.core != chunk_core || pc.len() == batch) {
            flush(
                &mut mem,
                &mut last_iline,
                chunk_core,
                chunk_now,
                &mut pc,
                &mut mem_pos,
                &mut mem_addr,
                &mut mem_store,
            );
        }
        if pc.is_empty() {
            chunk_core = ev.core;
            chunk_now = pos as u64;
        }
        if let Some(m) = ev.mem {
            mem_pos.push(pc.len() as u32);
            mem_addr.push(m.vaddr);
            mem_store.push(m.is_store);
        }
        pc.push(ev.pc);
    }
    flush(
        &mut mem,
        &mut last_iline,
        chunk_core,
        chunk_now,
        &mut pc,
        &mut mem_pos,
        &mut mem_addr,
        &mut mem_store,
    );
    mem
}

/// Trains a unit on the interleaved branch column scalar-wise, probes it,
/// and returns (post-training stats, post-probe stats).
fn branch_scalar(config: &SystemConfig, events: &[Event]) -> (BranchStats, BranchStats) {
    let mut unit = BranchUnit::new(&config.branch);
    for ev in events {
        if let Some((pc, info)) = &ev.branch {
            let _ = unit.predict_and_update(*pc, info);
        }
    }
    let trained = unit.stats();
    probe_branch(&mut unit, events);
    (trained, unit.stats())
}

/// Same, but training goes through `update_batch` columns of `batch`.
fn branch_batched(
    config: &SystemConfig,
    events: &[Event],
    batch: usize,
) -> (BranchStats, BranchStats) {
    let mut unit = BranchUnit::new(&config.branch);
    let (mut pcs, mut infos): (Vec<u64>, Vec<BranchInfo>) = (Vec::new(), Vec::new());
    for ev in events {
        if let Some((pc, info)) = &ev.branch {
            pcs.push(*pc);
            infos.push(*info);
            if pcs.len() == batch {
                unit.update_batch(&pcs, &infos);
                pcs.clear();
                infos.clear();
            }
        }
    }
    unit.update_batch(&pcs, &infos);
    let trained = unit.stats();
    probe_branch(&mut unit, events);
    (trained, unit.stats())
}

/// Replays the branch column once more as a probe: the prediction outcomes
/// (and hence the misprediction counters) depend on every direction
/// counter, BTB entry and RAS slot the training phase left behind, so equal
/// probe stats pin equal table state, not just equal training counters.
fn probe_branch(unit: &mut BranchUnit, events: &[Event]) {
    for ev in events {
        if let Some((pc, info)) = &ev.branch {
            let _ = unit.predict_and_update(*pc, info);
        }
    }
}

/// Everything deterministic in a summary (host wall-clock excluded).
fn canonical_summary(s: &SimSummary) -> String {
    format!(
        "cycles={} insts={} per_core={:?} swaps={} mem={:?} sampling={:?}",
        s.cycles, s.total_instructions, s.per_core, s.swaps, s.memory, s.sampling
    )
}

fn canonical(records: &[Record]) -> Vec<String> {
    records.iter().map(Record::canonical).collect()
}

#[test]
fn soa_batched_paths_are_bit_identical_to_scalar() {
    let config = SystemConfig::hpca2010_baseline(2);
    let events = interleaved_events(6_000);

    // Layer 1: the memory hierarchy.
    let scalar = warm_scalar(&config, &events);
    let scalar_warmth = scalar.warmth_summary();
    let scalar_stats = scalar.stats();
    let scalar_latency = scalar_stats.totals().latency_cycles;
    assert!(
        scalar_latency > 0,
        "the reference run must exercise the miss path"
    );
    for batch in [1usize, 3, 7, 13, 64] {
        let batched = warm_batched(&config, &events, batch);
        assert_eq!(
            batched.warmth_summary(),
            scalar_warmth,
            "batch {batch}: warmth summary must match the scalar loop"
        );
        assert_eq!(
            batched.stats(),
            scalar_stats,
            "batch {batch}: every counter (incl. latency_cycles) must match"
        );
    }

    // Layer 2: the branch unit.
    let (scalar_trained, scalar_probed) = branch_scalar(&config, &events);
    assert!(
        scalar_trained.mispredictions > 0,
        "the reference run must exercise misprediction paths"
    );
    for batch in [1usize, 3, 7, 13, 64] {
        let (trained, probed) = branch_batched(&config, &events, batch);
        assert_eq!(
            trained, scalar_trained,
            "batch {batch}: training stats must match the scalar loop"
        );
        assert_eq!(
            probed, scalar_probed,
            "batch {batch}: probe outcomes must match (equal table state)"
        );
    }

    // Layer 3a: the sampled runner through the explicit injection seam —
    // one single-threaded SPEC workload and one multi-threaded PARSEC
    // workload (batches there are also cut at synchronization markers).
    let spec = SamplingSpec::new(BaseModel::Interval, 1_000, 4, 200, 2);
    let workloads = [
        (
            SystemConfig::hpca2010_baseline(1),
            WorkloadSpec::single("mcf", 24_000),
        ),
        (
            SystemConfig::hpca2010_baseline(2),
            WorkloadSpec::multithreaded("fluidanimate", 2, 24_000),
        ),
    ];
    for (cfg, wl) in &workloads {
        let run = |batch: usize| {
            let built = wl.build(9).expect("catalog workload builds");
            canonical_summary(&run_sampled_with_batch(
                spec,
                cfg,
                built,
                "soa-batch".to_string(),
                batch,
            ))
        };
        let reference = run(1);
        assert!(reference.contains("cycles="));
        for batch in [7usize, 13, 64] {
            assert_eq!(
                run(batch),
                reference,
                "warm batch {batch} must reproduce the batch-1 (scalar) summary"
            );
        }
    }

    // Layer 3b: driver records are invariant under the environment knobs —
    // scalar warming on one worker vs default-size batches on four.
    let scale = ExperimentScale {
        spec_length: 20_000,
        parsec_length: 40_000,
        seed: 11,
    };
    let mut sweep = builtin("sampling", scale).unwrap();
    sweep.benchmarks = vec!["gcc".into(), "mcf".into()];
    sweep.models.truncate(2); // the detailed and interval references
    sweep
        .models
        .push(CoreModel::Sampled(default_sampling_specs(scale)[0]));
    std::env::set_var("ISS_WARM_BATCH", "1");
    std::env::set_var("ISS_THREADS", "1");
    let serial = sweep.run().unwrap();
    std::env::remove_var("ISS_WARM_BATCH");
    std::env::set_var("ISS_THREADS", "4");
    let parallel = sweep.run().unwrap();
    std::env::remove_var("ISS_THREADS");
    assert_eq!(canonical(&serial), canonical(&parallel));
}
