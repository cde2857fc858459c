//! Functional fast-forward of instruction streams (no timing).
//!
//! Sampled simulation spends most of its instructions *between* measured
//! units: the streams must advance (so the measured units see the right part
//! of the execution) and the long-lived microarchitectural state — branch
//! tables and the cache hierarchy — must stay warm, but no cycles need to be
//! accounted. [`fast_forward_batched`] is that path: it drains instructions
//! from the per-core [`CheckpointStream`]s as fast as they can be generated,
//! hands them in structure-of-arrays batches to an observer callback (the
//! sampling controller warms branch predictors and the memory hierarchy
//! there), and keeps the shared [`SyncController`] consistent so barriers,
//! locks and joins hold across functional and timed execution alike.
//!
//! Everything here is driven by simulated state only — stream contents and
//! synchronization outcomes — so a fast-forwarded prefix is exactly as
//! deterministic as a timed one.

use crate::checkpoint::{CheckpointStream, CoreResume};
use crate::inst::{BranchInfo, DynInst};
use crate::stream::InstructionStream;
use crate::sync::{SyncController, SyncOp};
use crate::ThreadId;

/// Instructions a core consumes before the round-robin scheduler moves on to
/// the next core. Small enough that co-running cores interleave their shared
/// cache accesses at a realistic grain, large enough that scheduling cost
/// disappears next to stream generation.
const ROUND_ROBIN_CHUNK: u64 = 256;

/// Kind bit in [`InstBatch::kind`]: the instruction performs a memory access.
pub const KIND_MEM: u8 = 1 << 0;
/// Kind bit in [`InstBatch::kind`]: the memory access is a store.
pub const KIND_STORE: u8 = 1 << 1;
/// Kind bit in [`InstBatch::kind`]: the instruction is a control transfer
/// with a recorded outcome.
pub const KIND_BRANCH: u8 = 1 << 2;
/// Kind bit in [`InstBatch::kind`]: the instruction carries a
/// synchronization marker.
pub const KIND_SYNC: u8 = 1 << 3;

/// A fixed-capacity structure-of-arrays batch of decoded instructions.
///
/// Functional warming never needs a whole [`DynInst`]; each consumer walks a
/// *column* — program counters on the instruction side, addresses on the
/// data side, outcomes on the branch side. Decoding a batch at a time into
/// dense columns lets every consumer run a tight loop over contiguous memory
/// instead of re-dispatching per instruction, which is what makes the
/// warming hot path vectorizable.
///
/// The dense columns ([`pc`](Self::pc), [`kind`](Self::kind)) have one entry
/// per instruction in decode order; the memory and branch subsets carry
/// their batch position (`*_pos`, an index into the dense columns) so
/// consumers that need interleaving — the memory hierarchy's shared clocks —
/// can reconstruct exact per-instruction order.
#[derive(Debug, Clone)]
pub struct InstBatch {
    capacity: usize,
    /// Program counter of every instruction, in decode order.
    pub pc: Vec<u64>,
    /// Kind bits of every instruction ([`KIND_MEM`], [`KIND_STORE`],
    /// [`KIND_BRANCH`], [`KIND_SYNC`]).
    pub kind: Vec<u8>,
    /// Batch positions (indices into the dense columns) of the memory
    /// subset, ascending.
    pub mem_pos: Vec<u32>,
    /// Virtual-address column of the memory subset.
    pub mem_addr: Vec<u64>,
    /// Access-size column of the memory subset (bytes).
    pub mem_size: Vec<u8>,
    /// Store-flag column of the memory subset.
    pub mem_store: Vec<bool>,
    /// Batch positions of the branch subset, ascending.
    pub br_pos: Vec<u32>,
    /// Program-counter column of the branch subset.
    pub br_pc: Vec<u64>,
    /// Outcome column of the branch subset.
    pub br_info: Vec<BranchInfo>,
}

impl InstBatch {
    /// Creates an empty batch holding up to `capacity` instructions.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be non-zero");
        InstBatch {
            capacity,
            pc: Vec::with_capacity(capacity),
            kind: Vec::with_capacity(capacity),
            mem_pos: Vec::with_capacity(capacity),
            mem_addr: Vec::with_capacity(capacity),
            mem_size: Vec::with_capacity(capacity),
            mem_store: Vec::with_capacity(capacity),
            br_pos: Vec::with_capacity(capacity),
            br_pc: Vec::with_capacity(capacity),
            br_info: Vec::with_capacity(capacity),
        }
    }

    /// Maximum number of instructions the batch holds.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of instructions currently in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the batch holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Whether the batch is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.pc.len() >= self.capacity
    }

    /// Empties the batch, retaining its allocations.
    pub fn clear(&mut self) {
        self.pc.clear();
        self.kind.clear();
        self.mem_pos.clear();
        self.mem_addr.clear();
        self.mem_size.clear();
        self.mem_store.clear();
        self.br_pos.clear();
        self.br_pc.clear();
        self.br_info.clear();
    }

    /// Appends one decoded instruction to the columns.
    pub fn push(&mut self, inst: &DynInst) {
        debug_assert!(!self.is_full(), "pushing into a full batch");
        let pos = self.pc.len() as u32;
        let mut kind = 0u8;
        if let Some(mem) = &inst.mem {
            kind |= KIND_MEM;
            if mem.is_store {
                kind |= KIND_STORE;
            }
            self.mem_pos.push(pos);
            self.mem_addr.push(mem.vaddr);
            self.mem_size.push(mem.size);
            self.mem_store.push(mem.is_store);
        }
        if let Some(info) = &inst.branch {
            kind |= KIND_BRANCH;
            self.br_pos.push(pos);
            self.br_pc.push(inst.pc);
            self.br_info.push(*info);
        }
        if inst.sync.is_some() {
            kind |= KIND_SYNC;
        }
        self.pc.push(inst.pc);
        self.kind.push(kind);
    }
}

/// Advances every core's stream functionally by (up to) `budget` instructions
/// chip-wide, honoring synchronization, and hands the consumed instructions
/// to `observe_batch` decoded into the structure-of-arrays `batch`.
///
/// Cores are advanced round-robin in deterministic order, each receiving an
/// equal share of the budget. A core stops early when it finishes its stream
/// or blocks on a synchronization condition; blocked cores are revisited as
/// long as any core still makes progress, so a barrier arrival by a later
/// core wakes an earlier one within the same call. When the remaining cores
/// are all blocked, finished, or out of budget, the call returns — the next
/// unit (functional or timed) picks up from a consistent state. Every
/// consumed instruction is counted into `per_core[core].instructions`;
/// cores that exhaust their stream are marked done in `per_core` and
/// finished in `sync`.
///
/// The batching contract, relied on by the sampled-simulation warming path
/// and pinned by differential tests against a one-instruction-at-a-time
/// scalar oracle:
///
/// * The instruction sequence each core consumes — and therefore every
///   stream position, per-core count and synchronization outcome — is
///   independent of the batch capacity.
/// * Batches never span a scheduling boundary: each flush contains
///   instructions of a single core, in consumption order.
/// * A batch is cut at (and includes) any instruction carrying a
///   synchronization marker; the flush happens *before* the marker's side
///   effects are applied, mirroring the scalar observe-then-sync order, so
///   a blocking acquire or barrier arrival is observed exactly once and
///   nothing past it is consumed prematurely.
/// * `batch` capacity 1 degenerates to a scalar walk: every instruction is
///   flushed individually.
///
/// Returns the number of instructions consumed chip-wide.
///
/// # Panics
///
/// Panics if `streams` and `per_core` disagree on the number of cores.
pub fn fast_forward_batched(
    streams: &mut [CheckpointStream],
    sync: &mut SyncController,
    per_core: &mut [CoreResume],
    budget: u64,
    batch: &mut InstBatch,
    observe_batch: &mut dyn FnMut(ThreadId, &InstBatch),
) -> u64 {
    assert_eq!(
        streams.len(),
        per_core.len(),
        "one resume entry per core stream is required"
    );
    let num_cores = streams.len();
    let live = per_core.iter().filter(|c| !c.done).count() as u64;
    if live == 0 || budget == 0 {
        return 0;
    }
    // Equal shares, remainder to the lowest-numbered live cores.
    let mut share: Vec<u64> = vec![0; num_cores];
    let (base, mut extra) = (budget / live, budget % live);
    for (core, resume) in per_core.iter().enumerate() {
        if !resume.done {
            share[core] = base + u64::from(extra > 0);
            extra = extra.saturating_sub(1);
        }
    }

    let mut consumed = 0u64;
    loop {
        let mut progressed = false;
        for core in 0..num_cores {
            let mut turn = ROUND_ROBIN_CHUNK.min(share[core]);
            while turn > 0 && !per_core[core].done && !sync.is_blocked(core) {
                batch.clear();
                let mut pending_sync: Option<SyncOp> = None;
                let mut exhausted = false;
                while turn > 0 && !batch.is_full() {
                    let Some(inst) = streams[core].next_inst() else {
                        exhausted = true;
                        break;
                    };
                    batch.push(&inst);
                    per_core[core].instructions += 1;
                    share[core] -= 1;
                    turn -= 1;
                    consumed += 1;
                    progressed = true;
                    if let Some(op) = inst.sync {
                        // The marker may block this core or wake another;
                        // stop decoding here so nothing is consumed past a
                        // scheduling point the scalar path would stop at.
                        pending_sync = Some(op);
                        break;
                    }
                }
                if !batch.is_empty() {
                    observe_batch(core, batch);
                }
                if exhausted {
                    per_core[core].done = true;
                    sync.mark_finished(core);
                } else if let Some(op) = pending_sync {
                    // A refused acquire or join is consumed all the same:
                    // the core waits behind it until it is woken.
                    let _ = sync.apply(core, op);
                }
            }
        }
        if !progressed {
            break;
        }
    }
    consumed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::stream::SyntheticStream;
    use crate::threaded::ThreadedWorkload;

    fn fresh_parts(w: ThreadedWorkload) -> (Vec<CheckpointStream>, SyncController) {
        let (streams, sync) = w.into_parts();
        (
            streams.into_iter().map(CheckpointStream::fresh).collect(),
            sync,
        )
    }

    fn resume_zeroes(n: usize) -> Vec<CoreResume> {
        vec![
            CoreResume {
                time: 0,
                instructions: 0,
                done: false,
            };
            n
        ]
    }

    /// The scalar fast-forward, the oracle [`fast_forward_batched`] is
    /// pinned to: the same scheduler, handing each consumed instruction to
    /// `observe` before its synchronization side effects are applied.
    fn fast_forward(
        streams: &mut [CheckpointStream],
        sync: &mut SyncController,
        per_core: &mut [CoreResume],
        budget: u64,
        observe: &mut dyn FnMut(ThreadId, &DynInst),
    ) -> u64 {
        assert_eq!(
            streams.len(),
            per_core.len(),
            "one resume entry per core stream is required"
        );
        let num_cores = streams.len();
        let live = per_core.iter().filter(|c| !c.done).count() as u64;
        if live == 0 || budget == 0 {
            return 0;
        }
        // Equal shares, remainder to the lowest-numbered live cores.
        let mut share: Vec<u64> = vec![0; num_cores];
        let (base, mut extra) = (budget / live, budget % live);
        for (core, resume) in per_core.iter().enumerate() {
            if !resume.done {
                share[core] = base + u64::from(extra > 0);
                extra = extra.saturating_sub(1);
            }
        }

        let mut consumed = 0u64;
        loop {
            let mut progressed = false;
            for core in 0..num_cores {
                let mut turn = ROUND_ROBIN_CHUNK.min(share[core]);
                while turn > 0 && !per_core[core].done && !sync.is_blocked(core) {
                    let Some(inst) = streams[core].next_inst() else {
                        per_core[core].done = true;
                        sync.mark_finished(core);
                        break;
                    };
                    observe(core, &inst);
                    if let Some(op) = inst.sync {
                        let _ = sync.apply(core, op);
                    }
                    per_core[core].instructions += 1;
                    share[core] -= 1;
                    turn -= 1;
                    consumed += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        consumed
    }

    #[test]
    fn fast_forward_consumes_exactly_the_budget_single_core() {
        let p = catalog::profile("gcc").unwrap();
        let (mut streams, mut sync) = fresh_parts(ThreadedWorkload::single(&p, 7, 10_000));
        let mut per_core = resume_zeroes(1);
        let mut seen = 0u64;
        let consumed = fast_forward(
            &mut streams,
            &mut sync,
            &mut per_core,
            3_000,
            &mut |_, _| {
                seen += 1;
            },
        );
        assert_eq!(consumed, 3_000);
        assert_eq!(seen, 3_000);
        assert_eq!(per_core[0].instructions, 3_000);
        assert!(!per_core[0].done);
    }

    #[test]
    fn fast_forward_marks_exhausted_streams_done() {
        let p = catalog::profile("gzip").unwrap();
        let (mut streams, mut sync) = fresh_parts(ThreadedWorkload::single(&p, 7, 500));
        let mut per_core = resume_zeroes(1);
        let consumed = fast_forward(
            &mut streams,
            &mut sync,
            &mut per_core,
            2_000,
            &mut |_, _| {},
        );
        assert_eq!(consumed, 500);
        assert!(per_core[0].done);
        assert!(sync.is_finished(0));
        assert!(sync.all_finished());
    }

    #[test]
    fn fast_forward_position_matches_a_plain_stream() {
        // After fast-forwarding N instructions, the stream must continue with
        // exactly the instruction a plain stream yields at position N.
        let p = catalog::profile("mcf").unwrap();
        let mut reference = SyntheticStream::new(&p, 0, 3, 2_000);
        let mut expected = Vec::new();
        while let Some(i) = reference.next_inst() {
            expected.push(i);
        }
        let (mut streams, mut sync) = fresh_parts(ThreadedWorkload::single(&p, 3, 2_000));
        let mut per_core = resume_zeroes(1);
        let mut observed = Vec::new();
        fast_forward(&mut streams, &mut sync, &mut per_core, 700, &mut |_, i| {
            observed.push(*i);
        });
        assert_eq!(&observed[..], &expected[..700]);
        assert_eq!(streams[0].next_inst(), Some(expected[700]));
    }

    #[test]
    fn fast_forward_respects_barriers_across_cores() {
        let p = catalog::parsec_profile("fluidanimate").unwrap();
        // Budget sized so every thread crosses fluidanimate's 25k-instruction
        // barrier period (with imbalance scaling) at least once.
        let (mut streams, mut sync) =
            fresh_parts(ThreadedWorkload::multithreaded(&p, 4, 11, 200_000));
        let mut per_core = resume_zeroes(4);
        let consumed = fast_forward(
            &mut streams,
            &mut sync,
            &mut per_core,
            160_000,
            &mut |_, _| {},
        );
        assert!(consumed > 0);
        // Barrier bookkeeping stayed consistent: some barriers completed, and
        // no thread is simultaneously running and blocked.
        assert!(sync.barriers_completed() > 0, "barriers must release");
        for (c, resume) in per_core.iter().enumerate() {
            if resume.done {
                assert!(sync.is_finished(c));
            }
            // Every core advanced: the barrier schedule forces rough
            // lock-step.
            assert!(
                resume.instructions > 0,
                "core {c} must make progress under barriers"
            );
        }
    }

    #[test]
    fn fast_forward_is_deterministic() {
        let p = catalog::parsec_profile("canneal").unwrap();
        let run = || {
            let (mut streams, mut sync) =
                fresh_parts(ThreadedWorkload::multithreaded(&p, 2, 5, 20_000));
            let mut per_core = resume_zeroes(2);
            let mut trace = Vec::new();
            fast_forward(
                &mut streams,
                &mut sync,
                &mut per_core,
                9_000,
                &mut |c, i| {
                    trace.push((c, i.seq, i.pc));
                },
            );
            (trace, per_core)
        };
        let (ta, pa) = run();
        let (tb, pb) = run();
        assert_eq!(ta, tb);
        assert_eq!(pa, pb);
    }

    /// Runs scalar and batched fast-forward over identical fresh workloads
    /// and asserts the consumed trace, per-core bookkeeping, sync outcomes
    /// and stream positions all agree.
    fn assert_batched_matches_scalar(
        workload: impl Fn() -> ThreadedWorkload,
        budget: u64,
        batch_size: usize,
    ) {
        let (mut s_streams, mut s_sync) = fresh_parts(workload());
        let n = s_streams.len();
        let mut s_per_core = resume_zeroes(n);
        let mut s_trace: Vec<(ThreadId, u64)> = Vec::new();
        let s_consumed = fast_forward(
            &mut s_streams,
            &mut s_sync,
            &mut s_per_core,
            budget,
            &mut |c, i| s_trace.push((c, i.pc)),
        );

        let (mut b_streams, mut b_sync) = fresh_parts(workload());
        let mut b_per_core = resume_zeroes(n);
        let mut b_trace: Vec<(ThreadId, u64)> = Vec::new();
        let mut batch = InstBatch::with_capacity(batch_size);
        let b_consumed = fast_forward_batched(
            &mut b_streams,
            &mut b_sync,
            &mut b_per_core,
            budget,
            &mut batch,
            &mut |c, b| {
                assert!(!b.is_empty() && b.len() <= batch_size);
                assert_eq!(b.pc.len(), b.kind.len());
                assert_eq!(b.mem_pos.len(), b.mem_addr.len());
                assert_eq!(b.br_pos.len(), b.br_info.len());
                for &pc in &b.pc {
                    b_trace.push((c, pc));
                }
            },
        );

        assert_eq!(s_consumed, b_consumed, "batch={batch_size}");
        assert_eq!(s_trace, b_trace, "batch={batch_size}");
        assert_eq!(s_per_core, b_per_core, "batch={batch_size}");
        assert_eq!(
            s_sync.barriers_completed(),
            b_sync.barriers_completed(),
            "batch={batch_size}"
        );
        for core in 0..n {
            assert_eq!(s_sync.is_blocked(core), b_sync.is_blocked(core));
            assert_eq!(s_sync.is_finished(core), b_sync.is_finished(core));
            assert_eq!(
                s_streams[core].next_inst(),
                b_streams[core].next_inst(),
                "core {core} stream position diverged at batch={batch_size}"
            );
        }
    }

    #[test]
    fn batched_matches_scalar_single_core_at_every_batch_size() {
        let p = catalog::profile("mcf").unwrap();
        for batch_size in [1, 7, 64, 1024] {
            assert_batched_matches_scalar(
                || ThreadedWorkload::single(&p, 3, 5_000),
                3_200,
                batch_size,
            );
        }
    }

    #[test]
    fn batched_matches_scalar_across_barriers_and_locks() {
        let fluid = catalog::parsec_profile("fluidanimate").unwrap();
        let canneal = catalog::parsec_profile("canneal").unwrap();
        for batch_size in [1, 7, 64] {
            assert_batched_matches_scalar(
                || ThreadedWorkload::multithreaded(&fluid, 4, 11, 200_000),
                160_000,
                batch_size,
            );
            assert_batched_matches_scalar(
                || ThreadedWorkload::multithreaded(&canneal, 2, 5, 20_000),
                9_000,
                batch_size,
            );
        }
    }

    #[test]
    fn batched_runs_streams_to_exhaustion() {
        let p = catalog::profile("gzip").unwrap();
        let (mut streams, mut sync) = fresh_parts(ThreadedWorkload::single(&p, 7, 500));
        let mut per_core = resume_zeroes(1);
        let mut batch = InstBatch::with_capacity(64);
        let mut seen = 0u64;
        let consumed = fast_forward_batched(
            &mut streams,
            &mut sync,
            &mut per_core,
            2_000,
            &mut batch,
            &mut |_, b| seen += b.len() as u64,
        );
        assert_eq!(consumed, 500);
        assert_eq!(seen, 500);
        assert!(per_core[0].done);
        assert!(sync.all_finished());
    }

    #[test]
    fn batch_columns_describe_the_decoded_instructions() {
        let p = catalog::profile("mcf").unwrap();
        let mut reference = SyntheticStream::new(&p, 0, 3, 2_000);
        let mut expected = Vec::new();
        while let Some(i) = reference.next_inst() {
            expected.push(i);
        }
        let (mut streams, mut sync) = fresh_parts(ThreadedWorkload::single(&p, 3, 2_000));
        let mut per_core = resume_zeroes(1);
        let mut batch = InstBatch::with_capacity(32);
        let mut cursor = 0usize;
        fast_forward_batched(
            &mut streams,
            &mut sync,
            &mut per_core,
            700,
            &mut batch,
            &mut |_, b| {
                let (mut m, mut r) = (0usize, 0usize);
                for (pos, (&pc, &kind)) in b.pc.iter().zip(&b.kind).enumerate() {
                    let inst = &expected[cursor + pos];
                    assert_eq!(pc, inst.pc);
                    assert_eq!(kind & super::KIND_MEM != 0, inst.mem.is_some());
                    assert_eq!(kind & super::KIND_BRANCH != 0, inst.branch.is_some());
                    assert_eq!(kind & super::KIND_SYNC != 0, inst.sync.is_some());
                    if let Some(mem) = inst.mem {
                        assert_eq!(b.mem_pos[m] as usize, pos);
                        assert_eq!(b.mem_addr[m], mem.vaddr);
                        assert_eq!(b.mem_size[m], mem.size);
                        assert_eq!(b.mem_store[m], mem.is_store);
                        assert_eq!(kind & super::KIND_STORE != 0, mem.is_store);
                        m += 1;
                    }
                    if let Some(info) = inst.branch {
                        assert_eq!(b.br_pos[r] as usize, pos);
                        assert_eq!(b.br_pc[r], inst.pc);
                        assert_eq!(b.br_info[r], info);
                        r += 1;
                    }
                }
                assert_eq!(m, b.mem_pos.len());
                assert_eq!(r, b.br_pos.len());
                cursor += b.len();
            },
        );
        assert_eq!(cursor, 700);
    }

    #[test]
    fn zero_budget_and_all_done_are_no_ops() {
        let p = catalog::profile("gcc").unwrap();
        let (mut streams, mut sync) = fresh_parts(ThreadedWorkload::single(&p, 1, 100));
        let mut per_core = resume_zeroes(1);
        assert_eq!(
            fast_forward(&mut streams, &mut sync, &mut per_core, 0, &mut |_, _| {}),
            0
        );
        per_core[0].done = true;
        assert_eq!(
            fast_forward(&mut streams, &mut sync, &mut per_core, 50, &mut |_, _| {}),
            0
        );
    }
}
