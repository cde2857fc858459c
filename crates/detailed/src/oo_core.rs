//! Structural out-of-order core model.
//!
//! The model tracks individual instructions through fetch, dispatch, issue
//! and commit each cycle, with the finite resources of Table 1: fetch queue,
//! ROB, issue queue, load/store queue, per-class functional units, and a
//! front-end pipeline whose depth is paid again after every branch
//! misprediction. It is intentionally a *structural* model rather than a
//! literal M5 port (no explicit rename registers, no wrong-path execution —
//! the functional-first stream only contains correct-path instructions, so a
//! misprediction is modeled by stalling fetch until the branch resolves, the
//! same simplification the interval model's penalty formula captures).
//!
//! The issue stage is driven by wakeups, as an issue queue is, rather than
//! by a walk over the ROB. At dispatch an entry counts the sources whose
//! producer has not issued yet, registering itself with each such producer,
//! and keeps the latest completion time of those that have. When a producer
//! issues, its completion time goes to its consumers, and a consumer with no
//! unissued producer left waits in a time-ordered queue for its ready cycle.
//! Each cycle the stage visits only the ready entries, oldest first, under
//! the issue width and the per-class unit limits. Every latency is at least
//! one cycle, so nothing an issue wakes can issue in the same cycle. The
//! whole-ROB scan this replaced stays in the tests as the oracle that the
//! stage issues the same entries in every cycle.
//!
//! The core is stepped cycle by cycle only while something moves. After a
//! cycle in which no stage made progress, it tells the machine the earliest
//! cycle in which anything can change and charges the cycles skipped until
//! then to its stall counters, so its statistics are exactly those of a
//! core stepped every cycle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use iss_branch::{BranchPredictorConfig, BranchUnit};
use iss_interval::{CoreWarmParts, SimCore};
use iss_mem::MemoryHierarchy;
use iss_trace::{
    CoreResume, DynInst, FxHashMap, InstructionStream, SyncController, ThreadId, LINE_SHIFT,
    NUM_ARCH_REGS,
};

use crate::config::DetailedCoreConfig;
use crate::stats::DetailedCoreStats;

#[derive(Debug, Clone)]
struct FetchEntry {
    inst: DynInst,
    /// Cycle at which the instruction has traversed the front-end pipeline
    /// and may dispatch.
    dispatch_ready_at: u64,
}

/// Sequence numbers of the in-flight producers one instruction depends on:
/// at most two register sources plus one store-to-load memory dependence, so
/// the list is inline and dispatching an instruction allocates nothing.
#[derive(Debug, Clone, Copy, Default)]
struct DepList {
    seqs: [u64; 3],
    len: u8,
}

impl DepList {
    #[inline]
    fn push(&mut self, seq: u64) {
        self.seqs[usize::from(self.len)] = seq;
        self.len += 1;
    }

    #[inline]
    fn as_slice(&self) -> &[u64] {
        &self.seqs[..usize::from(self.len)]
    }
}

#[derive(Debug, Clone)]
struct RobEntry {
    inst: DynInst,
    /// Position in dispatch order: consecutive over the ROB, so the entry of
    /// an in-flight producer is `rob[seq - head.seq]`.
    seq: u64,
    /// Producer sources that have not issued yet, one per source: a
    /// producer feeding both register sources counts twice.
    waiting: u8,
    /// The latest completion among the producers that have issued.
    ready_at: u64,
    issued: bool,
    complete_at: u64,
    /// The in-flight producers at dispatch, read only by the whole-ROB scan
    /// the tests check the ready list against.
    #[cfg(test)]
    deps: DepList,
}

/// The issue stage's wakeup state, over ROB slots `seq & mask`. There are at
/// least as many slots as ROB entries, so the in-flight entries sit in
/// distinct slots, in age order from the head's slot round the ring.
#[derive(Debug, Clone)]
struct ReadyList {
    mask: u64,
    /// One bit per slot whose entry may issue now.
    ready: Vec<u64>,
    /// Per slot, the entries that wait for that slot's entry to issue, once
    /// per source it feeds. A list empties when its producer issues, and
    /// keeps its capacity for the slot's next occupant.
    consumers: Vec<Vec<u64>>,
    /// Entries whose producers have all issued, by (ready cycle, seq), until
    /// that cycle comes.
    pending: BinaryHeap<Reverse<(u64, u64)>>,
    /// Completion times of issued entries; those at or before the current
    /// cycle are dropped when the stage runs.
    completions: BinaryHeap<Reverse<u64>>,
}

impl ReadyList {
    fn new(rob_entries: usize) -> Self {
        let slots = rob_entries.next_power_of_two().max(64);
        ReadyList {
            mask: slots as u64 - 1,
            ready: vec![0; slots / 64],
            consumers: vec![Vec::new(); slots],
            pending: BinaryHeap::new(),
            completions: BinaryHeap::new(),
        }
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    fn mark_ready(&mut self, seq: u64) {
        let slot = self.slot(seq);
        self.ready[slot / 64] |= 1 << (slot % 64);
    }

    /// Drops completions at or before `now` and readies the pending entries
    /// whose cycle has come.
    fn advance(&mut self, now: u64) {
        while self
            .completions
            .peek()
            .is_some_and(|&Reverse(at)| at <= now)
        {
            self.completions.pop();
        }
        while let Some(&Reverse((at, seq))) = self.pending.peek() {
            if at > now {
                break;
            }
            self.pending.pop();
            self.mark_ready(seq);
        }
    }

    /// The earliest completion after the cycle of the last [`Self::advance`],
    /// among entries issued before it.
    fn next_completion(&self) -> u64 {
        self.completions.peek().map_or(u64::MAX, |&Reverse(at)| at)
    }
}

/// A step in which no stage made progress. Until `wake` every step repeats
/// it exactly, so the machine may skip those cycles; they are charged to the
/// stall counters when the core is next stepped or its statistics are read.
#[derive(Debug, Clone, Copy)]
struct IdleStep {
    at: u64,
    /// The earliest time at which a step can differ from this one.
    wake: u64,
    /// Whether a serializing instruction waited at dispatch in this step.
    serializing: bool,
}

impl IdleStep {
    /// Charges `stats` for the cycles skipped after this step, up to `now`.
    fn charge_skipped(&self, stats: &mut DetailedCoreStats, now: u64) {
        let skipped = now.saturating_sub(self.at + 1);
        stats.commit_stall_cycles += skipped;
        stats.dispatch_stall_cycles += skipped;
        stats.fetch_stall_cycles += skipped;
        if self.serializing {
            stats.serializations += skipped;
        }
    }
}

/// What the dispatch stage did in one step.
#[derive(Debug, Clone, Copy)]
enum Dispatch {
    /// It dispatched an instruction, or depended on the other cores: it was
    /// blocked on synchronization or failed to take a lock or join a thread.
    Progress,
    /// Nothing dispatched; `serializing` when a serializing instruction
    /// waited for the window to drain.
    Idle { serializing: bool },
}

/// One core simulated cycle-accurately.
#[derive(Debug, Clone)]
pub struct OutOfOrderCore<S> {
    core_id: ThreadId,
    config: DetailedCoreConfig,
    branch_unit: BranchUnit,
    stream: S,
    stream_exhausted: bool,

    fetch_queue: VecDeque<FetchEntry>,
    fetch_blocked_until: u64,
    /// Fetch is waiting for this (mispredicted) branch to resolve.
    fetch_wait_branch: Option<u64>,

    rob: VecDeque<RobEntry>,
    ready_list: ReadyList,
    /// Dispatched entries that have not issued.
    iq_occupancy: usize,
    lsq_occupancy: usize,
    /// Dispatch is blocked behind an uncommitted serializing instruction.
    serialize_stall: bool,

    /// ROB sequence number of the next dispatched instruction. The core
    /// numbers dispatches itself, so finding a producer does not depend on
    /// how a stream numbers its instructions.
    next_seq: u64,
    /// Latest producer of each register, indexed by register id — registers
    /// are a small dense space, so no hashing on the dispatch path. A
    /// producer below the ROB head has committed.
    reg_producer: Vec<Option<u64>>,
    /// Latest in-flight store to each cache line; a store's entry goes at
    /// commit, so the map is bounded by the LSQ.
    store_producer: FxHashMap<u64, u64>,

    stats: DetailedCoreStats,
    /// The last step, when it made no progress.
    idle: Option<IdleStep>,
    done: bool,
}

impl<S: InstructionStream> SimCore for OutOfOrderCore<S> {
    type Stream = S;
    type Config = DetailedCoreConfig;
    type Stats = DetailedCoreStats;

    /// Creates a detailed core fed by `stream`.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid.
    fn new(
        core_id: ThreadId,
        config: &DetailedCoreConfig,
        branch_config: &BranchPredictorConfig,
        stream: S,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid detailed core configuration: {e}"));
        OutOfOrderCore {
            core_id,
            config: *config,
            branch_unit: BranchUnit::new(branch_config),
            stream,
            stream_exhausted: false,
            fetch_queue: VecDeque::new(),
            fetch_blocked_until: 0,
            fetch_wait_branch: None,
            rob: VecDeque::new(),
            ready_list: ReadyList::new(config.rob_entries),
            iq_occupancy: 0,
            lsq_occupancy: 0,
            serialize_stall: false,
            next_seq: 0,
            reg_producer: vec![None; NUM_ARCH_REGS as usize],
            store_producer: FxHashMap::default(),
            stats: DetailedCoreStats::default(),
            idle: None,
            done: false,
        }
    }

    /// Simulates one cycle at time `now`. Stages run commit → issue →
    /// dispatch → fetch so that an instruction needs at least one cycle per
    /// stage. Cycles skipped since the previous step are charged first.
    fn step_cycle(&mut self, now: u64, mem: &mut MemoryHierarchy, sync: &mut SyncController) {
        if self.done {
            return;
        }
        if let Some(idle) = self.idle.take() {
            idle.charge_skipped(&mut self.stats, now);
        }
        let committed = self.commit(now);
        let issued = self.issue(now, mem);
        let dispatch = self.dispatch(now, sync);
        let fetched = self.fetch(now, mem);

        if let Dispatch::Idle { serializing } = dispatch {
            if !(committed || issued || fetched) {
                self.idle = Some(IdleStep {
                    at: now,
                    wake: self.wake_time(now),
                    serializing,
                });
            }
        }
        if self.stream_exhausted && self.fetch_queue.is_empty() && self.rob.is_empty() {
            self.done = true;
            self.stats.cycles = now + 1;
            sync.mark_finished(self.core_id);
        }
    }

    /// The next cycle after a step that made progress. After an idle step,
    /// the earliest time anything can change: an instruction completes,
    /// fetch unblocks or the fetch-queue head clears the front-end. A core
    /// blocked on synchronization makes progress by definition, because
    /// other cores can release it in any cycle.
    fn next_event(&self, now: u64) -> u64 {
        self.idle.map_or(now + 1, |idle| idle.wake)
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn core_id(&self) -> ThreadId {
        self.core_id
    }

    fn stats(&self, now: u64) -> DetailedCoreStats {
        let mut stats = self.stats;
        if let Some(idle) = &self.idle {
            idle.charge_skipped(&mut stats, now);
        }
        stats
    }

    fn retired(&self) -> u64 {
        self.stats.instructions
    }

    /// The detailed model keeps no per-core clock for live cores: an
    /// unfinished core reports the machine clock.
    fn cycles(&self, now: u64) -> u64 {
        if self.done {
            self.stats.cycles
        } else {
            now
        }
    }

    /// The pending instructions are the ROB contents (dispatched, in flight)
    /// followed by the fetch queue.
    fn into_warm_parts(self, now: u64) -> CoreWarmParts<S> {
        CoreWarmParts {
            resume: CoreResume {
                time: self.cycles(now),
                instructions: self.stats.instructions,
                done: self.done,
            },
            pending: self
                .rob
                .iter()
                .map(|e| e.inst)
                .chain(self.fetch_queue.iter().map(|fe| fe.inst))
                .collect(),
            stream: self.stream,
            branch: Some(self.branch_unit),
        }
    }

    /// The core's fetch stage stays idle until the resume time is reached
    /// (the outgoing model may have run this core ahead of the machine
    /// clock). In-flight microarchitectural state (ROB/IQ/LSQ occupancy)
    /// restarts empty; the replayed instructions refill it.
    fn resume_at(&mut self, resume: &CoreResume) {
        self.fetch_blocked_until = resume.time;
        self.stats.instructions = resume.instructions;
        if resume.done {
            self.done = true;
            self.stats.cycles = resume.time;
        }
    }

    fn branch_unit(&self) -> Option<&BranchUnit> {
        Some(&self.branch_unit)
    }

    fn install_branch_unit(&mut self, unit: BranchUnit) {
        self.branch_unit = unit;
    }
}

impl<S: InstructionStream> OutOfOrderCore<S> {
    /// The earliest time after `now` at which an idle step can change.
    fn wake_time(&self, now: u64) -> u64 {
        let mut wake = self.ready_list.next_completion();
        if self.fetch_wait_branch.is_none() && self.fetch_blocked_until > now {
            wake = wake.min(self.fetch_blocked_until);
        }
        if let Some(fe) = self.fetch_queue.front() {
            if fe.dispatch_ready_at > now {
                wake = wake.min(fe.dispatch_ready_at);
            }
        }
        wake
    }

    /// Commits completed instructions from the ROB head; returns whether any
    /// committed.
    fn commit(&mut self, now: u64) -> bool {
        let mut committed = 0;
        while committed < self.config.dispatch_width {
            let Some(head) = self.rob.front() else { break };
            if head.issued && head.complete_at <= now {
                #[expect(
                    clippy::expect_used,
                    reason = "ROB pop guarded by the front() check in the same function"
                )]
                let e = self.rob.pop_front().expect("head exists");
                if let Some(acc) = &e.inst.mem {
                    self.lsq_occupancy -= 1;
                    let line = acc.vaddr >> LINE_SHIFT;
                    if acc.is_store && self.store_producer.get(&line) == Some(&e.seq) {
                        self.store_producer.remove(&line);
                    }
                }
                if e.inst.is_serializing() {
                    self.serialize_stall = false;
                }
                self.stats.instructions += 1;
                committed += 1;
            } else {
                break;
            }
        }
        if committed == 0 {
            self.stats.commit_stall_cycles += 1;
        }
        committed > 0
    }

    /// The ROB entry of producer `seq`, or `None` once it has committed.
    fn producer(&self, seq: u64) -> Option<&RobEntry> {
        let idx = seq.checked_sub(self.rob.front()?.seq)?;
        let e = &self.rob[idx as usize];
        debug_assert_eq!(e.seq, seq, "ROB sequence numbers are consecutive");
        Some(e)
    }

    /// Issues ready entries, oldest first, within the issue width and the
    /// per-class unit limits; returns whether any issued.
    fn issue(&mut self, now: u64, mem: &mut MemoryHierarchy) -> bool {
        self.ready_list.advance(now);
        let Some(head) = self.rob.front().map(|e| e.seq) else {
            return false;
        };
        let mut issued = 0;
        let mut int_used = 0;
        let mut mem_used = 0;
        let mut fp_used = 0;
        let mask = self.ready_list.mask;
        let words = self.ready_list.ready.len();
        let start = self.ready_list.slot(head);
        // Walk the ready bits round the ring from the head's slot: the head's
        // word from its bit up, the other words, then the head's word below
        // its bit.
        for k in 0..=words {
            let w = (start / 64 + k) % words;
            let mut bits = self.ready_list.ready[w];
            if k == 0 {
                bits &= u64::MAX << (start % 64);
            } else if k == words {
                bits &= !(u64::MAX << (start % 64));
            }
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let slot = w * 64 + bit as usize;
                let idx = ((slot as u64).wrapping_sub(start as u64) & mask) as usize;
                let op = self.rob[idx].inst.op;
                let (used, units) = if op.is_memory() {
                    (&mut mem_used, self.config.mem_units)
                } else if op.is_float() {
                    (&mut fp_used, self.config.fp_units)
                } else {
                    (&mut int_used, self.config.int_units)
                };
                if *used >= units {
                    continue;
                }
                *used += 1;
                self.ready_list.ready[w] &= !(1 << bit);
                let complete_at = self.issue_entry(idx, now, mem);
                self.wake_consumers(slot, head, complete_at);
                issued += 1;
                if issued >= self.config.issue_width {
                    return true;
                }
            }
        }
        issued > 0
    }

    /// Starts ROB entry `idx` executing at `now`; returns its completion time.
    fn issue_entry(&mut self, idx: usize, now: u64, mem: &mut MemoryHierarchy) -> u64 {
        // Loads and stores access the memory hierarchy at issue, which is
        // what lets independent misses overlap (MLP) and contend for the
        // shared L2 and DRAM bandwidth.
        let extra = match &self.rob[idx].inst.mem {
            Some(acc) => {
                let resp = mem.access_data(self.core_id, acc.vaddr, acc.is_store, now);
                if acc.is_store {
                    self.stats.stores += 1;
                    // Stores retire from the store buffer off the critical
                    // path; their miss latency is not part of the dependence
                    // chain.
                    0
                } else {
                    self.stats.loads += 1;
                    resp.latency
                }
            }
            None => 0,
        };
        let e = &mut self.rob[idx];
        e.issued = true;
        e.complete_at = now + e.inst.exec_latency() + extra;
        let complete_at = e.complete_at;
        // Every latency is at least one cycle, so no consumer this wakes can
        // issue in the cycle its producer issued in.
        debug_assert!(complete_at > now, "an issued entry completes after now");
        let inst_seq = e.inst.seq;
        self.iq_occupancy -= 1;
        self.ready_list.completions.push(Reverse(complete_at));
        if self.fetch_wait_branch == Some(inst_seq) {
            // The mispredicted branch resolves when it executes; fetch is
            // redirected the cycle after. (The front-end refill itself is
            // already modeled by the fetch-to-dispatch latency of the newly
            // fetched instructions.)
            self.fetch_blocked_until = self.fetch_blocked_until.max(complete_at + 1);
            self.fetch_wait_branch = None;
        }
        complete_at
    }

    /// Hands the completion time of the producer in `slot` to its consumers;
    /// a consumer with no unissued producer left waits for its ready cycle.
    fn wake_consumers(&mut self, slot: usize, head: u64, complete_at: u64) {
        let mut consumers = std::mem::take(&mut self.ready_list.consumers[slot]);
        for &seq in &consumers {
            let e = &mut self.rob[(seq - head) as usize];
            e.ready_at = e.ready_at.max(complete_at);
            e.waiting -= 1;
            if e.waiting == 0 {
                self.ready_list.pending.push(Reverse((e.ready_at, seq)));
            }
        }
        consumers.clear();
        self.ready_list.consumers[slot] = consumers;
    }

    fn dispatch(&mut self, now: u64, sync: &mut SyncController) -> Dispatch {
        if sync.is_blocked(self.core_id) {
            self.stats.sync_blocked_cycles += 1;
            self.stats.dispatch_stall_cycles += 1;
            return Dispatch::Progress;
        }
        let mut dispatched = 0;
        let mut serializing = false;
        let mut sync_failed = false;
        while dispatched < self.config.dispatch_width {
            let ready = match self.fetch_queue.front() {
                Some(fe) => fe.dispatch_ready_at <= now,
                None => false,
            };
            if !ready {
                break;
            }
            if self.serialize_stall {
                break;
            }
            let is_serializing = self.fetch_queue.front().map(|fe| fe.inst.is_serializing());
            if is_serializing == Some(true) && !self.rob.is_empty() {
                // Serializing instructions wait for the window to drain.
                self.stats.serializations += 1;
                serializing = true;
                break;
            }
            if self.rob.len() >= self.config.rob_entries
                || self.iq_occupancy >= self.config.issue_queue_entries
            {
                break;
            }
            let is_mem = self
                .fetch_queue
                .front()
                .map(|fe| fe.inst.mem.is_some())
                .unwrap_or(false);
            if is_mem && self.lsq_occupancy >= self.config.lsq_entries {
                break;
            }
            // Synchronization decisions happen at dispatch of the marked
            // instruction (functional-first).
            if let Some(op) = self.fetch_queue.front().and_then(|fe| fe.inst.sync) {
                if !sync.apply(self.core_id, op) {
                    sync_failed = true;
                    break;
                }
            }

            #[expect(
                clippy::expect_used,
                reason = "fetch-queue pop guarded by the front() check in the same function"
            )]
            let fe = self.fetch_queue.pop_front().expect("front checked above");
            let inst = fe.inst;
            let seq = self.next_seq;
            self.next_seq += 1;
            // Capture data dependences on in-flight producers.
            let mut deps = DepList::default();
            for src in inst.src_regs() {
                if let Some(pseq) = self.reg_producer[usize::from(src)] {
                    if self.producer(pseq).is_some() {
                        deps.push(pseq);
                    }
                }
            }
            if let Some(acc) = &inst.mem {
                if !acc.is_store {
                    if let Some(&sseq) = self.store_producer.get(&(acc.vaddr >> LINE_SHIFT)) {
                        if self.producer(sseq).is_some() {
                            deps.push(sseq);
                        }
                    }
                }
            }
            if let Some(dst) = inst.dst {
                self.reg_producer[usize::from(dst)] = Some(seq);
            }
            if let Some(acc) = &inst.mem {
                if acc.is_store {
                    self.store_producer.insert(acc.vaddr >> LINE_SHIFT, seq);
                }
                self.lsq_occupancy += 1;
            }
            if inst.is_serializing() {
                self.serialize_stall = true;
            }
            // Wait on the producers that have not issued; take the latest
            // completion of those that have.
            let mut waiting = 0;
            let mut ready_at = 0;
            for &pseq in deps.as_slice() {
                let Some(&RobEntry {
                    issued,
                    complete_at,
                    ..
                }) = self.producer(pseq)
                else {
                    continue;
                };
                if issued {
                    ready_at = ready_at.max(complete_at);
                } else {
                    waiting += 1;
                    let slot = self.ready_list.slot(pseq);
                    self.ready_list.consumers[slot].push(seq);
                }
            }
            debug_assert!(
                self.ready_list.consumers[self.ready_list.slot(seq)].is_empty(),
                "a slot's consumers leave when its entry issues"
            );
            if waiting == 0 {
                // The stage next runs at `now + 1` or later.
                if ready_at <= now + 1 {
                    self.ready_list.mark_ready(seq);
                } else {
                    self.ready_list.pending.push(Reverse((ready_at, seq)));
                }
            }
            self.iq_occupancy += 1;
            self.rob.push_back(RobEntry {
                inst,
                seq,
                waiting,
                ready_at,
                issued: false,
                complete_at: 0,
                #[cfg(test)]
                deps,
            });
            dispatched += 1;
        }
        if dispatched == 0 {
            self.stats.dispatch_stall_cycles += 1;
        }
        if dispatched > 0 || sync_failed {
            Dispatch::Progress
        } else {
            Dispatch::Idle { serializing }
        }
    }

    /// Fetches into the fetch queue; returns whether it fetched anything or
    /// found the stream exhausted.
    fn fetch(&mut self, now: u64, mem: &mut MemoryHierarchy) -> bool {
        if now < self.fetch_blocked_until || self.fetch_wait_branch.is_some() {
            self.stats.fetch_stall_cycles += 1;
            return false;
        }
        let mut fetched = 0;
        let mut exhausted = false;
        while fetched < self.config.fetch_width
            && self.fetch_queue.len() < self.config.fetch_queue_entries
            && !self.stream_exhausted
        {
            let Some(inst) = self.stream.next_inst() else {
                self.stream_exhausted = true;
                exhausted = true;
                break;
            };
            let resp = mem.access_instruction(self.core_id, inst.pc, now);
            let dispatch_ready_at = now + self.config.frontend_pipeline_depth + resp.latency;
            let mut mispredicted = false;
            if inst.is_branch() {
                if let Some(info) = inst.branch {
                    let outcome = self.branch_unit.predict_and_update(inst.pc, &info);
                    mispredicted = outcome.mispredicted;
                }
            }
            let seq = inst.seq;
            self.fetch_queue.push_back(FetchEntry {
                inst,
                dispatch_ready_at,
            });
            fetched += 1;
            if mispredicted {
                // The front-end fetches down the wrong path until the branch
                // resolves; correct-path fetch resumes only afterwards.
                self.stats.branch_mispredictions += 1;
                self.fetch_wait_branch = Some(seq);
                break;
            }
            if resp.latency > 0 {
                // An I-cache/I-TLB miss starves fetch for the miss duration.
                self.fetch_blocked_until = now + resp.latency;
                break;
            }
        }
        if fetched == 0 {
            self.stats.fetch_stall_cycles += 1;
        }
        fetched > 0 || exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_mem::MemoryConfig;
    use iss_trace::{catalog, MemAccess, OpClass, SyntheticStream, ThreadedWorkload};

    /// Runs `name` on one core, stepped every cycle, to completion; returns
    /// the core and the cycle after its last step.
    fn run_core(
        name: &str,
        len: u64,
        branch_cfg: &BranchPredictorConfig,
        mem_cfg: &MemoryConfig,
    ) -> (OutOfOrderCore<SyntheticStream>, u64) {
        let profile = catalog::profile(name).unwrap();
        let stream = SyntheticStream::new(&profile, 0, 17, len);
        let mut core = OutOfOrderCore::new(
            0,
            &DetailedCoreConfig::hpca2010_baseline(),
            branch_cfg,
            stream,
        );
        let mut mem = MemoryHierarchy::new(mem_cfg);
        let mut sync = SyncController::new(1);
        let mut now = 0;
        while !core.is_done() && now < 20_000_000 {
            core.step_cycle(now, &mut mem, &mut sync);
            now += 1;
        }
        assert!(core.is_done(), "core must finish");
        (core, now)
    }

    fn run_one(
        name: &str,
        len: u64,
        branch_cfg: &BranchPredictorConfig,
        mem_cfg: &MemoryConfig,
    ) -> DetailedCoreStats {
        let (core, now) = run_core(name, len, branch_cfg, mem_cfg);
        core.stats(now)
    }

    impl<S: InstructionStream> OutOfOrderCore<S> {
        /// The issue stage the ready list replaced, kept as its oracle: a
        /// walk over the whole ROB, oldest first, that issues every entry
        /// whose producers have committed or completed by `now`, within the
        /// issue width and the unit limits. Returns the sequence numbers it
        /// would issue from the current state, and issues none.
        fn scan_issue(&self, now: u64) -> Vec<u64> {
            let mut issued = Vec::new();
            let completed = |seq: u64, issued: &[u64]| match self.producer(seq) {
                None => true,
                // Issued earlier in this walk: it completes after its
                // latency, and a load after its memory access too.
                Some(p) if issued.contains(&seq) => !p.inst.is_load() && p.inst.exec_latency() == 0,
                Some(p) => p.issued && p.complete_at <= now,
            };
            let (mut int_used, mut mem_used, mut fp_used) = (0, 0, 0);
            for e in &self.rob {
                if issued.len() >= self.config.issue_width as usize {
                    break;
                }
                let (used, units) = if e.inst.op.is_memory() {
                    (&mut mem_used, self.config.mem_units)
                } else if e.inst.op.is_float() {
                    (&mut fp_used, self.config.fp_units)
                } else {
                    (&mut int_used, self.config.int_units)
                };
                let ready = e.deps.as_slice().iter().all(|&p| completed(p, &issued));
                if !e.issued && *used < units && ready {
                    *used += 1;
                    issued.push(e.seq);
                }
            }
            issued
        }
    }

    /// Steps `cores` as the machine does, skipping the cycles they report
    /// idle, and checks every core's issue stage against the whole-ROB scan:
    /// in each stepped cycle both issue the same entries, and in each
    /// skipped cycle the scan issues none. Returns the entries issued.
    fn check_against_scan<S: InstructionStream>(
        mut cores: Vec<OutOfOrderCore<S>>,
        mem: &mut MemoryHierarchy,
        sync: &mut SyncController,
    ) -> u64 {
        let mut now = 0;
        let mut total = 0;
        while cores.iter().any(|c| !c.is_done()) {
            assert!(now < 50_000_000, "the cores must finish");
            for core in &mut cores {
                let expected = core.scan_issue(now);
                let unissued: Vec<u64> = core
                    .rob
                    .iter()
                    .filter(|e| !e.issued)
                    .map(|e| e.seq)
                    .collect();
                core.step_cycle(now, mem, sync);
                let issued: Vec<u64> = unissued
                    .into_iter()
                    .filter(|&seq| core.producer(seq).is_some_and(|e| e.issued))
                    .collect();
                assert_eq!(issued, expected, "core {} at cycle {now}", core.core_id);
                total += issued.len() as u64;
            }
            let next = cores
                .iter()
                .filter(|c| !c.is_done())
                .map(|c| c.next_event(now))
                .min()
                .map_or(now + 1, |t| t.max(now + 1));
            if next > now + 1 {
                // No core's state changes before `next`, and a later cycle
                // only readies more entries.
                for core in &cores {
                    assert_eq!(
                        core.scan_issue(next - 1),
                        [],
                        "core {} skipped cycles {now}..{next}",
                        core.core_id
                    );
                }
            }
            now = next;
        }
        total
    }

    fn check_workload(workload: ThreadedWorkload) {
        let (streams, mut sync) = workload.into_parts();
        let len: u64 = streams.iter().map(|s| s.remaining_hint().unwrap()).sum();
        let mut mem = MemoryHierarchy::new(&MemoryConfig::hpca2010_baseline(streams.len()));
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                OutOfOrderCore::new(
                    i,
                    &DetailedCoreConfig::hpca2010_baseline(),
                    &BranchPredictorConfig::hpca2010_baseline(),
                    s,
                )
            })
            .collect();
        assert_eq!(check_against_scan(cores, &mut mem, &mut sync), len);
    }

    #[test]
    fn ready_list_issues_what_the_rob_scan_issues_on_spec() {
        for name in ["gcc", "gzip", "mcf", "twolf", "swim", "mesa"] {
            let profile = catalog::spec_profile(name).unwrap();
            check_workload(ThreadedWorkload::single(&profile, 7, 15_000));
        }
    }

    #[test]
    fn ready_list_issues_what_the_rob_scan_issues_under_locks_and_barriers() {
        let profile = catalog::parsec_profile("fluidanimate").unwrap();
        assert!(profile.sync.lock_period > 0 && profile.sync.barrier_period > 0);
        check_workload(ThreadedWorkload::multithreaded(&profile, 4, 7, 120_000));
    }

    /// Replays a fixed list of instructions.
    struct Replay(VecDeque<DynInst>);

    impl InstructionStream for Replay {
        fn next_inst(&mut self) -> Option<DynInst> {
            self.0.pop_front()
        }
    }

    /// A hand-built stream that stresses the wakeup: four registers, so
    /// producers have many consumers; both sources on one producer in about
    /// half of the instructions; loads from the lines of earlier stores;
    /// 20-cycle integer and floating-point divides; serializing
    /// instructions; and more loads and stores per cycle than memory units.
    fn hand_built(len: u64, seed: u64) -> Vec<DynInst> {
        let mut x = seed;
        (0..len)
            .map(|seq| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let reg = |shift: u32| Some(1 + ((x >> shift) % 4) as u16);
                let op = match x % 16 {
                    0..=4 => OpClass::Load,
                    5..=6 => OpClass::Store,
                    7 => OpClass::IntDiv,
                    8 => OpClass::FpDiv,
                    9 => OpClass::FpAlu,
                    10 => OpClass::IntMul,
                    11 if (x >> 40) & 7 == 0 => OpClass::Serialize,
                    12 => OpClass::Branch,
                    _ => OpClass::IntAlu,
                };
                let mut inst = DynInst::nop(seq, 0x4000 + 4 * seq);
                inst.op = op;
                inst.srcs = [reg(8), if (x >> 12) & 1 == 0 { reg(8) } else { reg(16) }];
                if !matches!(op, OpClass::Store | OpClass::Branch | OpClass::Serialize) {
                    inst.dst = reg(20);
                }
                if op.is_memory() {
                    inst.mem = Some(MemAccess {
                        vaddr: (((x >> 24) % 16) << 16) | (((x >> 32) % 8) * 8),
                        size: 8,
                        is_store: op == OpClass::Store,
                        shared: false,
                    });
                }
                inst
            })
            .collect()
    }

    #[test]
    fn ready_list_issues_what_the_rob_scan_issues_on_hand_built_streams() {
        for seed in 1..=4 {
            let insts = hand_built(6_000, seed);
            assert!(insts.iter().any(|i| i.is_serializing()));
            assert!(insts.iter().any(|i| i.op == OpClass::IntDiv));
            assert!(insts.iter().any(|i| i.srcs[0] == i.srcs[1]));
            let core = OutOfOrderCore::new(
                0,
                &DetailedCoreConfig::hpca2010_baseline(),
                &BranchPredictorConfig::hpca2010_baseline(),
                Replay(insts.into()),
            );
            let mut mem = MemoryHierarchy::new(&MemoryConfig::hpca2010_baseline(1));
            let mut sync = SyncController::new(1);
            assert_eq!(check_against_scan(vec![core], &mut mem, &mut sync), 6_000);
        }
    }

    #[test]
    fn store_producers_leave_at_commit() {
        let (core, _) = run_core(
            "gcc",
            8_000,
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1),
        );
        assert!(core.stats.stores > 0);
        assert!(
            core.store_producer.is_empty(),
            "a drained core tracks no store producers"
        );
    }

    #[test]
    fn commits_every_instruction() {
        let stats = run_one(
            "gzip",
            5_000,
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1),
        );
        assert_eq!(stats.instructions, 5_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn ipc_is_bounded_by_dispatch_width() {
        let stats = run_one(
            "swim",
            10_000,
            &BranchPredictorConfig::perfect(),
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        let ipc = stats.ipc();
        assert!(
            ipc > 1.0,
            "IPC {ipc} should be high with perfect components"
        );
        assert!(ipc <= 4.0, "IPC {ipc} cannot exceed the 4-wide commit");
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        let perfect = run_one(
            "vpr",
            10_000,
            &BranchPredictorConfig::perfect(),
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        let real = run_one(
            "vpr",
            10_000,
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        assert!(real.branch_mispredictions > 0);
        assert!(real.cycles > perfect.cycles);
    }

    #[test]
    fn memory_misses_cost_cycles() {
        let perfect = run_one(
            "mcf",
            10_000,
            &BranchPredictorConfig::perfect(),
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        let real = run_one(
            "mcf",
            10_000,
            &BranchPredictorConfig::perfect(),
            &MemoryConfig::hpca2010_baseline(1).with_perfect_instruction_side(),
        );
        assert!(
            real.cycles > perfect.cycles * 2,
            "mcf must be strongly memory-bound"
        );
    }

    #[test]
    fn loads_and_stores_are_counted() {
        let stats = run_one(
            "gcc",
            8_000,
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1),
        );
        assert!(stats.loads > 0);
        assert!(stats.stores > 0);
        assert!(stats.loads + stats.stores < stats.instructions);
    }

    #[test]
    fn serializing_instructions_are_observed_in_full_system_profiles() {
        let stats = run_one(
            "x264",
            20_000,
            &BranchPredictorConfig::perfect(),
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        assert!(stats.serializations > 0 || stats.instructions == 20_000);
    }
}
