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
//! The core is stepped cycle by cycle only while something moves. After a
//! cycle in which no stage made progress, it tells the machine the earliest
//! cycle in which anything can change and charges the cycles skipped until
//! then to its stall counters, so its statistics are exactly those of a
//! core stepped every cycle.

use std::collections::VecDeque;

use iss_branch::{BranchPredictorConfig, BranchUnit};
use iss_interval::{CoreWarmParts, SimCore};
use iss_mem::MemoryHierarchy;
use iss_trace::{
    CoreResume, DynInst, FxHashMap, InstructionStream, SyncController, SyncOp, ThreadId,
    NUM_ARCH_REGS,
};

use crate::config::DetailedCoreConfig;
use crate::stats::DetailedCoreStats;

const LINE_SHIFT: u32 = 6;

#[derive(Debug, Clone)]
struct FetchEntry {
    inst: DynInst,
    /// Cycle at which the instruction has traversed the front-end pipeline
    /// and may dispatch.
    dispatch_ready_at: u64,
}

/// Sequence numbers of the in-flight producers one instruction waits for:
/// at most two register sources plus one store-to-load memory dependence, so
/// the list lives inline in the ROB entry — dispatching an instruction
/// allocates nothing.
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
    /// In-flight producers this instruction waits for.
    deps: DepList,
    issued: bool,
    complete_at: u64,
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
        let (issued, next_completion) = self.issue(now, mem);
        let dispatch = self.dispatch(now, sync);
        let fetched = self.fetch(now, mem);

        if let Dispatch::Idle { serializing } = dispatch {
            if !(committed || issued || fetched) {
                self.idle = Some(IdleStep {
                    at: now,
                    wake: self.wake_time(now, next_completion),
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
    /// The earliest time after `now` at which an idle step can change,
    /// given the earliest completion after `now` in the ROB.
    fn wake_time(&self, now: u64, next_completion: u64) -> u64 {
        let mut wake = next_completion;
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

    fn deps_ready(&self, deps: &DepList, now: u64) -> bool {
        deps.as_slice().iter().all(|&seq| match self.producer(seq) {
            None => true,
            Some(p) => p.issued && p.complete_at <= now,
        })
    }

    /// Issues ready instructions. Returns whether any issued, and the
    /// earliest completion after `now` among entries issued in earlier
    /// steps.
    fn issue(&mut self, now: u64, mem: &mut MemoryHierarchy) -> (bool, u64) {
        let mut issued = 0;
        let mut int_used = 0;
        let mut mem_used = 0;
        let mut fp_used = 0;
        let mut next_completion = u64::MAX;
        let core = self.core_id;
        for idx in 0..self.rob.len() {
            if issued >= self.config.issue_width {
                break;
            }
            let (op, is_issued, complete_at) = {
                let e = &self.rob[idx];
                (e.inst.op, e.issued, e.complete_at)
            };
            if is_issued {
                if complete_at > now {
                    next_completion = next_completion.min(complete_at);
                }
                continue;
            }
            let unit_available = if op.is_memory() {
                mem_used < self.config.mem_units
            } else if op.is_float() {
                fp_used < self.config.fp_units
            } else {
                int_used < self.config.int_units
            };
            if !unit_available {
                continue;
            }
            let ready = {
                let e = &self.rob[idx];
                self.deps_ready(&e.deps, now)
            };
            if !ready {
                continue;
            }
            // Issue: loads and stores access the memory hierarchy now, which
            // is what lets independent misses overlap (MLP) and contend for
            // the shared L2 and DRAM bandwidth.
            let extra = {
                let e = &self.rob[idx];
                match &e.inst.mem {
                    Some(acc) => {
                        let resp = mem.access_data(core, acc.vaddr, acc.is_store, now);
                        if acc.is_store {
                            self.stats.stores += 1;
                            // Stores retire from the store buffer off the
                            // critical path; their miss latency is not part
                            // of the dependence chain.
                            0
                        } else {
                            self.stats.loads += 1;
                            resp.latency
                        }
                    }
                    None => 0,
                }
            };
            let e = &mut self.rob[idx];
            e.issued = true;
            e.complete_at = now + e.inst.exec_latency() + extra;
            let complete_at = e.complete_at;
            let inst_seq = e.inst.seq;
            self.iq_occupancy -= 1;
            if self.fetch_wait_branch == Some(inst_seq) {
                // The mispredicted branch resolves when it executes; fetch is
                // redirected the cycle after. (The front-end refill itself is
                // already modeled by the fetch-to-dispatch latency of the
                // newly fetched instructions.)
                self.fetch_blocked_until = self.fetch_blocked_until.max(complete_at + 1);
                self.fetch_wait_branch = None;
            }
            if op.is_memory() {
                mem_used += 1;
            } else if op.is_float() {
                fp_used += 1;
            } else {
                int_used += 1;
            }
            issued += 1;
        }
        (issued > 0, next_completion)
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
                match op {
                    SyncOp::BarrierArrive { id } => {
                        sync.arrive_barrier(self.core_id, id);
                    }
                    SyncOp::LockAcquire { id } => {
                        if !sync.try_acquire(self.core_id, id) {
                            sync_failed = true;
                            break;
                        }
                    }
                    SyncOp::LockRelease { id } => sync.release(self.core_id, id),
                    SyncOp::ThreadSpawn => {}
                    SyncOp::ThreadJoin { child } => {
                        if !sync.join(self.core_id, child) {
                            sync_failed = true;
                            break;
                        }
                    }
                }
            }

            let fe = self.fetch_queue.pop_front().expect("front checked above");
            let inst = fe.inst;
            let seq = self.next_seq;
            self.next_seq += 1;
            // Capture data dependences on in-flight producers.
            let mut deps = DepList::default();
            for src in inst.src_regs() {
                if let Some(Some(pseq)) = self.reg_producer.get(src as usize).copied() {
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
                let i = dst as usize;
                if i >= self.reg_producer.len() {
                    // Beyond the architectural set: only hand-built test
                    // instructions get here; grow once and keep going.
                    self.reg_producer.resize(i + 1, None);
                }
                self.reg_producer[i] = Some(seq);
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
            self.iq_occupancy += 1;
            self.rob.push_back(RobEntry {
                inst,
                seq,
                deps,
                issued: false,
                complete_at: 0,
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
    use iss_trace::{catalog, SyntheticStream};

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
