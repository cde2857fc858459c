//! The multi-core machine, shared by every core model.
//!
//! [`Multicore`] owns one core per simulated core, the shared
//! [`MemoryHierarchy`] (caches, MOESI coherence, DRAM bandwidth) and the
//! shared [`SyncController`]. It advances a global multi-core simulated time
//! (line 74 of the paper's pseudocode); each core only performs work in
//! cycles where its per-core simulated time has caught up with the
//! multi-core time, which makes the core-level simulation event-driven while
//! keeping the shared-resource simulation cycle-ordered.
//!
//! Interval simulation replaces only the per-core timing model, so the
//! machine is generic over the core ([`SimCore`]): [`IntervalSimulator`]
//! runs interval cores, and the detailed and one-IPC simulators of
//! `iss-detailed` are the same driver over their own cores.

use iss_branch::{BranchPredictorConfig, BranchStats, BranchUnit};
use iss_mem::{MemoryConfig, MemoryHierarchy, MemoryStats};
use iss_trace::host_time::HostTimer;
use iss_trace::{
    CoreResume, DynInst, InstructionStream, SyncController, SyntheticStream, ThreadId,
    ThreadedWorkload,
};

use crate::core_model::IntervalCore;
use crate::stats::CoreResult;

/// The per-core timing model a [`Multicore`] machine drives.
pub trait SimCore {
    /// The instruction source feeding the core.
    type Stream: InstructionStream;
    /// The core's own configuration (`()` for a model without one).
    type Config;
    /// The statistics the core accumulates.
    type Stats: Copy;

    /// Creates core `core_id` fed by `stream`. A model without a branch
    /// predictor ignores `branch_config`.
    fn new(
        core_id: ThreadId,
        config: &Self::Config,
        branch_config: &BranchPredictorConfig,
        stream: Self::Stream,
    ) -> Self;

    /// Simulates one cycle at multi-core time `now`.
    fn step_cycle(&mut self, now: u64, mem: &mut MemoryHierarchy, sync: &mut SyncController);

    /// The earliest multi-core time at which an unfinished core, stepped at
    /// `now`, can next change any state. The machine skips ahead to the
    /// earliest such time over all cores. A core that counts per-cycle
    /// statistics charges the skipped cycles itself, at its next step or in
    /// [`SimCore::stats`]. A core that must see every cycle returns
    /// `now + 1`.
    fn next_event(&self, now: u64) -> u64;

    /// Whether the core has retired its entire stream.
    fn is_done(&self) -> bool;

    /// The core index.
    fn core_id(&self) -> ThreadId;

    /// Statistics accumulated up to multi-core time `now`, including any
    /// cycles the machine skipped since the core's last step.
    fn stats(&self, now: u64) -> Self::Stats;

    /// Instructions retired so far.
    fn retired(&self) -> u64;

    /// The cycle count this core reports at multi-core time `now`: its final
    /// count once done, otherwise the clock the model reports progress by.
    fn cycles(&self, now: u64) -> u64;

    /// Consumes the core into its transferable warm state; `now` is the
    /// multi-core time. Nothing is cloned.
    fn into_warm_parts(self, now: u64) -> CoreWarmParts<Self::Stream>;

    /// Positions a freshly built core at a checkpoint's resume point: its
    /// clock, its retired-instruction base, and (for cores that had already
    /// finished) the final state.
    fn resume_at(&mut self, resume: &CoreResume);

    /// The branch-prediction front-end (`None` for a model that predicts no
    /// branches).
    fn branch_unit(&self) -> Option<&BranchUnit>;

    /// Replaces the branch front-end with `unit`, typically a warm one
    /// carried over from an outgoing model (ignored by a model without one).
    fn install_branch_unit(&mut self, unit: BranchUnit);
}

/// Result of a multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult<St> {
    /// Multi-core simulated cycles until the last core finished.
    pub cycles: u64,
    /// Per-core results (instructions, per-core cycles, model statistics).
    pub per_core: Vec<CoreResult<St>>,
    /// Per-core branch prediction statistics (empty for a model that
    /// predicts no branches).
    pub branch: Vec<BranchStats>,
    /// Shared memory-hierarchy statistics.
    pub memory: MemoryStats,
    /// Host wall-clock seconds the simulation took (used for the speedup
    /// figures 9 and 10).
    pub host_seconds: f64,
    /// Total instructions simulated across all cores.
    pub total_instructions: u64,
}

impl<St> SimResult<St> {
    /// Aggregate instructions per cycle over the whole chip.
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_instructions as f64 / self.cycles as f64
        }
    }

    /// Host simulation speed in simulated instructions per host second.
    #[must_use]
    pub fn instructions_per_host_second(&self) -> f64 {
        if self.host_seconds <= 0.0 {
            0.0
        } else {
            self.total_instructions as f64 / self.host_seconds
        }
    }
}

/// Transferable warm state of one core, extracted by *consuming* the core:
/// nothing in here is cloned, which is what makes frequent timed→functional
/// transitions in sampled simulation cheap.
#[derive(Debug)]
pub struct CoreWarmParts<S> {
    /// The core's resume point (clock, retired instructions, done flag).
    pub resume: CoreResume,
    /// Instructions fetched but not yet retired, oldest first.
    pub pending: Vec<DynInst>,
    /// The core's instruction stream, positioned after the pending
    /// instructions.
    pub stream: S,
    /// The warm branch-prediction front-end (`None` for a model that
    /// predicts no branches).
    pub branch: Option<BranchUnit>,
}

/// Transferable warm state of a whole machine, extracted by *consuming* the
/// simulator — the clone-free counterpart of a lean checkpoint, for callers
/// that own the machine (the sampled-simulation controller deconstructs a
/// timing model this way at every timed→functional transition).
#[derive(Debug)]
pub struct WarmParts<S> {
    /// The machine clock (absolute simulated cycles).
    pub machine_time: u64,
    /// Per-core warm state, in core order.
    pub cores: Vec<CoreWarmParts<S>>,
    /// The shared memory hierarchy, moved out intact.
    pub memory: MemoryHierarchy,
    /// The shared synchronization state, moved out intact.
    pub sync: SyncController,
}

/// A multi-core machine of `C` cores over one shared memory hierarchy and
/// synchronization state.
#[derive(Debug, Clone)]
pub struct Multicore<C> {
    cores: Vec<C>,
    mem: MemoryHierarchy,
    sync: SyncController,
    time: u64,
    /// Host wall-clock seconds accumulated across all advancement calls
    /// (`run_with_limit` and `step_interval` both add to it).
    host_seconds: f64,
}

/// Multi-core interval simulator.
pub type IntervalSimulator<S> = Multicore<IntervalCore<S>>;

impl<C: SimCore> Multicore<C> {
    /// Builds a machine from per-core instruction streams and a shared
    /// synchronization controller.
    ///
    /// # Panics
    ///
    /// Panics if the number of streams does not match the memory
    /// configuration's core count or the synchronization controller's thread
    /// count, or if any configuration is invalid.
    #[must_use]
    pub fn new(
        core_config: &C::Config,
        branch_config: &BranchPredictorConfig,
        mem_config: &MemoryConfig,
        streams: Vec<C::Stream>,
        sync: SyncController,
    ) -> Self {
        Self::with_memory(
            core_config,
            branch_config,
            streams,
            sync,
            MemoryHierarchy::new(mem_config),
        )
    }

    /// Like [`Multicore::new`], but adopts an existing (typically warm)
    /// memory hierarchy instead of building a cold one — the restore path
    /// takes this so a checkpointed hierarchy is *moved* in rather than a
    /// fresh multi-megabyte hierarchy being allocated and immediately
    /// replaced.
    ///
    /// # Panics
    ///
    /// Panics if the stream, synchronization and hierarchy core counts
    /// disagree or any configuration is invalid.
    #[must_use]
    pub fn with_memory(
        core_config: &C::Config,
        branch_config: &BranchPredictorConfig,
        streams: Vec<C::Stream>,
        sync: SyncController,
        memory: MemoryHierarchy,
    ) -> Self {
        assert_eq!(
            streams.len(),
            memory.num_cores(),
            "one instruction stream per core is required"
        );
        assert_eq!(
            streams.len(),
            sync.num_threads(),
            "the synchronization controller must cover every core"
        );
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| C::new(i, core_config, branch_config, s))
            .collect();
        Multicore {
            cores,
            mem: memory,
            sync,
            time: 0,
            host_seconds: 0.0,
        }
    }

    /// The multi-core simulated time reached so far.
    #[must_use]
    pub fn machine_time(&self) -> u64 {
        self.time
    }

    /// Whether every core has retired its entire stream.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(C::is_done)
    }

    /// Total instructions retired so far across all cores.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(C::retired).sum()
    }

    /// The shared memory hierarchy.
    #[must_use]
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Runs the simulation to completion and returns the result.
    pub fn run(&mut self) -> SimResult<C::Stats> {
        self.run_with_limit(u64::MAX)
    }

    /// Runs the simulation until every core finished or `max_cycles` elapsed.
    pub fn run_with_limit(&mut self, max_cycles: u64) -> SimResult<C::Stats> {
        let start = HostTimer::start();
        self.advance(max_cycles, u64::MAX);
        self.host_seconds += start.elapsed_seconds();
        self.result()
    }

    /// Advances the simulation until at least `insts` more instructions have
    /// retired chip-wide (or every core finished). This is the quantum the
    /// hybrid swap controller steps a model by; between calls the simulator
    /// is in exactly the state a continued `run` would have passed through,
    /// so stepping in intervals is bit-identical to one uninterrupted run.
    pub fn step_interval(&mut self, insts: u64) {
        let start = HostTimer::start();
        let target = self.total_retired().saturating_add(insts);
        self.advance(u64::MAX, target);
        self.host_seconds += start.elapsed_seconds();
    }

    fn advance(&mut self, max_cycles: u64, inst_target: u64) {
        let track = inst_target != u64::MAX;
        if self.time >= max_cycles || self.is_done() {
            return;
        }
        if track && self.total_retired() >= inst_target {
            return;
        }
        loop {
            for core in &mut self.cores {
                core.step_cycle(self.time, &mut self.mem, &mut self.sync);
            }
            // Event-driven skip: no shared state evolves on its own between
            // now and the earliest next event of a live core, so jumping
            // straight there is behaviour-identical to stepping empty cycles
            // — and it is what makes memory-bound runs fast. Interval cores
            // skip their miss-event penalties and detailed cores the cycles
            // in which no pipeline stage can move. Cores blocked on
            // synchronization ask for `time + 1`, so those stalls are still
            // stepped (and counted) cycle by cycle; one-IPC cores always ask
            // for the next cycle. The skip never passes `max_cycles`, so a
            // limited run stops at the same machine time as a stepped one.
            //
            // One pass over the cores serves the skip, the all-done check and
            // the retirement target — this loop header runs once per
            // simulated event.
            let mut next_event = u64::MAX;
            let mut all_done = true;
            let mut retired = 0u64;
            for core in &self.cores {
                if !core.is_done() {
                    all_done = false;
                    next_event = next_event.min(core.next_event(self.time));
                }
                if track {
                    retired += core.retired();
                }
            }
            self.time = if next_event != u64::MAX && next_event > self.time {
                next_event.min(max_cycles)
            } else {
                self.time + 1
            };
            if self.time >= max_cycles || all_done {
                return;
            }
            if track && retired >= inst_target {
                return;
            }
        }
    }

    /// Positions a machine built over an already-transferred hierarchy
    /// ([`Multicore::with_memory`]) at a checkpoint: the machine clock, each
    /// core's resume point and, when the outgoing model had them, the warm
    /// branch-predictor tables.
    ///
    /// # Panics
    ///
    /// Panics if the transferred state does not cover every core.
    pub fn resume_cores(
        &mut self,
        machine_time: u64,
        per_core: &[CoreResume],
        branch: Option<Vec<BranchUnit>>,
    ) {
        assert_eq!(
            per_core.len(),
            self.cores.len(),
            "one resume point per core is required"
        );
        self.time = machine_time;
        for (core, resume) in self.cores.iter_mut().zip(per_core) {
            core.resume_at(resume);
        }
        for (core, unit) in self.cores.iter_mut().zip(branch.into_iter().flatten()) {
            core.install_branch_unit(unit);
        }
    }

    /// Consumes the simulator into its transferable warm state without
    /// cloning the memory hierarchy, the streams or the branch tables.
    #[must_use]
    pub fn into_warm_parts(self) -> WarmParts<C::Stream> {
        let now = self.time;
        WarmParts {
            machine_time: now,
            cores: self
                .cores
                .into_iter()
                .map(|c| c.into_warm_parts(now))
                .collect(),
            memory: self.mem,
            sync: self.sync,
        }
    }

    /// Builds the result for the current state (accumulated host time).
    #[must_use]
    pub fn result(&self) -> SimResult<C::Stats> {
        let per_core: Vec<CoreResult<C::Stats>> = self
            .cores
            .iter()
            .map(|c| CoreResult {
                core: c.core_id(),
                instructions: c.retired(),
                cycles: c.cycles(self.time),
                stats: c.stats(self.time),
            })
            .collect();
        SimResult {
            cycles: per_core.iter().map(|c| c.cycles).max().unwrap_or(0),
            total_instructions: per_core.iter().map(|c| c.instructions).sum(),
            per_core,
            branch: self
                .cores
                .iter()
                .filter_map(|c| c.branch_unit().map(BranchUnit::stats))
                .collect(),
            memory: self.mem.stats(),
            host_seconds: self.host_seconds,
        }
    }
}

impl<C: SimCore<Stream = SyntheticStream>> Multicore<C> {
    /// Convenience constructor from a [`ThreadedWorkload`].
    ///
    /// # Panics
    ///
    /// Panics if the workload's core count does not match `mem_config`.
    #[must_use]
    pub fn from_workload(
        core_config: &C::Config,
        branch_config: &BranchPredictorConfig,
        mem_config: &MemoryConfig,
        workload: ThreadedWorkload,
    ) -> Self {
        let (streams, sync) = workload.into_parts();
        Self::new(core_config, branch_config, mem_config, streams, sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IntervalCoreConfig;
    use iss_trace::catalog;

    fn baseline(cores: usize) -> (IntervalCoreConfig, BranchPredictorConfig, MemoryConfig) {
        (
            IntervalCoreConfig::hpca2010_baseline(),
            BranchPredictorConfig::hpca2010_baseline(),
            MemoryConfig::hpca2010_baseline(cores),
        )
    }

    #[test]
    fn single_core_run_completes_and_reports() {
        let (c, b, m) = baseline(1);
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::single(&p, 3, 20_000);
        let mut sim = IntervalSimulator::from_workload(&c, &b, &m, w);
        let r = sim.run();
        assert_eq!(r.per_core.len(), 1);
        assert_eq!(r.total_instructions, 20_000);
        assert!(r.cycles > 0);
        assert!(r.per_core[0].ipc() > 0.1 && r.per_core[0].ipc() <= 4.0);
        assert!(r.host_seconds > 0.0);
    }

    #[test]
    fn multiprogram_runs_all_copies() {
        let (c, b, m) = baseline(4);
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::multiprogram_homogeneous(&p, 4, 9, 8_000);
        let mut sim = IntervalSimulator::from_workload(&c, &b, &m, w);
        let r = sim.run();
        assert_eq!(r.per_core.len(), 4);
        for core in &r.per_core {
            assert_eq!(core.instructions, 8_000);
            assert!(core.cycles > 0);
        }
    }

    #[test]
    fn l2_sharing_hurts_memory_bound_copies() {
        // The Figure 6 trend: co-running more copies of mcf degrades per-copy
        // IPC because they fight over the shared L2 and memory bandwidth.
        let p = catalog::spec_profile("mcf").unwrap();
        let (c, b, _) = baseline(1);
        let single = {
            let w = ThreadedWorkload::multiprogram_homogeneous(&p, 1, 5, 8_000);
            let mut sim =
                IntervalSimulator::from_workload(&c, &b, &MemoryConfig::hpca2010_baseline(1), w);
            sim.run().per_core[0].ipc()
        };
        let four_copies = {
            let w = ThreadedWorkload::multiprogram_homogeneous(&p, 4, 5, 8_000);
            let mut sim =
                IntervalSimulator::from_workload(&c, &b, &MemoryConfig::hpca2010_baseline(4), w);
            let r = sim.run();
            r.per_core.iter().map(CoreResult::ipc).sum::<f64>() / 4.0
        };
        assert!(
            four_copies < single,
            "per-copy IPC with 4 copies ({four_copies:.3}) must be below the solo IPC ({single:.3})"
        );
    }

    #[test]
    fn multithreaded_run_synchronizes_and_finishes() {
        let (c, b, m) = baseline(4);
        let p = catalog::parsec_profile("fluidanimate").unwrap();
        let w = ThreadedWorkload::multithreaded(&p, 4, 11, 200_000);
        let mut sim = IntervalSimulator::from_workload(&c, &b, &m, w);
        let r = sim.run_with_limit(200_000_000);
        assert_eq!(r.total_instructions, 200_000);
        let blocked: u64 = r.per_core.iter().map(|c| c.stats.sync_blocked_cycles).sum();
        assert!(
            blocked > 0,
            "a lock/barrier-heavy workload must block at least once"
        );
    }

    #[test]
    fn scalable_workload_speeds_up_with_more_cores() {
        let p = catalog::parsec_profile("blackscholes").unwrap();
        let (c, b, _) = baseline(1);
        let run = |cores: usize| {
            let w = ThreadedWorkload::multithreaded(&p, cores, 13, 60_000);
            let mut sim = IntervalSimulator::from_workload(
                &c,
                &b,
                &MemoryConfig::hpca2010_baseline(cores),
                w,
            );
            sim.run().cycles
        };
        let one = run(1);
        let four = run(4);
        assert!(
            (four as f64) < 0.6 * one as f64,
            "blackscholes on 4 cores ({four}) must be much faster than on 1 core ({one})"
        );
    }

    #[test]
    fn run_with_limit_stops_early() {
        let (c, b, m) = baseline(1);
        let p = catalog::spec_profile("mcf").unwrap();
        let w = ThreadedWorkload::single(&p, 3, 50_000);
        let mut sim = IntervalSimulator::from_workload(&c, &b, &m, w);
        let r = sim.run_with_limit(100);
        // Per-core time may run slightly past the global limit because the
        // last dispatched instruction can carry a miss-event penalty.
        assert!(r.cycles < 100 + 1000);
        assert!(r.total_instructions < 50_000);
    }

    #[test]
    #[should_panic(expected = "one instruction stream per core")]
    fn mismatched_core_count_panics() {
        let (c, b, m) = baseline(2);
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::single(&p, 3, 1_000);
        let _ = IntervalSimulator::from_workload(&c, &b, &m, w);
    }
}
