//! The unified [`CpuModel`] abstraction over the three timing models.
//!
//! The interval, detailed and one-IPC simulators are one multi-core machine
//! ([`iss_interval::Multicore`]) over three per-core timing models.
//! [`AnyMachine`] holds whichever of the three a run uses and is the one
//! [`CpuModel`]: any model can be stepped one interval at a time, turned
//! into a checkpoint, and a model of any kind can be restored from that
//! checkpoint — which is what the [`hybrid`](crate::hybrid) swap controller
//! exploits to trade accuracy for simulated MIPS *during* a run, and what
//! the [`sampling`](crate::sampling) controller uses to move between
//! functional warming and a timing model.
//!
//! A [`ModelCheckpoint`] carries the architectural state every model
//! understands: the functional stream position (unretired instructions +
//! generator, as a [`CheckpointStream`] per core), per-core clocks and
//! retired-instruction counters, the warm branch-predictor tables, the full
//! memory hierarchy (cache/TLB/DRAM warmth) and the synchronization state.
//! There is one way out of a machine, [`AnyMachine::into_lean_checkpoint`],
//! which consumes it, and one way in, [`AnyMachine::restore`]: a fresh run
//! restores from [`ModelCheckpoint::cold`]. A restored model rebuilds its
//! own microarchitectural state (window or ROB occupancy, in-flight misses)
//! from the checkpoint within one interval, which is why a swap degrades
//! accuracy gracefully rather than breaking it.

use iss_branch::BranchUnit;
use iss_detailed::{DetailedSimulator, OneIpcSimulator};
use iss_interval::{IntervalSimulator, Multicore, SimResult, WarmParts};
use iss_mem::{MemoryHierarchy, MemoryStats};
use iss_trace::{CheckpointStream, CoreResume, SyncController, ThreadedWorkload};

use crate::config::SystemConfig;
use crate::runner::{BaseModel, CoreModel, CoreSummary, SimSummary};

/// Transferable machine state, produced by
/// [`AnyMachine::into_lean_checkpoint`] (or [`ModelCheckpoint::cold`] at the
/// start of a run) and consumed by [`AnyMachine::restore`].
#[derive(Debug, Clone)]
pub struct ModelCheckpoint {
    /// The model that produced the checkpoint (a tag for reporting; restore
    /// reads only the state below).
    pub from: BaseModel,
    /// The machine clock at the checkpoint (absolute simulated cycles).
    pub machine_time: u64,
    /// Per-core clocks, retired-instruction counters and completion flags.
    pub per_core: Vec<CoreResume>,
    /// Per-core functional stream position: the instructions the outgoing
    /// model had fetched but not retired, followed by the generator.
    pub streams: Vec<CheckpointStream>,
    /// Warm branch-predictor tables per core (`None` when the producing
    /// model does not predict branches — the one-IPC model — or at the start
    /// of a run, when each core keeps the cold tables it is built with).
    pub branch: Option<Vec<BranchUnit>>,
    /// The full shared memory hierarchy — every resident line, translation
    /// and in-flight DRAM reservation carries over.
    pub memory: MemoryHierarchy,
    /// Lock/barrier/finished state of the workload's threads.
    pub sync: SyncController,
}

impl ModelCheckpoint {
    /// The checkpoint at the start of `workload` on `config`: fresh streams,
    /// every clock and counter at 0, a cold hierarchy and no branch tables.
    /// `from` tags it for reporting only.
    #[must_use]
    pub fn cold(from: BaseModel, config: &SystemConfig, workload: ThreadedWorkload) -> Self {
        let (streams, sync) = workload.into_parts();
        let start = CoreResume {
            time: 0,
            instructions: 0,
            done: false,
        };
        ModelCheckpoint {
            from,
            machine_time: 0,
            per_core: vec![start; streams.len()],
            streams: streams.into_iter().map(CheckpointStream::fresh).collect(),
            branch: None,
            memory: MemoryHierarchy::new(&config.memory),
            sync,
        }
    }

    /// Builds a checkpoint from functional components — the bridge from a
    /// functionally fast-forwarded region into a timing model. `from` tags
    /// the checkpoint for reporting only.
    #[must_use]
    pub fn from_functional(
        from: BaseModel,
        machine_time: u64,
        per_core: Vec<CoreResume>,
        streams: Vec<CheckpointStream>,
        branch: Option<Vec<BranchUnit>>,
        memory: MemoryHierarchy,
        sync: SyncController,
    ) -> Self {
        ModelCheckpoint {
            from,
            machine_time,
            per_core,
            streams,
            branch,
            memory,
            sync,
        }
    }
}

/// The unified interface every timing model implements: step an interval
/// and observe progress. Checkpoints go through
/// [`AnyMachine::into_lean_checkpoint`] and [`AnyMachine::restore`].
pub trait CpuModel {
    /// Which base model this machine runs.
    fn kind(&self) -> BaseModel;

    /// Whether every core has retired its entire stream.
    fn is_done(&self) -> bool;

    /// Total instructions retired chip-wide so far.
    fn retired_instructions(&self) -> u64;

    /// The machine clock (absolute simulated cycles).
    fn machine_time(&self) -> u64;

    /// Advances until at least `insts` more instructions retire chip-wide or
    /// the run completes. Stepping in intervals composes: the machine passes
    /// through exactly the states an uninterrupted run would.
    fn step_interval(&mut self, insts: u64);

    /// Runs the machine to completion.
    fn run_to_completion(&mut self);

    /// Snapshot of the shared memory-hierarchy statistics (the swap
    /// controller reads miss-rate phase signals from consecutive snapshots).
    fn memory_stats(&self) -> MemoryStats;
}

/// A whole simulated machine under any of the three base models — the value
/// the runner and the hybrid swap controller hold. All three variants run on
/// [`CheckpointStream`]s so that plain runs and resumed runs share one code
/// path.
#[derive(Debug, Clone)]
pub enum AnyMachine {
    /// The mechanistic analytical interval model.
    Interval(IntervalSimulator<CheckpointStream>),
    /// The cycle-accurate out-of-order baseline.
    Detailed(DetailedSimulator<CheckpointStream>),
    /// The one-instruction-per-cycle simplification.
    OneIpc(OneIpcSimulator<CheckpointStream>),
}

/// Evaluates `$body` with `$sim` bound to the machine inside whichever
/// variant `$machine` holds.
macro_rules! each {
    ($machine:expr, $sim:ident => $body:expr) => {
        match $machine {
            AnyMachine::Interval($sim) => $body,
            AnyMachine::Detailed($sim) => $body,
            AnyMachine::OneIpc($sim) => $body,
        }
    };
}

impl AnyMachine {
    /// Builds a fresh machine of `kind` for `workload` on `config`: the
    /// restore of a [cold](ModelCheckpoint::cold) checkpoint.
    #[must_use]
    pub fn build(kind: BaseModel, config: &SystemConfig, workload: ThreadedWorkload) -> Self {
        Self::restore(kind, config, ModelCheckpoint::cold(kind, config, workload))
    }

    /// Consumes the machine into a checkpoint **without cloning** the
    /// memory hierarchy, the streams or the branch tables — the transition
    /// the sampled-run controller takes at every timed→functional boundary
    /// and the hybrid swap loop at every swap.
    #[must_use]
    pub fn into_lean_checkpoint(self) -> ModelCheckpoint {
        let from = self.kind();
        each!(self, sim => lean_checkpoint(from, sim.into_warm_parts()))
    }

    /// Restores a machine of `kind` from a checkpoint taken under any model:
    /// builds the cores of `kind` around the checkpoint's streams,
    /// hierarchy and synchronization state, then positions each core at its
    /// resume point and installs the warm branch tables, if any.
    #[must_use]
    pub fn restore(kind: BaseModel, config: &SystemConfig, ckpt: ModelCheckpoint) -> Self {
        // The checkpoint's hierarchy is *moved* into the incoming machine;
        // building the machine with a cold hierarchy and swapping it
        // afterwards would allocate and immediately discard a multi-megabyte
        // cache array per restore — real money when sampled simulation
        // restores at every measured unit.
        let (streams, sync, memory) = (ckpt.streams, ckpt.sync, ckpt.memory);
        let branch = &config.branch;
        let mut machine = match kind {
            BaseModel::Interval => AnyMachine::Interval(Multicore::with_memory(
                &config.interval_core,
                branch,
                streams,
                sync,
                memory,
            )),
            BaseModel::Detailed => AnyMachine::Detailed(Multicore::with_memory(
                &config.detailed_core,
                branch,
                streams,
                sync,
                memory,
            )),
            BaseModel::OneIpc => {
                AnyMachine::OneIpc(Multicore::with_memory(&(), branch, streams, sync, memory))
            }
        };
        each!(&mut machine, sim => sim.resume_cores(ckpt.machine_time, &ckpt.per_core, ckpt.branch));
        machine
    }

    /// Builds the model-independent summary of the machine's current state.
    /// `model` is the tag the summary reports (a hybrid run tags its summary
    /// with the hybrid spec, whatever model happens to be active at the end).
    #[must_use]
    pub fn summary(&self, model: CoreModel, workload_label: String) -> SimSummary {
        each!(self, sim => summarize(sim.result(), model, workload_label))
    }
}

/// Assembles a lean checkpoint from a consumed machine: each core's unretired
/// instructions are queued in front of its stream, and the branch tables
/// travel only when every core had them.
fn lean_checkpoint(from: BaseModel, parts: WarmParts<CheckpointStream>) -> ModelCheckpoint {
    let mut per_core = Vec::with_capacity(parts.cores.len());
    let mut streams = Vec::with_capacity(parts.cores.len());
    let mut branch = Vec::with_capacity(parts.cores.len());
    for core in parts.cores {
        per_core.push(core.resume);
        streams.push(CheckpointStream::resuming_owned(core.pending, core.stream));
        branch.push(core.branch);
    }
    ModelCheckpoint {
        from,
        machine_time: parts.machine_time,
        per_core,
        streams,
        branch: branch.into_iter().collect(),
        memory: parts.memory,
        sync: parts.sync,
    }
}

fn summarize<St>(r: SimResult<St>, model: CoreModel, workload: String) -> SimSummary {
    SimSummary {
        model,
        workload,
        cycles: r.cycles,
        per_core: r
            .per_core
            .iter()
            .map(|c| CoreSummary {
                core: c.core,
                instructions: c.instructions,
                cycles: c.cycles,
            })
            .collect(),
        total_instructions: r.total_instructions,
        host_seconds: r.host_seconds,
        memory: r.memory,
        swaps: 0,
        sampling: None,
    }
}

impl CpuModel for AnyMachine {
    fn kind(&self) -> BaseModel {
        match self {
            AnyMachine::Interval(_) => BaseModel::Interval,
            AnyMachine::Detailed(_) => BaseModel::Detailed,
            AnyMachine::OneIpc(_) => BaseModel::OneIpc,
        }
    }

    fn is_done(&self) -> bool {
        each!(self, sim => sim.is_done())
    }

    fn retired_instructions(&self) -> u64 {
        each!(self, sim => sim.total_retired())
    }

    fn machine_time(&self) -> u64 {
        each!(self, sim => sim.machine_time())
    }

    fn step_interval(&mut self, insts: u64) {
        each!(self, sim => sim.step_interval(insts));
    }

    fn run_to_completion(&mut self) {
        each!(self, sim => {
            sim.run();
        });
    }

    fn memory_stats(&self) -> MemoryStats {
        each!(self, sim => sim.memory().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn machine(kind: BaseModel, benchmark: &str, len: u64) -> AnyMachine {
        let config = SystemConfig::hpca2010_baseline(1);
        let built = WorkloadSpec::single(benchmark, len).build(7).unwrap();
        AnyMachine::build(kind, &config, built)
    }

    #[test]
    fn stepping_in_intervals_reaches_completion() {
        let mut m = machine(BaseModel::Interval, "gcc", 6_000);
        assert!(!m.is_done());
        let mut steps = 0;
        while !m.is_done() {
            m.step_interval(1_000);
            steps += 1;
            assert!(steps < 100, "stepping must terminate");
        }
        assert_eq!(m.retired_instructions(), 6_000);
        assert!(m.machine_time() > 0);
    }

    #[test]
    fn stepped_run_matches_uninterrupted_run() {
        let config = SystemConfig::hpca2010_baseline(1);
        let spec = WorkloadSpec::single("mcf", 5_000);
        for kind in [BaseModel::Interval, BaseModel::Detailed, BaseModel::OneIpc] {
            let mut whole = AnyMachine::build(kind, &config, spec.build(3).unwrap());
            whole.run_to_completion();
            let mut stepped = AnyMachine::build(kind, &config, spec.build(3).unwrap());
            while !stepped.is_done() {
                stepped.step_interval(700);
            }
            let a = whole.summary(kind.into(), "mcf".into());
            let b = stepped.summary(kind.into(), "mcf".into());
            assert_eq!(
                a.canonical_record(),
                b.canonical_record(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn checkpoint_reports_warmth_and_stream_position() {
        let mut m = machine(BaseModel::Detailed, "gzip", 4_000);
        m.step_interval(2_000);
        let ckpt = m.into_lean_checkpoint();
        assert_eq!(ckpt.from, BaseModel::Detailed);
        assert_eq!(ckpt.per_core.len(), 1);
        assert!(ckpt.per_core[0].instructions >= 2_000);
        let warmth = ckpt.memory.warmth_summary();
        assert!(warmth.l1d > 0.0, "the L1D must be warm after 2k insts");
        assert!(ckpt.branch.is_some());
        // Replayed + remaining instructions account for the full stream.
        let replay = ckpt.streams[0].replay_len() as u64;
        assert!(replay > 0, "the ROB/fetch queue must hold in-flight work");
    }
}
