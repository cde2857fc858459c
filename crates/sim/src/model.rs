//! The unified [`CpuModel`] abstraction over the three timing models.
//!
//! The interval, detailed and one-IPC simulators are one multi-core machine
//! ([`iss_interval::Multicore`]) over three per-core timing models.
//! [`AnyMachine`] holds whichever of the three a run uses and is the one
//! [`CpuModel`]: any model can be stepped one interval at a time,
//! checkpointed, and a *different* model can be restored from the
//! checkpoint — which is what the [`hybrid`](crate::hybrid) swap controller
//! exploits to trade accuracy for simulated MIPS *during* a run.
//!
//! A [`ModelCheckpoint`] carries two kinds of state:
//!
//! * the **transferable architectural state** every model understands — the
//!   functional stream position (unretired instructions + generator, as a
//!   [`CheckpointStream`] per core), per-core clocks and retired-instruction
//!   counters, the warm branch-predictor tables, the full memory hierarchy
//!   (cache/TLB/DRAM warmth) and the synchronization state;
//! * the **exact microarchitectural state** of the producing model (window
//!   occupancy and overlap flags, old-window register producer state, ROB
//!   contents), captured as a deep copy of the machine. Restoring into the
//!   *same* model uses it, which makes `restore(checkpoint())` a true
//!   identity; restoring into a *different* model warms the incoming cores
//!   from the transferable state and lets them rebuild their own
//!   microarchitectural state within one interval — the graceful-degradation
//!   path a hybrid swap takes.

use iss_branch::BranchUnit;
use iss_detailed::{DetailedSimulator, OneIpcSimulator};
use iss_interval::{IntervalSimulator, Multicore, SimResult, WarmParts};
use iss_mem::{MemoryHierarchy, MemoryStats};
use iss_trace::{CheckpointStream, CoreResume, SyncController, ThreadedWorkload};

use crate::config::SystemConfig;
use crate::runner::{BaseModel, CoreModel, CoreSummary, SimSummary};

/// Checkpointed machine state, produced by [`CpuModel::checkpoint`] and
/// consumed by [`AnyMachine::restore`].
#[derive(Debug, Clone)]
pub struct ModelCheckpoint {
    /// The model that produced the checkpoint.
    pub from: BaseModel,
    /// The machine clock at the checkpoint (absolute simulated cycles).
    pub machine_time: u64,
    /// Per-core clocks, retired-instruction counters and completion flags.
    pub per_core: Vec<CoreResume>,
    /// Per-core functional stream position: the instructions the outgoing
    /// model had fetched but not retired, followed by the generator.
    pub streams: Vec<CheckpointStream>,
    /// Warm branch-predictor tables per core (`None` when the producing
    /// model does not predict branches — the one-IPC model).
    pub branch: Option<Vec<BranchUnit>>,
    /// The full shared memory hierarchy — every resident line, translation
    /// and in-flight DRAM reservation carries over.
    pub memory: MemoryHierarchy,
    /// Lock/barrier/finished state of the workload's threads.
    pub sync: SyncController,
    /// Deep copy of the producing machine, for exact same-model resume.
    /// Absent in lean checkpoints ([`AnyMachine::into_lean_checkpoint`]),
    /// which the hybrid swap path takes — a swap restores into a *different*
    /// model, so it never consults the exact copy and need not pay for it.
    exact: Option<Box<AnyMachine>>,
}

impl ModelCheckpoint {
    /// Builds a transferable-state-only checkpoint from functional
    /// components — the bridge the sampled-simulation controller takes from
    /// a functionally fast-forwarded prefix into a timing model. `from` tags
    /// the checkpoint for reporting only: with no exact machine copy, any
    /// [`AnyMachine::restore`] of this checkpoint takes the warm-restore
    /// path regardless of the tag.
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
            exact: None,
        }
    }
}

/// The unified interface every timing model implements: step an interval,
/// observe progress, and checkpoint the machine state.
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

    /// Captures the transferable architectural state only (no exact
    /// same-model resume copy), leaving the machine running. A caller that
    /// owns the machine takes [`AnyMachine::into_lean_checkpoint`] instead,
    /// which copies nothing.
    fn checkpoint_lean(&self) -> ModelCheckpoint;

    /// Captures the full machine state (see [`ModelCheckpoint`]): the
    /// transferable state plus an exact copy of the producing machine, so a
    /// same-model [`AnyMachine::restore`] is a true identity.
    fn checkpoint(&self) -> ModelCheckpoint;
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
    /// Builds a fresh machine of `kind` for `workload` on `config`.
    #[must_use]
    pub fn build(kind: BaseModel, config: &SystemConfig, workload: ThreadedWorkload) -> Self {
        let (streams, sync) = workload.into_parts();
        let streams = streams.into_iter().map(CheckpointStream::fresh).collect();
        let memory = MemoryHierarchy::new(&config.memory);
        Self::with_memory(kind, config, streams, sync, memory)
    }

    fn with_memory(
        kind: BaseModel,
        config: &SystemConfig,
        streams: Vec<CheckpointStream>,
        sync: SyncController,
        memory: MemoryHierarchy,
    ) -> Self {
        let branch = &config.branch;
        match kind {
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
        }
    }

    /// Consumes the machine into a lean checkpoint **without cloning** the
    /// memory hierarchy, the streams or the branch tables — the cheap
    /// transition a caller that owns the machine takes (the sampled-run
    /// controller at every timed→functional boundary, the hybrid swap loop
    /// at every swap).
    #[must_use]
    pub fn into_lean_checkpoint(self) -> ModelCheckpoint {
        let from = self.kind();
        each!(self, sim => lean_checkpoint(from, sim.into_warm_parts()))
    }

    /// Restores a machine of `kind` from a checkpoint. Same-model restores
    /// resume the exact captured state when the checkpoint carries it (a
    /// true identity); cross-model restores — and same-model restores from
    /// lean checkpoints — build a fresh machine of `kind` and warm it from
    /// the checkpoint's transferable state.
    #[must_use]
    pub fn restore(kind: BaseModel, config: &SystemConfig, ckpt: ModelCheckpoint) -> Self {
        if kind == ckpt.from {
            if let Some(exact) = ckpt.exact {
                return *exact;
            }
        }
        // The checkpoint's warm hierarchy is *moved* into the incoming
        // machine; building the machine cold and swapping the hierarchy
        // afterwards would allocate and immediately discard a multi-megabyte
        // cache array per restore — real money when sampled simulation
        // restores at every measured unit.
        let mut machine = Self::with_memory(kind, config, ckpt.streams, ckpt.sync, ckpt.memory);
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
        exact: None,
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

    fn checkpoint_lean(&self) -> ModelCheckpoint {
        self.clone().into_lean_checkpoint()
    }

    fn checkpoint(&self) -> ModelCheckpoint {
        let mut ckpt = self.checkpoint_lean();
        ckpt.exact = Some(Box::new(self.clone()));
        ckpt
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
        let ckpt = m.checkpoint();
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
