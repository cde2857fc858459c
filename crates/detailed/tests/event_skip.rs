//! The detailed core's idle-cycle skip against stepping every cycle.
//!
//! `OutOfOrderCore::next_event` lets the machine jump over cycles in which no
//! pipeline stage can move. `EveryCycle` wraps a core and asks for every
//! cycle instead, so the two machines must agree on everything they report:
//! every statistic, the clock, and the warm state handed to the next model —
//! on one, two and four cores, with and without synchronization.

use std::cell::Cell;

use iss_branch::{BranchPredictorConfig, BranchStats, BranchUnit};
use iss_detailed::{DetailedCoreConfig, DetailedCoreStats, OutOfOrderCore};
use iss_interval::{CoreWarmParts, Multicore, SimCore, SimResult, WarmParts};
use iss_mem::{MemoryConfig, MemoryHierarchy};
use iss_trace::{
    catalog, CheckpointStream, CoreResume, DynInst, InstructionStream, SyncController, ThreadId,
    ThreadedWorkload, WorkloadProfile,
};

type Core = OutOfOrderCore<CheckpointStream>;

thread_local! {
    static STEPS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to `C` and counts its steps in `STEPS`. With `EVERY` it asks
/// the machine for every cycle instead of for `C`'s next event.
struct Stepped<C, const EVERY: bool>(C);

type EveryCycle<C> = Stepped<C, true>;
type Counted<C> = Stepped<C, false>;

impl<C: SimCore, const EVERY: bool> SimCore for Stepped<C, EVERY> {
    type Stream = C::Stream;
    type Config = C::Config;
    type Stats = C::Stats;

    fn new(
        core_id: ThreadId,
        config: &C::Config,
        branch_config: &BranchPredictorConfig,
        stream: C::Stream,
    ) -> Self {
        Stepped(C::new(core_id, config, branch_config, stream))
    }

    fn step_cycle(&mut self, now: u64, mem: &mut MemoryHierarchy, sync: &mut SyncController) {
        STEPS.with(|s| s.set(s.get() + 1));
        self.0.step_cycle(now, mem, sync);
    }

    fn next_event(&self, now: u64) -> u64 {
        if EVERY {
            now + 1
        } else {
            self.0.next_event(now)
        }
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn core_id(&self) -> ThreadId {
        self.0.core_id()
    }

    fn stats(&self, now: u64) -> C::Stats {
        self.0.stats(now)
    }

    fn retired(&self) -> u64 {
        self.0.retired()
    }

    fn cycles(&self, now: u64) -> u64 {
        self.0.cycles(now)
    }

    fn into_warm_parts(self, now: u64) -> CoreWarmParts<C::Stream> {
        self.0.into_warm_parts(now)
    }

    fn resume_at(&mut self, resume: &CoreResume) {
        self.0.resume_at(resume);
    }

    fn branch_unit(&self) -> Option<&BranchUnit> {
        self.0.branch_unit()
    }

    fn install_branch_unit(&mut self, unit: BranchUnit) {
        self.0.install_branch_unit(unit);
    }
}

const SEED: u64 = 23;

fn spec(name: &str) -> WorkloadProfile {
    catalog::spec_profile(name).unwrap()
}

/// One-core SPEC programs, x264 for serializing waits, two- and four-core
/// mixes, and four-thread PARSEC programs with locks and barriers.
fn workloads() -> Vec<ThreadedWorkload> {
    let mut w: Vec<ThreadedWorkload> = ["gcc", "gzip", "mcf", "twolf", "swim", "mesa"]
        .iter()
        .map(|name| ThreadedWorkload::single(&spec(name), SEED, 12_000))
        .collect();
    w.push(ThreadedWorkload::single(
        &catalog::parsec_profile("x264").unwrap(),
        SEED,
        12_000,
    ));
    w.push(ThreadedWorkload::multiprogram(
        &[spec("mcf"), spec("gzip")],
        SEED,
        6_000,
    ));
    w.push(ThreadedWorkload::multiprogram(
        &[spec("gcc"), spec("mcf"), spec("swim"), spec("twolf")],
        SEED,
        4_000,
    ));
    for name in ["fluidanimate", "streamcluster"] {
        let p = catalog::parsec_profile(name).unwrap();
        w.push(ThreadedWorkload::multithreaded(&p, 4, SEED, 24_000));
    }
    w
}

fn build<C>(workload: ThreadedWorkload) -> Multicore<C>
where
    C: SimCore<Stream = CheckpointStream, Config = DetailedCoreConfig>,
{
    let cores = workload.num_cores();
    let (streams, sync) = workload.into_parts();
    Multicore::new(
        &DetailedCoreConfig::hpca2010_baseline(),
        &BranchPredictorConfig::hpca2010_baseline(),
        &MemoryConfig::hpca2010_baseline(cores),
        streams.into_iter().map(CheckpointStream::fresh).collect(),
        sync,
    )
}

/// The result without its host time, which is all that may differ.
fn simulated(mut r: SimResult<DetailedCoreStats>) -> SimResult<DetailedCoreStats> {
    r.host_seconds = 0.0;
    r
}

/// Asserts two machines' warm parts hold the same state, then restores each
/// into a fresh machine of its own kind and runs both to the same end.
fn assert_warm_parts_match(
    label: &str,
    skip: WarmParts<CheckpointStream>,
    every: WarmParts<CheckpointStream>,
) {
    assert_eq!(skip.machine_time, every.machine_time, "{label}: clock");
    assert_eq!(skip.memory.stats(), every.memory.stats(), "{label}: memory");
    let threads = skip.sync.num_threads();
    for t in 0..threads {
        assert_eq!(
            skip.sync.block_reason(t),
            every.sync.block_reason(t),
            "{label}: thread {t} sync state"
        );
    }
    assert_eq!(
        (skip.sync.barriers_completed(), skip.sync.lock_contention()),
        (
            every.sync.barriers_completed(),
            every.sync.lock_contention()
        ),
        "{label}: sync counters"
    );
    let (mut skip_next, skip_cores) = restore::<Core>(skip);
    let (mut every_next, every_cores) = restore::<EveryCycle<Core>>(every);
    assert_eq!(skip_cores, every_cores, "{label}: core warm state");
    assert_eq!(
        simulated(skip_next.run()),
        simulated(every_next.run()),
        "{label}: run resumed from the warm parts"
    );
}

/// A core's warm state in comparable form: resume point, pending
/// instructions, branch statistics and the next instructions of its stream.
type CoreState = (CoreResume, Vec<DynInst>, Option<BranchStats>, Vec<DynInst>);

/// Restores `parts` into a fresh machine of kind `C`, positioned as the
/// hybrid swap path positions an incoming model, and returns it with each
/// core's warm state.
fn restore<C>(parts: WarmParts<CheckpointStream>) -> (Multicore<C>, Vec<CoreState>)
where
    C: SimCore<Stream = CheckpointStream, Config = DetailedCoreConfig>,
{
    let mut states = Vec::new();
    let mut streams = Vec::new();
    let mut resumes = Vec::new();
    let mut branches = Vec::new();
    for core in parts.cores {
        let stream = CheckpointStream::resuming_owned(core.pending.clone(), core.stream);
        let mut probe = stream.clone();
        let upcoming = (0..64).map_while(|_| probe.next_inst()).collect();
        states.push((
            core.resume,
            core.pending,
            core.branch.as_ref().map(BranchUnit::stats),
            upcoming,
        ));
        streams.push(stream);
        resumes.push(core.resume);
        branches.push(core.branch.expect("the detailed core predicts branches"));
    }
    let mut machine = Multicore::with_memory(
        &DetailedCoreConfig::hpca2010_baseline(),
        &BranchPredictorConfig::hpca2010_baseline(),
        streams,
        parts.sync,
        parts.memory,
    );
    machine.resume_cores(parts.machine_time, &resumes, Some(branches));
    (machine, states)
}

#[test]
fn complete_runs_match_stepping_every_cycle() {
    for w in workloads() {
        let label = w.name().to_string();
        let skip = build::<Core>(w.clone()).run();
        let every = build::<EveryCycle<Core>>(w).run();
        assert_eq!(simulated(skip), simulated(every), "{label}");
    }
}

#[test]
fn quanta_and_warm_parts_match_stepping_every_cycle() {
    for w in workloads() {
        let label = w.name().to_string();
        let quantum = w.total_instructions() / 5;
        let mut skip = build::<Core>(w.clone());
        let mut every = build::<EveryCycle<Core>>(w);
        for q in 0..3 {
            skip.step_interval(quantum);
            every.step_interval(quantum);
            assert_eq!(
                skip.machine_time(),
                every.machine_time(),
                "{label}: quantum {q} clock"
            );
            assert_eq!(
                simulated(skip.result()),
                simulated(every.result()),
                "{label}: quantum {q}"
            );
        }
        assert_warm_parts_match(&label, skip.into_warm_parts(), every.into_warm_parts());
    }
}

#[test]
fn limited_runs_match_stepping_every_cycle() {
    let w = ThreadedWorkload::multiprogram(&[spec("mcf"), spec("swim")], SEED, 6_000);
    for limit in [1, 40, 333, 1_000, 4_321] {
        let mut skip = build::<Core>(w.clone());
        let mut every = build::<EveryCycle<Core>>(w.clone());
        let (a, b) = (skip.run_with_limit(limit), every.run_with_limit(limit));
        assert_eq!(skip.machine_time(), limit, "the skip stops at the limit");
        assert_eq!(simulated(a), simulated(b), "limit {limit}");
        assert_eq!(
            simulated(skip.run()),
            simulated(every.run()),
            "limit {limit}, then to the end"
        );
    }
}

#[test]
fn the_skip_steps_fewer_cycles_than_it_simulates() {
    STEPS.with(|s| s.set(0));
    let r = build::<Counted<Core>>(ThreadedWorkload::single(&spec("mcf"), SEED, 12_000)).run();
    let steps = STEPS.with(Cell::get);
    assert!(
        steps * 2 < r.cycles,
        "mcf spends most cycles waiting on memory: {steps} steps for {} cycles",
        r.cycles
    );
}
