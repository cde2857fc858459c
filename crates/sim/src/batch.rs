//! Parallel batch execution of independent simulation jobs.
//!
//! Every experiment in the paper's evaluation is a sweep over independent
//! `(model, config, workload, seed)` points; nothing couples two points of a
//! figure. [`run_batch`] exploits that: it executes a declarative job list on
//! a self-scheduling pool of scoped worker threads (no extra dependencies —
//! plain `std::thread::scope`), returning the summaries **in job order**
//! regardless of completion order, so parallel and serial execution produce
//! identical experiment rows.
//!
//! * The worker count comes from the `ISS_THREADS` environment variable and
//!   defaults to the host's available parallelism.
//! * Workers pull the next job index from a shared atomic counter, so a slow
//!   job (an 8-core detailed run) never stalls the queue behind it.
//! * Each job runs under panic isolation: one poisoned job surfaces as an
//!   error for that slot ([`try_run_batch_with_threads`]) instead of sinking
//!   the whole batch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::config::SystemConfig;
use crate::env::THREADS;
use crate::runner::{run, CoreModel, SimSummary};
use crate::scenario::fnv1a_hex;
use crate::workload::WorkloadSpec;

/// One independent simulation point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    /// Core timing model to run.
    pub model: CoreModel,
    /// Simulated-chip configuration.
    pub config: SystemConfig,
    /// What runs on the chip.
    pub workload: WorkloadSpec,
    /// Workload generation seed.
    pub seed: u64,
}

impl SimJob {
    /// Creates a job.
    #[must_use]
    pub fn new(model: CoreModel, config: SystemConfig, workload: WorkloadSpec, seed: u64) -> Self {
        SimJob {
            model,
            config,
            workload,
            seed,
        }
    }

    /// FNV-1a digest of the `(config, workload, model, seed)` point. This
    /// is the same encoding `ScenarioSpec::digest` resolves to, so a job's
    /// digest and the digest of the scenario that produced it agree.
    #[must_use]
    pub fn digest(&self) -> String {
        fnv1a_hex(&format!(
            "{:?}|{:?}|{}|{}",
            self.config,
            self.workload,
            self.model.name(),
            self.seed
        ))
    }
}

/// How a job (or the shard process executing it) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The job panicked inside an in-process batch worker.
    Panic,
    /// The shard process executing the job exited with a non-zero status
    /// (a child panic, `std::process::exit`, OOM kill, ...).
    Crash,
    /// The shard process made no progress within the job deadline and was
    /// killed by the supervisor.
    Timeout,
    /// The shard process emitted output the supervisor could not parse, or
    /// exited cleanly while leaving assigned jobs unreported.
    MalformedOutput,
}

impl FailureKind {
    /// Stable key used in reports, checkpoint files and JSONL records.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Crash => "crash",
            FailureKind::Timeout => "timeout",
            FailureKind::MalformedOutput => "malformed-output",
        }
    }

    /// Parses a [`FailureKind::name`] key back.
    ///
    /// # Errors
    ///
    /// Returns a message naming the known kinds for anything else.
    pub fn parse(key: &str) -> Result<FailureKind, String> {
        match key {
            "panic" => Ok(FailureKind::Panic),
            "crash" => Ok(FailureKind::Crash),
            "timeout" => Ok(FailureKind::Timeout),
            "malformed-output" => Ok(FailureKind::MalformedOutput),
            other => Err(format!(
                "unknown failure kind `{other}` (known: panic, crash, timeout, malformed-output)"
            )),
        }
    }
}

/// A job that failed: which point it was, how it failed, and after how many
/// attempts. Structured so a failed job can be reported as a quarantined
/// record row (benchmark, seed, model, config digest) instead of a
/// stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the job in the submitted list (= sweep expansion order).
    pub job: usize,
    /// Label of the job's workload (the benchmark, or the multiprogram
    /// mix label).
    pub workload: String,
    /// Workload generation seed.
    pub seed: u64,
    /// Model string of the job (`interval`, `hybrid-periodic-4@2000`, ...).
    pub model: String,
    /// Config digest of the job (see [`SimJob::digest`]).
    pub digest: String,
    /// How the job failed.
    pub kind: FailureKind,
    /// Failure detail (panic payload, exit status, deadline description).
    pub message: String,
    /// How many times the job was attempted before it was given up on.
    pub attempts: u32,
}

impl JobFailure {
    /// Failure record for a job that panicked in-process on its first
    /// attempt.
    #[must_use]
    pub fn panicked(job: usize, spec: &SimJob, message: String) -> Self {
        JobFailure {
            job,
            workload: spec.workload.label(),
            seed: spec.seed,
            model: spec.model.name(),
            digest: spec.digest(),
            kind: FailureKind::Panic,
            message,
            attempts: 1,
        }
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} ({}, seed {}, model {}, digest {}) {}: {}",
            self.job,
            self.workload,
            self.seed,
            self.model,
            self.digest,
            self.kind.name(),
            self.message
        )
    }
}

impl std::error::Error for JobFailure {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every job and returns one result per job, **in job order**, with
/// per-job panic isolation: a panicking job yields `Err` for its own slot and
/// every other job still completes.
///
/// `threads` is clamped to `1..=jobs.len()`; with one thread the jobs run
/// serially on the calling thread (no pool is spawned), which is the
/// reference execution the determinism tests compare against.
pub fn try_run_batch_with_threads(
    jobs: &[SimJob],
    threads: usize,
) -> Vec<Result<SimSummary, JobFailure>> {
    let execute = |i: usize| {
        let job = &jobs[i];
        catch_unwind(AssertUnwindSafe(|| {
            run(job.model, &job.config, &job.workload, job.seed)
        }))
        .map_err(|payload| JobFailure::panicked(i, job, panic_message(payload)))
    };

    let threads = threads.max(1).min(jobs.len().max(1));
    if threads <= 1 {
        return (0..jobs.len()).map(execute).collect();
    }

    // Self-scheduling pool: each worker pulls the next unclaimed job index.
    // Results are written into per-job slots, so ordering is by construction
    // identical to the serial path.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<SimSummary, JobFailure>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let result = execute(i);
                #[expect(
                    clippy::expect_used,
                    reason = "worker-scope mutex poisoning is an engine bug, not user input"
                )]
                let mut slot = slots[i].lock().expect("result slot lock");
                *slot = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            #[expect(
                clippy::expect_used,
                reason = "worker-scope mutex poisoning is an engine bug, not user input"
            )]
            let filled = slot.into_inner().expect("result slot lock");
            #[expect(
                clippy::expect_used,
                reason = "an unfilled slot is an engine bug, not user input"
            )]
            let result = filled.expect("every job slot is filled before the scope ends");
            result
        })
        .collect()
}

/// [`try_run_batch_with_threads`] with the [`THREADS`] worker count.
pub fn try_run_batch(jobs: &[SimJob]) -> Vec<Result<SimSummary, JobFailure>> {
    try_run_batch_with_threads(jobs, THREADS.get())
}

/// Runs every job on `threads` workers and returns the summaries in job
/// order.
///
/// # Panics
///
/// If any job panicked, re-raises the first failure — after every other job
/// has completed (a poisoned job cannot leave the batch half-run).
#[must_use]
pub fn run_batch_with_threads(jobs: &[SimJob], threads: usize) -> Vec<SimSummary> {
    try_run_batch_with_threads(jobs, threads)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// Runs every job on the [`THREADS`] worker count (`ISS_THREADS`,
/// default: available parallelism) and returns the summaries in job order.
///
/// This is the entry point every experiment driver routes through.
///
/// # Panics
///
/// If any job panicked, re-raises the first failure after the rest of the
/// batch completed.
#[must_use]
pub fn run_batch(jobs: &[SimJob]) -> Vec<SimSummary> {
    run_batch_with_threads(jobs, THREADS.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_jobs() -> Vec<SimJob> {
        let c1 = SystemConfig::hpca2010_baseline(1);
        let c2 = SystemConfig::hpca2010_baseline(2);
        vec![
            SimJob::new(
                CoreModel::Interval,
                c1,
                WorkloadSpec::single("gcc", 3_000),
                7,
            ),
            SimJob::new(
                CoreModel::Interval,
                c2,
                WorkloadSpec::homogeneous("mcf", 2, 2_000),
                7,
            ),
            SimJob::new(
                CoreModel::OneIpc,
                c1,
                WorkloadSpec::single("gzip", 2_000),
                7,
            ),
        ]
    }

    #[test]
    fn results_come_back_in_job_order() {
        let jobs = quick_jobs();
        let out = run_batch_with_threads(&jobs, 3);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].workload, "gcc");
        assert_eq!(out[1].workload, "mcfx2");
        assert_eq!(out[2].workload, "gzip");
        assert_eq!(out[2].model, CoreModel::OneIpc);
    }

    #[test]
    fn parallel_matches_serial_canonically() {
        let jobs = quick_jobs();
        let serial = run_batch_with_threads(&jobs, 1);
        let parallel = run_batch_with_threads(&jobs, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.canonical_record(), p.canonical_record());
        }
    }

    #[test]
    fn a_panicking_job_does_not_sink_the_batch() {
        let mut jobs = quick_jobs();
        // Unknown benchmark: `run` panics while building the workload.
        jobs.insert(
            1,
            SimJob::new(
                CoreModel::Interval,
                SystemConfig::hpca2010_baseline(1),
                WorkloadSpec::single("doom", 1_000),
                7,
            ),
        );
        let out = try_run_batch_with_threads(&jobs, 2);
        assert_eq!(out.len(), 4);
        assert!(out[0].is_ok() && out[2].is_ok() && out[3].is_ok());
        let err = out[1].as_ref().expect_err("poisoned job must fail alone");
        assert_eq!(err.job, 1);
        assert!(err.message.contains("doom"), "got: {}", err.message);
        // The failure is structured: it carries the point's coordinates,
        // not just the stringified panic payload.
        assert_eq!(err.kind, FailureKind::Panic);
        assert_eq!(err.workload, "doom");
        assert_eq!(err.seed, 7);
        assert_eq!(err.model, "interval");
        assert_eq!(err.digest, jobs[1].digest());
        assert_eq!(err.attempts, 1);
    }

    #[test]
    fn thread_count_is_clamped() {
        let jobs = quick_jobs();
        // More threads than jobs must not spawn idle workers that index past
        // the job list, and zero threads must degrade to serial.
        let a = run_batch_with_threads(&jobs, 64);
        let b = run_batch_with_threads(&jobs, 0);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(THREADS.get() >= 1);
    }

    #[test]
    fn failure_kinds_round_trip_and_display_names_the_point() {
        for kind in [
            FailureKind::Panic,
            FailureKind::Crash,
            FailureKind::Timeout,
            FailureKind::MalformedOutput,
        ] {
            assert_eq!(FailureKind::parse(kind.name()), Ok(kind));
        }
        assert!(FailureKind::parse("oom").is_err());
        let job = SimJob::new(
            CoreModel::Interval,
            SystemConfig::hpca2010_baseline(1),
            WorkloadSpec::single("gcc", 1_000),
            9,
        );
        let failure = JobFailure::panicked(4, &job, "boom".to_string());
        let text = failure.to_string();
        assert!(text.contains("job 4"), "got: {text}");
        assert!(text.contains("gcc"), "got: {text}");
        assert!(text.contains("seed 9"), "got: {text}");
        assert!(text.contains("panic: boom"), "got: {text}");
        assert!(text.contains(&job.digest()), "got: {text}");
    }
}
