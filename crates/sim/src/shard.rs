//! Fault-tolerant sharded sweep execution.
//!
//! A sweep's job list is deterministic, so it can be partitioned across
//! child *processes* and any child death is contained: the supervisor in
//! this module detects crashes (non-zero exit), panics (exit status 101),
//! wedges (no record within a progress deadline) and malformed output,
//! re-queues the unfinished jobs with capped exponential backoff, bisects
//! repeatedly-failing shards down to the poison job, and quarantines that
//! single job as a structured failure [`Record`] — the sweep still
//! completes and every healthy job still reports.
//!
//! The pieces:
//!
//! * [`run_shard_jobs`] — the child side: run an explicit job-index list
//!   serially, streaming one [`Record`] JSON line per job to a writer
//!   (`iss run <spec> --jobs ...` wires it to stdout). Honors the
//!   `ISS_FAULT_INJECT` variable ([`crate::env::FAULT_INJECT`]) so
//!   tests can deterministically take a child down.
//! * [`run_sharded_sweep`] — the supervisor: generic over a *launcher*
//!   closure mapping a [`ShardTask`] to a [`Command`], so unit tests fake
//!   children with `sh` while the CLI launches `iss run --jobs ...`.
//! * The [`ResultStore`] that `iss serve` also keeps: every point whose
//!   key hits the store is done before anything is dispatched, and every
//!   validated, non-quarantined child record is `put` as it arrives, so an
//!   interrupted sweep resumes by re-running only the points the store
//!   lacks, and a repeated sweep launches no child at all.
//!
//! The merge is deterministic by construction — records are keyed by
//! expansion-order job index, so the merged list is byte-identical
//! (canonically) whatever the shard count, failure schedule or retry
//! history.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use crate::batch::{try_run_batch_with_threads, FailureKind, JobFailure};
use crate::env::{FaultKind, FAULT_INJECT, JOB_TIMEOUT_MS, SHARD_RETRIES};
use crate::host_time::HostTimer;
use crate::scenario::jsonl::{parse_record_line, render_record_line};
use crate::scenario::{Record, ScenarioSpec, SweepSpec};
use crate::store::ResultStore;

/// Exit status of a child taken down by an injected `exit` fault.
pub const FAULT_EXIT_STATUS: i32 = 17;

/// One unit of dispatch: a list of global (expansion-order) job indices a
/// child process runs serially, plus how many times this exact list has
/// already failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTask {
    /// Global job indices, in expansion order.
    pub jobs: Vec<usize>,
    /// Failed runs of this list so far (resets when a list is bisected).
    pub attempts: u32,
}

/// Knobs of the sharded supervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOptions {
    /// Child processes to keep in flight (and initial partition width).
    pub shards: usize,
    /// Failed runs tolerated per task before it is bisected (a single-job
    /// task is quarantined instead). `0` means fail straight to bisection.
    pub retries: u32,
    /// Progress deadline: a child that produces no record for this long is
    /// killed and its unfinished jobs re-queued.
    pub job_timeout_ms: u64,
    /// Base of the capped exponential re-dispatch backoff.
    pub backoff_base_ms: u64,
    /// Cap of the re-dispatch backoff.
    pub backoff_cap_ms: u64,
}

impl ShardOptions {
    /// Options with the documented defaults at a given shard count.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        ShardOptions {
            shards,
            retries: SHARD_RETRIES.default_value(),
            job_timeout_ms: JOB_TIMEOUT_MS.default_value(),
            backoff_base_ms: 100,
            backoff_cap_ms: 2_000,
        }
    }
}

/// What a completed sharded sweep reports, beyond the records themselves.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// One record per expanded point, in expansion order — quarantined
    /// jobs appear as structured failure rows ([`Record::from_failure`]).
    pub records: Vec<Record>,
    /// How many of the records are quarantined failure rows.
    pub quarantined: usize,
    /// How many records the result store answered instead of a child.
    pub cached: usize,
    /// Child processes launched (initial shards + retries + bisections).
    pub dispatches: usize,
}

/// The initial partition: round-robin over the pending jobs, preserving
/// expansion order within each shard; empty shards are dropped.
fn partition(pending: &[usize], shards: usize) -> Vec<Vec<usize>> {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (k, &job) in pending.iter().enumerate() {
        buckets[k % shards].push(job);
    }
    buckets.retain(|jobs| !jobs.is_empty());
    buckets
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// Runs an explicit list of a sweep's jobs serially (the child side of a
/// sharded sweep), writing one [`Record`] JSON line per job and flushing
/// after every line so the supervisor sees progress immediately.
///
/// A job that panics in-process is already contained by the batch engine
/// and is reported as a quarantined record line rather than killing the
/// child; process-level deaths (the `ISS_FAULT_INJECT` faults, real
/// crashes) are the supervisor's problem.
///
/// # Errors
///
/// Returns expansion/validation errors, out-of-range job indices, a
/// malformed `ISS_FAULT_INJECT` value, and writer errors.
pub fn run_shard_jobs(
    sweep: &SweepSpec,
    indices: &[usize],
    out: &mut dyn Write,
) -> Result<(), String> {
    let points = sweep.expand()?;
    let fault = FAULT_INJECT.try_get()?;
    for &i in indices {
        let point = points.get(i).ok_or_else(|| {
            format!(
                "job index {i} is out of range: sweep `{}` has {} job(s)",
                sweep.name,
                points.len()
            )
        })?;
        if let Some(f) = fault {
            if f.job == i {
                trip_fault(f.kind, i);
            }
        }
        let job = point.to_job()?;
        let outcome = try_run_batch_with_threads(&[job], 1)
            .into_iter()
            .next()
            .ok_or_else(|| "batch engine returned no outcome for a one-job batch".to_string())?
            // The batch ran a single job, so its local index 0 must be
            // rewritten to the global expansion-order index.
            .map_err(|failure| JobFailure { job: i, ..failure });
        let record = point.outcome_record(&sweep.name, outcome)?;
        writeln!(out, "{}", render_record_line(&record))
            .and_then(|()| out.flush())
            .map_err(|e| format!("failed to write record for job {i}: {e}"))?;
    }
    Ok(())
}

/// Takes the current process down the way the injected fault asks. Never
/// returns.
fn trip_fault(kind: FaultKind, job: usize) {
    match kind {
        FaultKind::Panic => panic!("fault injected: panic before job {job}"),
        FaultKind::Exit => std::process::exit(FAULT_EXIT_STATUS),
        FaultKind::Stall => loop {
            std::thread::sleep(Duration::from_secs(3_600));
        },
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

enum ChildMsg {
    /// One stdout line from dispatch `id`.
    Line(u64, String),
    /// Dispatch `id`'s stdout closed (the child exited or was killed).
    Eof(u64),
}

struct RunningShard {
    task: ShardTask,
    /// Position in `task.jobs` of the next record the child owes us.
    cursor: usize,
    child: Child,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Supervisor-timer seconds of the last record (or the spawn).
    last_progress: f64,
    /// Failure decided before the child exited (deadline, bad output);
    /// takes precedence over exit-status classification at EOF.
    fail: Option<(FailureKind, String)>,
}

fn spawn_shard(
    task: ShardTask,
    launcher: &mut dyn FnMut(&ShardTask) -> Command,
    tx: &mpsc::Sender<ChildMsg>,
    id: u64,
    now: f64,
) -> Result<RunningShard, String> {
    let mut cmd = launcher(&task);
    cmd.stdout(Stdio::piped());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("failed to spawn shard child: {e}"))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| "shard child has no stdout pipe".to_string())?;
    let tx = tx.clone();
    let reader = std::thread::Builder::new()
        .name(format!("shard-reader-{id}"))
        .spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(ChildMsg::Line(id, line)).is_err() {
                    break;
                }
            }
            let _ = tx.send(ChildMsg::Eof(id));
        })
        .map_err(|e| format!("failed to spawn shard reader thread: {e}"))?;
    Ok(RunningShard {
        task,
        cursor: 0,
        child,
        reader: Some(reader),
        last_progress: now,
        fail: None,
    })
}

/// Seconds to hold a task back after its `attempts`-th failure.
fn backoff_seconds(options: &ShardOptions, attempts: u32) -> f64 {
    let shift = attempts.saturating_sub(1).min(16);
    let ms = options
        .backoff_base_ms
        .saturating_mul(1u64 << shift)
        .min(options.backoff_cap_ms);
    ms as f64 / 1_000.0
}

/// Runs a sweep as `options.shards` child processes with crash recovery,
/// retries, per-job progress deadlines and bisection of poison jobs,
/// resuming from and persisting to a [`ResultStore`].
///
/// `launcher` maps a [`ShardTask`] to the [`Command`] that runs those jobs
/// and streams their record lines to stdout — `iss sweep` launches
/// `iss run <spec> --jobs <list>`, tests fake children with `sh`. The
/// supervisor validates every line against the expected point digest, so a
/// confused child cannot smuggle a wrong record into the merge.
///
/// Points the store already holds are answered from it (under this
/// sweep's names) and never dispatched; every other validated record is
/// `put` as it arrives, except quarantined rows, so a re-run retries the
/// poison job. The store key is (version, point digest, seed, scale), so a
/// changed spec or binary simply misses.
///
/// The sweep is given by its name and its expansion
/// ([`SweepSpec::expand`]), which a caller already holds for its own job
/// count; job indices refer to that expansion, which every child re-derives
/// from the same spec.
/// The returned records are in expansion order, independent of the shard
/// count, the failure schedule and the retry history; a job whose child
/// keeps dying is quarantined as a structured failure row rather than
/// aborting the sweep.
///
/// # Errors
///
/// Returns store-key errors, store write errors, and internal
/// supervisor defects. Child failures are *not* errors — they surface as
/// quarantined records.
pub fn run_sharded_sweep(
    sweep_name: &str,
    points: &[ScenarioSpec],
    options: &ShardOptions,
    store: &mut ResultStore,
    launcher: &mut dyn FnMut(&ShardTask) -> Command,
) -> Result<ShardedOutcome, String> {
    if options.shards == 0 {
        return Err("shard count must be positive".to_string());
    }
    let keys = points
        .iter()
        .map(|p| store.key_for(p))
        .collect::<Result<Vec<_>, _>>()?;
    let total = points.len();

    let mut done: BTreeMap<usize, Record> = BTreeMap::new();
    for (i, (point, key)) in points.iter().zip(&keys).enumerate() {
        if let Some(record) = store.get(key) {
            done.insert(i, point.relabel(sweep_name, record));
        }
    }
    let cached = done.len();

    let pending: Vec<usize> = (0..total).filter(|i| !done.contains_key(i)).collect();
    // (ready_at_seconds, task) — backoff holds failed tasks back here.
    let mut queue: Vec<(f64, ShardTask)> = partition(&pending, options.shards)
        .into_iter()
        .map(|jobs| (0.0, ShardTask { jobs, attempts: 0 }))
        .collect();

    let timer = HostTimer::start();
    let timeout_s = options.job_timeout_ms as f64 / 1_000.0;
    let (tx, rx) = mpsc::channel::<ChildMsg>();
    let mut running: BTreeMap<u64, RunningShard> = BTreeMap::new();
    let mut next_id: u64 = 0;
    let mut dispatches = 0usize;

    // A task failure either re-queues (with backoff), bisects, or
    // quarantines the lone remaining job.
    let settle_failure = |remaining: Vec<usize>,
                          attempts: u32,
                          kind: FailureKind,
                          message: String,
                          now: f64,
                          queue: &mut Vec<(f64, ShardTask)>,
                          done: &mut BTreeMap<usize, Record>| {
        if attempts <= options.retries {
            queue.push((
                now + backoff_seconds(options, attempts),
                ShardTask {
                    jobs: remaining,
                    attempts,
                },
            ));
            return;
        }
        if remaining.len() > 1 {
            let (left, right) = remaining.split_at(remaining.len() / 2);
            queue.push((
                now,
                ShardTask {
                    jobs: left.to_vec(),
                    attempts: 0,
                },
            ));
            queue.push((
                now,
                ShardTask {
                    jobs: right.to_vec(),
                    attempts: 0,
                },
            ));
            return;
        }
        let job = remaining[0];
        let point = &points[job];
        let failure = JobFailure {
            job,
            workload: point.workload.label(),
            seed: point.seed,
            model: point.model.name(),
            digest: keys[job].point_digest.clone(),
            kind,
            message,
            attempts,
        };
        let record = Record::from_failure(
            sweep_name,
            &point.group,
            &point.variant,
            point.benchmark.as_deref(),
            failure,
        );
        done.insert(job, record);
    };

    while done.len() < total || !running.is_empty() {
        let now = timer.elapsed_seconds();

        // Dispatch every ready task into a free slot.
        while running.len() < options.shards {
            let Some(pos) = queue.iter().position(|(ready, _)| *ready <= now) else {
                break;
            };
            let (_, task) = queue.remove(pos);
            let remaining = task.jobs.clone();
            let attempts = task.attempts;
            match spawn_shard(task, launcher, &tx, next_id, now) {
                Ok(shard) => {
                    running.insert(next_id, shard);
                    dispatches += 1;
                }
                Err(e) => {
                    settle_failure(
                        remaining,
                        attempts + 1,
                        FailureKind::Crash,
                        e,
                        now,
                        &mut queue,
                        &mut done,
                    );
                }
            }
            next_id += 1;
        }

        if running.is_empty() {
            if queue.is_empty() {
                if done.len() < total {
                    return Err(
                        "internal: sharded sweep stalled with pending jobs and nothing queued"
                            .to_string(),
                    );
                }
                break;
            }
            // Everything queued is backing off; sleep a tick.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }

        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(ChildMsg::Line(id, line)) => {
                let now = timer.elapsed_seconds();
                if let Some(shard) = running.get_mut(&id) {
                    if shard.fail.is_some() {
                        // Already condemned; drain silently until EOF.
                    } else if shard.cursor >= shard.task.jobs.len() {
                        shard.fail = Some((
                            FailureKind::MalformedOutput,
                            format!(
                                "child produced more output than its {} job(s)",
                                shard.task.jobs.len()
                            ),
                        ));
                        let _ = shard.child.kill();
                    } else {
                        let job = shard.task.jobs[shard.cursor];
                        match parse_record_line(&line) {
                            Ok(record) if record.digest == keys[job].point_digest => {
                                if !record.is_quarantined() {
                                    store.put(&keys[job], &record)?;
                                }
                                done.insert(job, record);
                                shard.cursor += 1;
                                shard.last_progress = now;
                            }
                            Ok(record) => {
                                shard.fail = Some((
                                    FailureKind::MalformedOutput,
                                    format!(
                                        "child emitted digest {} where job {job} (digest {}) \
                                         was expected",
                                        record.digest, keys[job].point_digest
                                    ),
                                ));
                                let _ = shard.child.kill();
                            }
                            Err(e) => {
                                shard.fail = Some((
                                    FailureKind::MalformedOutput,
                                    format!("unparseable record line: {e}"),
                                ));
                                let _ = shard.child.kill();
                            }
                        }
                    }
                }
            }
            Ok(ChildMsg::Eof(id)) => {
                if let Some(mut shard) = running.remove(&id) {
                    if let Some(reader) = shard.reader.take() {
                        let _ = reader.join();
                    }
                    // The stream is over; if records are still owed and the
                    // child stays alive (stdout closed, process wedged), it
                    // can never deliver them — kill it so the reap below
                    // cannot block. A dying child closes its pipe a moment
                    // before its exit status is reapable, so poll briefly
                    // rather than condemning on the first `try_wait` miss:
                    // a genuine crash must classify by its exit status.
                    if shard.cursor < shard.task.jobs.len() && shard.fail.is_none() {
                        let mut alive = matches!(shard.child.try_wait(), Ok(None));
                        for _ in 0..40 {
                            if !alive {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                            alive = matches!(shard.child.try_wait(), Ok(None));
                        }
                        if alive {
                            shard.fail = Some((
                                FailureKind::MalformedOutput,
                                format!(
                                    "child closed its output after only {} of {} record(s) \
                                     and kept running",
                                    shard.cursor,
                                    shard.task.jobs.len()
                                ),
                            ));
                            let _ = shard.child.kill();
                        }
                    }
                    let status = shard
                        .child
                        .wait()
                        .map_err(|e| format!("failed to reap shard child: {e}"))?;
                    // Every owed record arrived and validated: the task is
                    // complete whatever the exit status says.
                    if shard.cursor < shard.task.jobs.len() {
                        let (kind, message) = match shard.fail.take() {
                            Some(decided) => decided,
                            None if status.success() => (
                                FailureKind::MalformedOutput,
                                format!(
                                    "child exited cleanly after only {} of {} record(s)",
                                    shard.cursor,
                                    shard.task.jobs.len()
                                ),
                            ),
                            None => match status.code() {
                                Some(101) => (
                                    FailureKind::Panic,
                                    "child exited with status 101 (panic)".to_string(),
                                ),
                                Some(code) => (
                                    FailureKind::Crash,
                                    format!("child exited with status {code}"),
                                ),
                                None => (
                                    FailureKind::Crash,
                                    "child was killed by a signal".to_string(),
                                ),
                            },
                        };
                        let remaining = shard.task.jobs[shard.cursor..].to_vec();
                        settle_failure(
                            remaining,
                            shard.task.attempts + 1,
                            kind,
                            message,
                            timer.elapsed_seconds(),
                            &mut queue,
                            &mut done,
                        );
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout | mpsc::RecvTimeoutError::Disconnected) => {}
        }

        // Progress deadlines: kill any child that owes a record and has
        // been silent past the timeout.
        let now = timer.elapsed_seconds();
        for shard in running.values_mut() {
            if shard.fail.is_none()
                && shard.cursor < shard.task.jobs.len()
                && now - shard.last_progress > timeout_s
            {
                shard.fail = Some((
                    FailureKind::Timeout,
                    format!(
                        "no record within the {} ms progress deadline",
                        options.job_timeout_ms
                    ),
                ));
                let _ = shard.child.kill();
            }
        }
    }

    let mut records = Vec::with_capacity(total);
    for i in 0..total {
        records.push(done.remove(&i).ok_or_else(|| {
            format!("internal: sharded sweep finished without a record for job {i}")
        })?);
    }
    let quarantined = records.iter().filter(|r| r.is_quarantined()).count();
    Ok(ShardedOutcome {
        records,
        quarantined,
        cached,
        dispatches,
    })
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use super::*;
    use crate::runner::CoreModel;
    use crate::scenario::{parse_records_jsonl, ScenarioSpec};
    use crate::store::CacheKey;
    use crate::workload::WorkloadSpec;

    fn tiny_sweep() -> SweepSpec {
        let mut sweep = SweepSpec::new(
            "tinyshard",
            ScenarioSpec::new(WorkloadSpec::single("gcc", 1_200), 7),
        );
        sweep.benchmarks = vec!["gcc".into(), "mcf".into()];
        sweep.models = vec![CoreModel::Detailed, CoreModel::Interval];
        sweep
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iss-shard-tests-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// An empty, unbounded result store in its own directory.
    fn fresh_store(dir: &Path, tag: &str) -> ResultStore {
        ResultStore::open(&dir.join(format!("store-{tag}")), None).unwrap()
    }

    fn sh(script: String) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    /// Writes the record lines a fake child should emit and returns the
    /// file path.
    fn task_file(dir: &Path, tag: &str, counter: usize, content: &str) -> PathBuf {
        let path = dir.join(format!("{tag}-{counter}.jsonl"));
        std::fs::write(&path, content).unwrap();
        path
    }

    fn lines_for(lines: &[String], jobs: &[usize]) -> String {
        jobs.iter().map(|&j| format!("{}\n", lines[j])).collect()
    }

    fn fast_opts(shards: usize) -> ShardOptions {
        let mut opts = ShardOptions::new(shards);
        opts.retries = 0;
        opts.backoff_base_ms = 1;
        opts.backoff_cap_ms = 5;
        opts.job_timeout_ms = 10_000;
        opts
    }

    /// [`run_sharded_sweep`] over the sweep's own expansion.
    fn run_sharded(
        sweep: &SweepSpec,
        opts: &ShardOptions,
        store: &mut ResultStore,
        launcher: &mut dyn FnMut(&ShardTask) -> Command,
    ) -> ShardedOutcome {
        run_sharded_sweep(&sweep.name, &sweep.expand().unwrap(), opts, store, launcher).unwrap()
    }

    #[test]
    fn shard_partition_and_digest_are_deterministic() {
        assert_eq!(
            partition(&[0, 1, 2, 3, 4], 2),
            vec![vec![0, 2, 4], vec![1, 3]]
        );
        assert_eq!(partition(&[1, 5], 3), vec![vec![1], vec![5]]);
        assert!(partition(&[], 2).is_empty());
        // The store keys a sweep resumes by are a pure function of the
        // points: equal across expansions, distinct across points.
        let keys = |sweep: &SweepSpec| -> Vec<String> {
            sweep
                .expand()
                .unwrap()
                .iter()
                .map(|p| CacheKey::for_point(p, "1").unwrap().digest())
                .collect()
        };
        let first = keys(&tiny_sweep());
        assert_eq!(first, keys(&tiny_sweep()));
        let mut unique = first.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), first.len());
    }

    #[test]
    fn the_child_runner_streams_valid_record_lines() {
        let sweep = tiny_sweep();
        let reference = sweep.run_with_threads(1).unwrap();
        let mut out = Vec::new();
        run_shard_jobs(&sweep, &[1, 3], &mut out).unwrap();
        let records = parse_records_jsonl(&String::from_utf8(out).unwrap()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].canonical(), reference[1].canonical());
        assert_eq!(records[1].canonical(), reference[3].canonical());
        let err = run_shard_jobs(&sweep, &[99], &mut Vec::new()).unwrap_err();
        assert!(err.contains("out of range"), "got: {err}");
    }

    #[test]
    fn sharded_merge_is_byte_identical_at_any_shard_count() {
        let sweep = tiny_sweep();
        let reference = sweep.run_with_threads(1).unwrap();
        let lines: Vec<String> = reference.iter().map(render_record_line).collect();
        let dir = test_dir("merge");
        for shards in [1usize, 2, 3] {
            let mut counter = 0usize;
            let mut launcher = |task: &ShardTask| {
                let path = task_file(
                    &dir,
                    &format!("s{shards}"),
                    counter,
                    &lines_for(&lines, &task.jobs),
                );
                counter += 1;
                sh(format!("cat '{}'", path.display()))
            };
            let mut store = fresh_store(&dir, &format!("s{shards}"));
            let outcome = run_sharded(&sweep, &fast_opts(shards), &mut store, &mut launcher);
            assert_eq!(outcome.quarantined, 0, "shards={shards}");
            assert_eq!(outcome.cached, 0);
            // Full equality, host_seconds included: the lines round-trip.
            assert_eq!(outcome.records, reference, "shards={shards}");
        }
    }

    #[test]
    fn a_crashing_child_is_bisected_down_to_the_poison_job() {
        let sweep = tiny_sweep();
        let reference = sweep.run_with_threads(1).unwrap();
        let lines: Vec<String> = reference.iter().map(render_record_line).collect();
        let dir = test_dir("crash");
        const POISON: usize = 1;
        let mut counter = 0usize;
        let mut launcher = |task: &ShardTask| {
            let healthy: Vec<usize> = task
                .jobs
                .iter()
                .copied()
                .take_while(|&j| j != POISON)
                .collect();
            let path = task_file(&dir, "crash", counter, &lines_for(&lines, &healthy));
            counter += 1;
            if healthy.len() < task.jobs.len() {
                sh(format!("cat '{}'; exit 3", path.display()))
            } else {
                sh(format!("cat '{}'", path.display()))
            }
        };
        let mut store = fresh_store(&dir, "crash");
        let outcome = run_sharded(&sweep, &fast_opts(2), &mut store, &mut launcher);
        assert_eq!(outcome.quarantined, 1);
        // Initial [0,2] and [1,3], then the bisection of [1,3] into [1]+[3].
        assert_eq!(outcome.dispatches, 4);
        assert_eq!(store.len(), reference.len() - 1, "quarantine is not stored");
        let q = &outcome.records[POISON];
        let failure = q.failure.as_ref().unwrap();
        assert_eq!(failure.job, POISON);
        assert_eq!(failure.kind, FailureKind::Crash);
        assert_eq!(failure.attempts, 1);
        assert!(
            failure.message.contains("status 3"),
            "got: {}",
            failure.message
        );
        for (i, r) in outcome.records.iter().enumerate() {
            if i != POISON {
                assert_eq!(r, &reference[i], "job {i}");
            }
        }
    }

    #[test]
    fn a_wedged_child_trips_the_progress_deadline() {
        let sweep = tiny_sweep();
        let reference = sweep.run_with_threads(1).unwrap();
        let lines: Vec<String> = reference.iter().map(render_record_line).collect();
        let dir = test_dir("stall");
        const POISON: usize = 2;
        let mut counter = 0usize;
        let mut launcher = |task: &ShardTask| {
            let healthy: Vec<usize> = task
                .jobs
                .iter()
                .copied()
                .take_while(|&j| j != POISON)
                .collect();
            let path = task_file(&dir, "stall", counter, &lines_for(&lines, &healthy));
            counter += 1;
            if healthy.len() < task.jobs.len() {
                // `exec` so the kill hits the sleeper itself; the sleeper
                // inherits the stdout pipe, i.e. a genuine wedge.
                sh(format!("cat '{}'; exec sleep 30", path.display()))
            } else {
                sh(format!("cat '{}'", path.display()))
            }
        };
        let mut opts = fast_opts(2);
        opts.job_timeout_ms = 250;
        let mut store = fresh_store(&dir, "stall");
        let outcome = run_sharded(&sweep, &opts, &mut store, &mut launcher);
        assert_eq!(outcome.quarantined, 1);
        let failure = outcome.records[POISON].failure.as_ref().unwrap();
        assert_eq!(failure.kind, FailureKind::Timeout);
        assert!(
            failure.message.contains("250 ms"),
            "got: {}",
            failure.message
        );
        for (i, r) in outcome.records.iter().enumerate() {
            if i != POISON {
                assert_eq!(r, &reference[i], "job {i}");
            }
        }
    }

    #[test]
    fn garbage_and_wrong_digest_output_quarantine_as_malformed() {
        let sweep = tiny_sweep();
        let reference = sweep.run_with_threads(1).unwrap();
        let lines: Vec<String> = reference.iter().map(render_record_line).collect();
        let dir = test_dir("malformed");
        const POISON: usize = 3;
        for (tag, poison_line) in [
            ("garbage", "not json at all".to_string()),
            ("wrongdigest", lines[0].clone()),
        ] {
            let mut counter = 0usize;
            let mut launcher = |task: &ShardTask| {
                let content: String = task
                    .jobs
                    .iter()
                    .map(|&j| {
                        if j == POISON {
                            format!("{poison_line}\n")
                        } else {
                            format!("{}\n", lines[j])
                        }
                    })
                    .collect();
                let path = task_file(&dir, tag, counter, &content);
                counter += 1;
                sh(format!("cat '{}'", path.display()))
            };
            let mut store = fresh_store(&dir, tag);
            let outcome = run_sharded(&sweep, &fast_opts(2), &mut store, &mut launcher);
            assert_eq!(outcome.quarantined, 1, "{tag}");
            let failure = outcome.records[POISON].failure.as_ref().unwrap();
            assert_eq!(failure.kind, FailureKind::MalformedOutput, "{tag}");
            for (i, r) in outcome.records.iter().enumerate() {
                if i != POISON {
                    assert_eq!(r, &reference[i], "{tag} job {i}");
                }
            }
        }
    }

    #[test]
    fn interrupted_sweeps_resume_from_the_result_store() {
        let sweep = tiny_sweep();
        let reference = sweep.run_with_threads(1).unwrap();
        let lines: Vec<String> = reference.iter().map(render_record_line).collect();
        let dir = test_dir("resume");
        let store_dir = dir.join("store");
        // Runs a sweep on the store; returns the outcome and the jobs its
        // children were asked for.
        let run = |sweep: &SweepSpec, tag: &str| {
            let mut requested: Vec<usize> = Vec::new();
            let mut counter = 0usize;
            let mut launcher = |task: &ShardTask| {
                requested.extend(&task.jobs);
                let path = task_file(&dir, tag, counter, &lines_for(&lines, &task.jobs));
                counter += 1;
                sh(format!("cat '{}'", path.display()))
            };
            let mut store = ResultStore::open(&store_dir, None).unwrap();
            let outcome = run_sharded(sweep, &fast_opts(2), &mut store, &mut launcher);
            requested.sort_unstable();
            (outcome, requested)
        };
        let (outcome, requested) = run(&sweep, "full");
        assert_eq!(outcome.records, reference);
        assert_eq!(requested, [0, 1, 2, 3]);

        // Interrupt: delete two entries and tear a third mid-write.
        let entry = |job: usize| {
            let point = &sweep.expand().unwrap()[job];
            let key = CacheKey::for_point(point, env!("CARGO_PKG_VERSION")).unwrap();
            store_dir.join(format!("entry-{}.json", key.digest()))
        };
        std::fs::remove_file(entry(0)).unwrap();
        std::fs::remove_file(entry(3)).unwrap();
        let text = std::fs::read_to_string(entry(2)).unwrap();
        std::fs::write(entry(2), &text[..text.len() / 2]).unwrap();

        let (outcome, requested) = run(&sweep, "resume");
        assert_eq!(outcome.cached, 1);
        assert_eq!(outcome.records, reference);
        assert_eq!(requested, [0, 2, 3], "only the damaged entries re-run");

        // A repeated sweep is answered by the store alone, under its own
        // names even when another sweep stored the records.
        let mut renamed = tiny_sweep();
        renamed.name = "renamed".into();
        let (outcome, requested) = run(&renamed, "again");
        assert_eq!((outcome.cached, outcome.dispatches), (reference.len(), 0));
        assert!(requested.is_empty());
        for (record, wanted) in outcome.records.iter().zip(&reference) {
            assert_eq!(record.sweep, "renamed");
            assert_eq!(
                record.canonical().replacen("renamed", "tinyshard", 1),
                wanted.canonical()
            );
        }
    }
}
