//! The scenario CLI: one front door for every experiment.
//!
//! ```text
//! iss run <spec.toml | builtin-name> [--threads N] [--reference VARIANT]
//!                                    [--json PATH] [--jobs I,J,...]
//! iss sweep <spec.toml | builtin-name> [--shards N] [--cache-dir DIR]
//!                                      [--json PATH] [--jsonl PATH]
//! iss serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]
//!           [--cache-max-mb N] [--evict]
//! iss lint <spec.toml | directory>...
//! iss list [directory]
//! iss export <builtin-name> [path]
//! iss export <spec.toml | builtin-name> --jsonl [path]
//! ```
//!
//! `run` executes a scenario file (or a built-in figure sweep by name)
//! through the generic engine and prints the unified record table plus,
//! when the sweep carries a reference variant (`detailed` by default), the
//! comparison view (CPI error, host-time speedup, CI coverage). The sweep's
//! shape adds the figure views: STP/ANTT when a homogeneous multiprogram
//! workload spans several copy counts, normalized execution time for
//! multithreaded workloads, and the best point within 5% CPI error when
//! the sweep has hybrid or sampled variants. With `--jobs I,J,...` it
//! instead becomes the *child* of a sharded sweep: it runs the selected
//! expansion-order jobs serially and streams one `Record` JSON line per job
//! to stdout (no tables).
//! `sweep` is the fault-tolerant supervisor over those children: it
//! partitions the job list across `--shards` child processes, contains
//! crashes/panics/wedges/malformed output (retry with capped backoff,
//! bisect to the poison job, quarantine it as a structured failure row),
//! and merges deterministically. Finished records persist in the same
//! result store `serve` keeps (`--cache-dir` / `ISS_CACHE_DIR`, bounded by
//! `ISS_CACHE_MAX_MB`): points the store holds are never re-run, so an
//! interrupted sweep resumes by simply running it again.
//! Knobs: `ISS_SHARDS`, `ISS_SHARD_RETRIES`, `ISS_JOB_TIMEOUT_MS`, and
//! the test hook `ISS_FAULT_INJECT=<panic|exit|stall>:<job>`.
//! `lint` parses and expands specs without simulating anything — every
//! structural defect a run would hit (unknown keys, unknown benchmarks,
//! core-count mismatches, invalid configs) fails here, loudly — and then
//! analyzes them: duplicate design points by canonical digest, dead sweep
//! axes, machine sanity, and a cost estimate against
//! `ci/BENCH_baseline.json` (see `iss_bench::spec_lint`).
//! `serve` turns the engine into a long-running service: a TCP listener
//! speaking line-delimited JSON, a bounded simulation worker pool
//! (`--workers` / `ISS_SERVE_WORKERS`), and a persistent digest-keyed
//! result cache (`--cache-dir` / `ISS_CACHE_DIR`, bounded by
//! `--cache-max-mb` / `ISS_CACHE_MAX_MB`, cleared by `--evict`) so a
//! repeated design point answers from disk instead of simulating. It
//! prints the bound address (`--addr 127.0.0.1:0` picks a free port) and
//! runs until a client sends `{"cmd": "shutdown"}`.
//! `list` names the built-in sweeps and any `.toml` files in a directory
//! (default `examples/scenarios`).
//! `export` writes a built-in sweep as a scenario file — the quickest way
//! to start a new scenario: export the nearest figure, then edit knobs
//! (for example `benchmarks`, to run a figure over the whole catalog).
//!
//! The instruction budget of built-in sweeps follows
//! `ISS_EXPERIMENT_SCALE`; files carry their own budgets.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use iss_bench::gates::parse_perf;
use iss_bench::spec_lint;
use iss_sim::env::{
    self, CACHE_DIR, CACHE_MAX_MB, EXPERIMENT_SCALE, JOB_TIMEOUT_MS, SERVE_WORKERS, SHARDS,
    SHARD_RETRIES, THREADS,
};
use iss_sim::experiments::{builtin, BUILTINS};
use iss_sim::report;
use iss_sim::scenario::{render_records_json, render_records_jsonl};
use iss_sim::shard::{run_shard_jobs, run_sharded_sweep, ShardOptions};
use iss_sim::{CoreModel, ResultStore, ScenarioSpec, SweepSpec, WorkloadSpec};

const DEFAULT_SCENARIO_DIR: &str = "examples/scenarios";

/// The error of a write to a stdout whose reader has gone, as in `iss run
/// fig5 | head -1`. `main` ends the command quietly on it.
const STDOUT_CLOSED: &str = "stdout closed";

/// The one stdout writer. Unlike `print!`, it returns a failed write as an
/// error instead of panicking.
fn write_stdout(args: std::fmt::Arguments) -> Result<(), String> {
    std::io::Write::write_fmt(&mut std::io::stdout().lock(), args).map_err(|e| {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.to_string()
        } else {
            format!("cannot write to stdout: {e}")
        }
    })
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  iss run <spec.toml | builtin> [--threads N] [--reference VARIANT] \
         [--json PATH] [--jobs I,J,...]\n  iss sweep <spec.toml | builtin> \
         [--shards N] [--cache-dir DIR] [--json PATH] [--jsonl PATH]\n  \
         iss serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR] \
         [--cache-max-mb N] [--evict]\n  \
         iss lint <spec.toml | directory>...\n  iss list [directory]\n  \
         iss export <builtin> [path]\n  iss export <spec.toml | builtin> --jsonl [path]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // Every knob is parsed once here, so a malformed one fails the command
    // before any job reads it, and the `get()` calls below cannot panic.
    if let Err(e) = env::check_all() {
        eprintln!("iss: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "run" => run(rest),
        "sweep" => sweep(rest),
        "serve" => serve(rest),
        "lint" => lint(rest),
        "list" => list(rest),
        "export" => export(rest),
        _ => return usage(),
    };
    // The one error exit: a subcommand returns its error, and it is
    // reported here under the subcommand's name. A closed stdout only
    // means nobody reads the rest.
    match result {
        Ok(code) => code,
        Err(e) if e == STDOUT_CLOSED => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("iss {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The operand that follows `flag`, or the error naming what it needs.
fn operand(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    needs: &str,
) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs {needs}"))
}

/// Writes `text` to `path` and reports the write, or prints `text` when
/// there is no path.
fn emit(path: Option<&str>, text: &str) -> Result<(), String> {
    match path {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            outln!("wrote {path}")?;
        }
        None => out!("{text}")?,
    }
    Ok(())
}

fn export(args: &[String]) -> Result<ExitCode, String> {
    let Some((name, rest)) = args.split_first() else {
        return Ok(usage());
    };
    // `--jsonl` switches export from "emit the spec as TOML" to "run the
    // sweep and emit its records as line-delimited JSON" — one `Record`
    // object per line, quarantine rows included — on the worker count
    // `run` picks, so the records' `host_seconds` compare with `run`'s.
    let jsonl = args.iter().any(|a| a == "--jsonl");
    let mut path = None;
    for a in rest.iter().filter(|a| *a != "--jsonl") {
        if a.starts_with("--") || path.is_some() {
            return Err(format!("unexpected argument `{a}`"));
        }
        path = Some(a.as_str());
    }
    let text = if jsonl {
        let sweep = load(name)?;
        let points = sweep.expand()?;
        render_records_jsonl(&sweep.run_points(&points, workers(&points, None)?)?)
    } else {
        builtin(name, EXPERIMENT_SCALE.get())
            .ok_or_else(|| format!("`{name}` is not a built-in sweep (see `iss list`)"))?
            .to_toml()
    };
    emit(path, &text)?;
    Ok(ExitCode::SUCCESS)
}

/// Loads a sweep from a file path or a built-in name.
fn load(target: &str) -> Result<SweepSpec, String> {
    let path = Path::new(target);
    if path.exists() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        return SweepSpec::from_toml(&text).map_err(|e| format!("{}: {e}", path.display()));
    }
    match builtin(target, EXPERIMENT_SCALE.get()) {
        Some(sweep) => Ok(sweep),
        None => Err(format!(
            "`{target}` is neither a readable spec file nor a built-in sweep \
             (see `iss list`)"
        )),
    }
}

/// Whether a point's record compares host wall-clocks (a hybrid or sampled
/// point, whose speedup column is the point of the sweep).
fn is_frontier(point: &ScenarioSpec) -> bool {
    matches!(point.model, CoreModel::Hybrid(_) | CoreModel::Sampled(_))
}

/// Worker count for running `points`: the `--threads` operand when given,
/// else one worker when any point is a frontier point (concurrent jobs
/// time-slicing against each other would contaminate exactly the speedup
/// columns such sweeps exist to report), else `ISS_THREADS`.
fn workers(points: &[ScenarioSpec], flag: Option<&str>) -> Result<usize, String> {
    match flag {
        None if points.iter().any(is_frontier) => Ok(1),
        flag => THREADS.resolve(flag),
    }
}

/// Parses a `--jobs I,J,...` operand.
fn parse_job_list(value: &str) -> Result<Vec<usize>, String> {
    value
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| format!("--jobs needs comma-separated job indices, got `{value}`"))
        })
        .collect()
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut target = None;
    let mut threads = None;
    let mut reference = None;
    let mut json_path = None;
    let mut job_list = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => threads = Some(operand(&mut it, a, THREADS.accepts)?),
            "--reference" => reference = Some(operand(&mut it, a, "a variant name")?),
            "--json" => json_path = Some(operand(&mut it, a, "an output path")?),
            "--jobs" => {
                let list = operand(&mut it, a, "a comma-separated index list")?;
                job_list = Some(parse_job_list(&list)?);
            }
            other if !other.starts_with("--") && target.is_none() => target = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let Some(target) = target else {
        return Ok(usage());
    };
    let sweep = load(target)?;
    // Child mode of a sharded sweep: run the selected jobs serially and
    // stream one Record JSON line per job — no tables, no summaries.
    // `run_shard_jobs` expands and validates the sweep itself.
    if let Some(indices) = job_list {
        run_shard_jobs(&sweep, &indices, &mut std::io::stdout().lock())?;
        return Ok(ExitCode::SUCCESS);
    }
    let points = sweep.expand()?;
    let threads = workers(&points, threads.as_deref())?;
    outln!(
        "running `{}`: {} scenario(s) on {} worker(s)\n",
        sweep.name,
        points.len(),
        threads
    )?;
    let records = sweep.run_points(&points, threads)?;
    out!("{}", report::format_records_table(&sweep.name, &records))?;
    // The reference variant: `--reference`, else `detailed` when the sweep
    // has one. Design-point sweeps label it per template (`2 cores +
    // L2/detailed`); the normalized view matches it by suffix.
    let explicit = reference.is_some();
    let reference = reference.unwrap_or_else(|| "detailed".to_string());
    let has_reference = explicit || records.iter().any(|r| r.variant == reference);
    if has_reference {
        let table = report::format_comparison_table(&sweep.name, &records, &reference);
        out!("\n{table}")?;
    }
    // The figure views follow from the sweep's own shape.
    let copies: BTreeSet<usize> = points
        .iter()
        .filter_map(|p| match p.workload {
            WorkloadSpec::MultiprogramHomogeneous { copies, .. } => Some(copies),
            _ => None,
        })
        .collect();
    if copies.len() > 1 {
        let title = format!("{} — STP and ANTT vs copies", sweep.name);
        out!("\n{}", report::format_stp_antt_table(&title, &records))?;
    }
    let multithreaded = points
        .iter()
        .any(|p| matches!(p.workload, WorkloadSpec::Multithreaded { .. }));
    if multithreaded && records.iter().any(|r| r.variant.ends_with(&reference)) {
        let title = format!("{} — normalized execution time", sweep.name);
        let table = report::format_normalized_table(&title, &records, &reference);
        out!("\n{table}")?;
    }
    let frontier: Vec<&str> = points
        .iter()
        .filter(|p| is_frontier(p))
        .map(|p| p.variant.as_str())
        .collect();
    if has_reference && !frontier.is_empty() {
        let best = report::format_best_point(&records, &reference, &frontier);
        out!("\n{best}")?;
    }
    if let Some(path) = json_path {
        outln!()?;
        emit(Some(&path), &render_records_json(&records))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `iss serve`: simulation as a service. Binds the listener, prints the
/// bound address (the line harnesses parse to find the port), and serves
/// until a client sends `{"cmd": "shutdown"}` — then exits 0. Flags beat
/// the `ISS_SERVE_WORKERS` / `ISS_CACHE_DIR` / `ISS_CACHE_MAX_MB`
/// environment knobs, which beat the defaults.
fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut workers = None;
    let mut cache_dir = None;
    let mut cache_max_mb = None;
    let mut evict = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = operand(&mut it, a, "a HOST:PORT operand")?,
            "--workers" => workers = Some(operand(&mut it, a, SERVE_WORKERS.accepts)?),
            "--cache-dir" => cache_dir = Some(operand(&mut it, a, CACHE_DIR.accepts)?),
            "--cache-max-mb" => cache_max_mb = Some(operand(&mut it, a, CACHE_MAX_MB.accepts)?),
            "--evict" => evict = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let options = iss_sim::ServeOptions {
        workers: SERVE_WORKERS.resolve(workers.as_deref())?,
        cache_dir: CACHE_DIR.resolve(cache_dir.as_deref())?,
        cache_max_bytes: Some(CACHE_MAX_MB.resolve(cache_max_mb.as_deref())? << 20),
        evict_on_start: evict,
    };
    let server = iss_sim::Server::bind(&addr, &options)?;
    let bound = server.local_addr()?;
    let bound_mb = options
        .cache_max_bytes
        .map_or("unbounded".to_string(), |b| {
            format!("{} MiB", b / (1024 * 1024))
        });
    outln!("iss serve: listening on {bound}")?;
    outln!(
        "iss serve: {} worker(s), cache at {} ({bound_mb})",
        options.workers,
        options.cache_dir.display()
    )?;
    server.serve()?;
    outln!("iss serve: shut down cleanly")?;
    Ok(ExitCode::SUCCESS)
}

/// The fault-tolerant sharded supervisor: partitions the sweep's job list
/// across child `iss run --jobs ...` processes, contains child deaths, and
/// merges deterministically, answering every point the result store already
/// holds without a child. Exits 0 even when jobs were quarantined — the
/// quarantine rows *are* the report; only spec/infrastructure defects fail.
fn sweep(args: &[String]) -> Result<ExitCode, String> {
    let mut target = None;
    let mut shards = None;
    let mut cache_dir = None;
    let mut json_path = None;
    let mut jsonl_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => shards = Some(operand(&mut it, a, SHARDS.accepts)?),
            "--cache-dir" => cache_dir = Some(operand(&mut it, a, CACHE_DIR.accepts)?),
            "--json" => json_path = Some(operand(&mut it, a, "an output path")?),
            "--jsonl" => jsonl_path = Some(operand(&mut it, a, "an output path")?),
            other if !other.starts_with("--") && target.is_none() => target = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let Some(target) = target else {
        return Ok(usage());
    };
    let sweep = load(target)?;
    let points = sweep.expand()?;
    let shards = SHARDS.resolve(shards.as_deref())?;
    let mut options = ShardOptions::new(shards.min(points.len().max(1)));
    options.retries = SHARD_RETRIES.get();
    options.job_timeout_ms = JOB_TIMEOUT_MS.get();
    let cache_dir = CACHE_DIR.resolve(cache_dir.as_deref())?;
    let mut store = ResultStore::open(&cache_dir, Some(CACHE_MAX_MB.get() << 20))?;
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate my own executable: {e}"))?;
    outln!(
        "sharded sweep `{}`: {} job(s) across {} shard(s), result store at {}",
        sweep.name,
        points.len(),
        options.shards,
        cache_dir.display()
    )?;
    let mut launcher = |task: &iss_sim::ShardTask| {
        let list: Vec<String> = task.jobs.iter().map(usize::to_string).collect();
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run").arg(target).arg("--jobs").arg(list.join(","));
        cmd
    };
    let outcome = run_sharded_sweep(&sweep.name, &points, &options, &mut store, &mut launcher)?;
    out!(
        "\n{}",
        report::format_records_table(&sweep.name, &outcome.records)
    )?;
    if let Some(path) = jsonl_path {
        outln!()?;
        emit(Some(&path), &render_records_jsonl(&outcome.records))?;
    }
    if let Some(path) = json_path {
        outln!()?;
        emit(Some(&path), &render_records_json(&outcome.records))?;
    }
    outln!(
        "\nsweep complete: {} record(s), {} quarantined, {} from the result store, \
         {} child dispatch(es)",
        outcome.records.len(),
        outcome.quarantined,
        outcome.cached,
        outcome.dispatches
    )?;
    Ok(ExitCode::SUCCESS)
}

/// Spec files in a directory, sorted for deterministic output.
fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    files
}

/// The spec files `iss lint` checks: each argument as
/// given, or a directory's spec files in its place. A directory that holds
/// none is an error.
fn spec_targets(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut targets = Vec::new();
    for a in args {
        let path = Path::new(a);
        if path.is_dir() {
            let found = spec_files(path);
            if found.is_empty() {
                return Err(format!("no .toml files in {}", path.display()));
            }
            targets.extend(found);
        } else {
            targets.push(path.to_path_buf());
        }
    }
    Ok(targets)
}

fn lint(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Ok(usage());
    }
    let targets = spec_targets(args)?;
    // The cost estimate needs the perf baseline; without one the lint
    // still runs, it just reports instructions instead of seconds.
    let mips = std::fs::read_to_string("ci/BENCH_baseline.json")
        .ok()
        .and_then(|text| parse_perf(&text).ok())
        .map(|perf| perf.models);
    let mut errors = 0usize;
    for path in &targets {
        let report = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| SweepSpec::from_toml(&text))
            .and_then(|sweep| spec_lint::analyze(&sweep, mips.as_deref()));
        match report {
            Ok(report) => {
                let cost = report.estimated_seconds.map_or(String::new(), |s| {
                    format!(", est {s:.2}s at baseline throughput")
                });
                outln!(
                    "{}: `{}` expands to {} point(s), {} instructions{cost}",
                    path.display(),
                    report.name,
                    report.points,
                    report.instructions
                )?;
                for f in &report.findings {
                    match f.severity {
                        spec_lint::Severity::Error => {
                            errors += 1;
                            outln!("  error: {}", f.message)?;
                        }
                        spec_lint::Severity::Warning => outln!("  warning: {}", f.message)?,
                    }
                }
            }
            Err(e) => {
                errors += 1;
                eprintln!("{}: FAIL — {e}", path.display());
            }
        }
    }
    if errors > 0 {
        let files = targets.len();
        eprintln!("{errors} lint error(s) across {files} spec file(s)");
        return Ok(ExitCode::FAILURE);
    }
    outln!("{} spec file(s) lint clean", targets.len())?;
    Ok(ExitCode::SUCCESS)
}

fn list(args: &[String]) -> Result<ExitCode, String> {
    let dir = match args {
        [] => DEFAULT_SCENARIO_DIR,
        [dir] if !dir.starts_with("--") => dir.as_str(),
        [extra] | [_, extra, ..] => return Err(format!("unexpected argument `{extra}`")),
    };
    outln!("built-in sweeps (run with `iss run <name>`):")?;
    for (name, description, _) in BUILTINS {
        outln!("  {name:<14} {description}")?;
    }
    let dir = Path::new(dir);
    let files = spec_files(dir);
    if files.is_empty() {
        outln!("\nno scenario files found under {}", dir.display())?;
    } else {
        outln!("\nscenario files under {}:", dir.display())?;
        for f in files {
            outln!("  {}", f.display())?;
        }
    }
    Ok(ExitCode::SUCCESS)
}
