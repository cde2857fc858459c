//! The scenario CLI: one front door for every experiment.
//!
//! ```text
//! iss run <spec.toml | builtin-name> [--threads N] [--reference VARIANT]
//!                                    [--json PATH] [--jobs I,J,...]
//! iss sweep <spec.toml | builtin-name> [--shards N] [--cache-dir DIR]
//!                                      [--json PATH] [--jsonl PATH]
//! iss serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]
//!           [--cache-max-mb N] [--evict]
//! iss validate <spec.toml | directory>...
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
//! `validate` parses and expands specs without simulating anything — every
//! structural defect a run would hit (unknown keys, unknown benchmarks,
//! core-count mismatches, invalid configs) fails here, loudly.
//! `lint` goes further: static analysis of specs that *do* validate —
//! duplicate design points by canonical digest, dead sweep axes, machine
//! sanity, and a cost estimate against `ci/BENCH_baseline.json` (see
//! `iss_bench::spec_lint`).
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
use iss_sim::{CoreModel, ResultStore, SweepSpec, WorkloadSpec};

const DEFAULT_SCENARIO_DIR: &str = "examples/scenarios";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  iss run <spec.toml | builtin> [--threads N] [--reference VARIANT] \
         [--json PATH] [--jobs I,J,...]\n  iss sweep <spec.toml | builtin> \
         [--shards N] [--cache-dir DIR] [--json PATH] [--jsonl PATH]\n  \
         iss serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR] \
         [--cache-max-mb N] [--evict]\n  \
         iss validate <spec.toml | directory>...\n  iss lint <spec.toml | \
         directory>...\n  iss list [directory]\n  iss export <builtin> [path]\n  \
         iss export <spec.toml | builtin> --jsonl [path]"
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
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("list") => list(&args[1..]),
        Some("export") => export(&args[1..]),
        _ => usage(),
    }
}

fn export(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    // `--jsonl` switches export from "emit the spec as TOML" to "run the
    // sweep and emit its records as line-delimited JSON" — one `Record`
    // object per line, quarantine rows included.
    if args.iter().any(|a| a == "--jsonl") {
        return export_jsonl(name, args.iter().skip(1).find(|a| *a != "--jsonl"));
    }
    let Some(sweep) = builtin(name, EXPERIMENT_SCALE.get()) else {
        eprintln!("iss export: `{name}` is not a built-in sweep (see `iss list`)");
        return ExitCode::FAILURE;
    };
    let text = sweep.to_toml();
    match args.get(1) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("iss export: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// `iss export <target> --jsonl [path]`: runs the sweep and writes the
/// JSONL columnar record stream to `path` (or stdout).
fn export_jsonl(target: &str, path: Option<&String>) -> ExitCode {
    let result = load(target)
        .and_then(|sweep| sweep.run_with_threads(THREADS.get()))
        .map(|records| render_records_jsonl(&records));
    let text = match result {
        Ok(text) => text,
        Err(e) => {
            eprintln!("iss export: {e}");
            return ExitCode::FAILURE;
        }
    };
    match path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("iss export: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
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

fn run(args: &[String]) -> ExitCode {
    let mut target = None;
    let mut threads: Option<String> = None;
    let mut reference = None;
    let mut json_path: Option<PathBuf> = None;
    let mut job_list: Option<Vec<usize>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => match it.next() {
                Some(v) => threads = Some(v.clone()),
                None => {
                    eprintln!("iss run: --threads needs {}", THREADS.accepts);
                    return ExitCode::FAILURE;
                }
            },
            "--reference" => match it.next() {
                Some(v) => reference = Some(v.clone()),
                None => {
                    eprintln!("iss run: --reference needs a variant name");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match it.next() {
                Some(v) => json_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("iss run: --json needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match it.next().map(|v| parse_job_list(v)) {
                Some(Ok(list)) => job_list = Some(list),
                Some(Err(e)) => {
                    eprintln!("iss run: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("iss run: --jobs needs a comma-separated index list");
                    return ExitCode::FAILURE;
                }
            },
            other if !other.starts_with("--") && target.is_none() => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("iss run: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(target) = target else {
        return usage();
    };
    let sweep = match load(&target) {
        Ok(sweep) => sweep,
        Err(e) => {
            eprintln!("iss run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let points = match sweep.expand() {
        Ok(points) => points,
        Err(e) => {
            eprintln!("iss run: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Child mode of a sharded sweep: run the selected jobs serially and
    // stream one Record JSON line per job — no tables, no summaries.
    if let Some(indices) = job_list {
        let mut stdout = std::io::stdout().lock();
        return match run_shard_jobs(&sweep, &indices, &mut stdout) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("iss run: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // A sweep whose rows compare host wall-clocks (any sweep with hybrid or
    // sampled variants) runs on one worker by default: concurrent jobs
    // time-slicing against each other would contaminate exactly the
    // speedup columns such sweeps exist to report. `--threads` overrides.
    let frontier: Vec<&str> = points
        .iter()
        .filter(|p| matches!(p.model, CoreModel::Hybrid(_) | CoreModel::Sampled(_)))
        .map(|p| p.variant.as_str())
        .collect();
    let threads = match threads {
        None if !frontier.is_empty() => 1,
        flag => match THREADS.resolve(flag.as_deref()) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("iss run: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    println!(
        "running `{}`: {} scenario(s) on {} worker(s)\n",
        sweep.name,
        points.len(),
        threads
    );
    let records = match sweep.run_with_threads(threads) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("iss run: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report::format_records_table(&sweep.name, &records));
    // The reference variant: `--reference`, else `detailed` when the sweep
    // has one. Design-point sweeps label it per template (`2 cores +
    // L2/detailed`); the normalized view matches it by suffix.
    let explicit = reference.is_some();
    let reference = reference.unwrap_or_else(|| "detailed".to_string());
    let has_reference = explicit || records.iter().any(|r| r.variant == reference);
    if has_reference {
        println!();
        print!(
            "{}",
            report::format_comparison_table(&sweep.name, &records, &reference)
        );
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
        println!();
        print!(
            "{}",
            report::format_stp_antt_table(
                &format!("{} — STP and ANTT vs copies", sweep.name),
                &records
            )
        );
    }
    let multithreaded = points
        .iter()
        .any(|p| matches!(p.workload, WorkloadSpec::Multithreaded { .. }));
    if multithreaded && records.iter().any(|r| r.variant.ends_with(&reference)) {
        println!();
        print!(
            "{}",
            report::format_normalized_table(
                &format!("{} — normalized execution time", sweep.name),
                &records,
                &reference
            )
        );
    }
    if has_reference && !frontier.is_empty() {
        println!();
        print!(
            "{}",
            report::format_best_point(&records, &reference, &frontier)
        );
    }
    if let Some(path) = json_path {
        let json = render_records_json(&records);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("iss run: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nwrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// `iss serve`: simulation as a service. Binds the listener, prints the
/// bound address (the line harnesses parse to find the port), and serves
/// until a client sends `{"cmd": "shutdown"}` — then exits 0. Flags beat
/// the `ISS_SERVE_WORKERS` / `ISS_CACHE_DIR` / `ISS_CACHE_MAX_MB`
/// environment knobs, which beat the defaults.
fn serve(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:0".to_string();
    let mut workers: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut cache_max_mb: Option<String> = None;
    let mut evict = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => {
                    eprintln!("iss serve: --addr needs a HOST:PORT operand");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" => match it.next() {
                Some(v) => workers = Some(v.clone()),
                None => {
                    eprintln!("iss serve: --workers needs {}", SERVE_WORKERS.accepts);
                    return ExitCode::FAILURE;
                }
            },
            "--cache-dir" => match it.next() {
                Some(v) => cache_dir = Some(v.clone()),
                None => {
                    eprintln!("iss serve: --cache-dir needs {}", CACHE_DIR.accepts);
                    return ExitCode::FAILURE;
                }
            },
            "--cache-max-mb" => match it.next() {
                Some(v) => cache_max_mb = Some(v.clone()),
                None => {
                    eprintln!("iss serve: --cache-max-mb needs {}", CACHE_MAX_MB.accepts);
                    return ExitCode::FAILURE;
                }
            },
            "--evict" => evict = true,
            other => {
                eprintln!("iss serve: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let options = match (|| -> Result<iss_sim::ServeOptions, String> {
        Ok(iss_sim::ServeOptions {
            workers: SERVE_WORKERS.resolve(workers.as_deref())?,
            cache_dir: CACHE_DIR.resolve(cache_dir.as_deref())?,
            cache_max_bytes: Some(CACHE_MAX_MB.resolve(cache_max_mb.as_deref())? << 20),
            evict_on_start: evict,
        })
    })() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("iss serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match iss_sim::Server::bind(&addr, &options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("iss serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match server.local_addr() {
        Ok(bound) => bound,
        Err(e) => {
            eprintln!("iss serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound_mb = options
        .cache_max_bytes
        .map_or("unbounded".to_string(), |b| {
            format!("{} MiB", b / (1024 * 1024))
        });
    println!("iss serve: listening on {bound}");
    println!(
        "iss serve: {} worker(s), cache at {} ({bound_mb})",
        options.workers,
        options.cache_dir.display()
    );
    match server.serve() {
        Ok(()) => {
            println!("iss serve: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("iss serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The fault-tolerant sharded supervisor: partitions the sweep's job list
/// across child `iss run --jobs ...` processes, contains child deaths, and
/// merges deterministically, answering every point the result store already
/// holds without a child. Exits 0 even when jobs were quarantined — the
/// quarantine rows *are* the report; only spec/infrastructure defects fail.
fn sweep(args: &[String]) -> ExitCode {
    let mut target = None;
    let mut shards: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut jsonl_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => match it.next() {
                Some(v) => shards = Some(v.clone()),
                None => {
                    eprintln!("iss sweep: --shards needs {}", SHARDS.accepts);
                    return ExitCode::FAILURE;
                }
            },
            "--cache-dir" => match it.next() {
                Some(v) => cache_dir = Some(v.clone()),
                None => {
                    eprintln!("iss sweep: --cache-dir needs {}", CACHE_DIR.accepts);
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match it.next() {
                Some(v) => json_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("iss sweep: --json needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--jsonl" => match it.next() {
                Some(v) => jsonl_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("iss sweep: --jsonl needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            other if !other.starts_with("--") && target.is_none() => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("iss sweep: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(target) = target else {
        return usage();
    };
    let sweep = match load(&target) {
        Ok(sweep) => sweep,
        Err(e) => {
            eprintln!("iss sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let points = match sweep.expand() {
        Ok(points) => points,
        Err(e) => {
            eprintln!("iss sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut options = match SHARDS.resolve(shards.as_deref()) {
        Ok(shards) => ShardOptions::new(shards.min(points.len().max(1))),
        Err(e) => {
            eprintln!("iss sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    options.retries = SHARD_RETRIES.get();
    options.job_timeout_ms = JOB_TIMEOUT_MS.get();
    let opened = CACHE_DIR.resolve(cache_dir.as_deref()).and_then(|dir| {
        ResultStore::open(&dir, Some(CACHE_MAX_MB.get() << 20)).map(|store| (dir, store))
    });
    let (cache_dir, mut store) = match opened {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("iss sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("iss sweep: cannot locate my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "sharded sweep `{}`: {} job(s) across {} shard(s), result store at {}",
        sweep.name,
        points.len(),
        options.shards,
        cache_dir.display()
    );
    let mut launcher = |task: &iss_sim::ShardTask| {
        let list: Vec<String> = task.jobs.iter().map(usize::to_string).collect();
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run")
            .arg(&target)
            .arg("--jobs")
            .arg(list.join(","));
        cmd
    };
    let outcome = match run_sharded_sweep(&sweep, &options, &mut store, &mut launcher) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("iss sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!();
    print!(
        "{}",
        report::format_records_table(&sweep.name, &outcome.records)
    );
    if let Some(path) = jsonl_path {
        if let Err(e) = std::fs::write(&path, render_records_jsonl(&outcome.records)) {
            eprintln!("iss sweep: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nwrote {}", path.display());
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_records_json(&outcome.records)) {
            eprintln!("iss sweep: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nwrote {}", path.display());
    }
    println!(
        "\nsweep complete: {} record(s), {} quarantined, {} from the result store, \
         {} child dispatch(es)",
        outcome.records.len(),
        outcome.quarantined,
        outcome.cached,
        outcome.dispatches
    );
    ExitCode::SUCCESS
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

fn validate(args: &[String]) -> ExitCode {
    if args.is_empty() {
        return usage();
    }
    let mut targets = Vec::new();
    for a in args {
        let path = Path::new(a);
        if path.is_dir() {
            let found = spec_files(path);
            if found.is_empty() {
                eprintln!("iss validate: no .toml files in {}", path.display());
                return ExitCode::FAILURE;
            }
            targets.extend(found);
        } else {
            targets.push(path.to_path_buf());
        }
    }
    let mut failures = 0;
    for path in &targets {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| SweepSpec::from_toml(&text).map_err(|e| e.to_string()))
            .and_then(|sweep| sweep.expand().map(|points| (sweep, points)));
        match outcome {
            Ok((sweep, points)) => {
                println!(
                    "{}: OK (`{}`, {} scenario(s))",
                    path.display(),
                    sweep.name,
                    points.len()
                );
                // Validation accepts duplicate design points (they simulate
                // fine, just redundantly); nudge toward the deeper check.
                let mut digests = BTreeSet::new();
                if points
                    .iter()
                    .filter_map(|p| p.digest().ok())
                    .any(|d| !digests.insert(d))
                {
                    println!(
                        "  note: expands to duplicate design points — run \
                         `iss lint {}` for details",
                        path.display()
                    );
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("{}: FAIL — {e}", path.display());
            }
        }
    }
    if failures == 0 {
        println!("{} spec file(s) valid", targets.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} of {} spec file(s) invalid", targets.len());
        ExitCode::FAILURE
    }
}

fn lint(args: &[String]) -> ExitCode {
    if args.is_empty() {
        return usage();
    }
    let mut targets = Vec::new();
    for a in args {
        let path = Path::new(a);
        if path.is_dir() {
            let found = spec_files(path);
            if found.is_empty() {
                eprintln!("iss lint: no .toml files in {}", path.display());
                return ExitCode::FAILURE;
            }
            targets.extend(found);
        } else {
            targets.push(path.to_path_buf());
        }
    }
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
                println!(
                    "{}: `{}` expands to {} point(s), {} instructions{cost}",
                    path.display(),
                    report.name,
                    report.points,
                    report.instructions
                );
                for f in &report.findings {
                    match f.severity {
                        spec_lint::Severity::Error => {
                            errors += 1;
                            println!("  error: {}", f.message);
                        }
                        spec_lint::Severity::Warning => println!("  warning: {}", f.message),
                    }
                }
            }
            Err(e) => {
                errors += 1;
                eprintln!("{}: FAIL — {e}", path.display());
            }
        }
    }
    if errors == 0 {
        println!("{} spec file(s) lint clean", targets.len());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{errors} lint error(s) across {} spec file(s)",
            targets.len()
        );
        ExitCode::FAILURE
    }
}

fn list(args: &[String]) -> ExitCode {
    println!("built-in sweeps (run with `iss run <name>`):");
    for (name, description, _) in BUILTINS {
        println!("  {name:<14} {description}");
    }
    let dir = args
        .first()
        .map_or_else(|| PathBuf::from(DEFAULT_SCENARIO_DIR), PathBuf::from);
    let files = spec_files(&dir);
    if files.is_empty() {
        println!("\nno scenario files found under {}", dir.display());
    } else {
        println!("\nscenario files under {}:", dir.display());
        for f in files {
            println!("  {}", f.display());
        }
    }
    ExitCode::SUCCESS
}
