//! Load-test harness for `iss serve`: replays a stream of scenario
//! requests against a running server and reports cache hit rate, request
//! latency (p50/p99) and worker utilization — the numbers that tell you
//! whether the result store is actually absorbing production traffic.
//!
//! ```text
//! serve_load --addr HOST:PORT --spec PATH [--spec PATH ...]
//!            [--requests N] [--concurrency C]
//!            [--expect-hit-rate PCT] [--shutdown]
//! ```
//!
//! Requests round-robin over the spec files (`--requests` total,
//! `--concurrency` client threads). Like a real client, each thread keeps
//! one connection open for all its requests and reconnects only after an
//! error. The harness also verifies the cache contract as
//! it goes: every response for a given spec must be **byte-identical** to
//! the first response observed for that spec — a cached record that
//! drifts from the simulation that populated it is a correctness failure,
//! not a performance problem.
//!
//! Exits non-zero on any byte-identity violation, or when the observed
//! job-level hit rate is below `--expect-hit-rate` (CI replays a request
//! set twice and demands 100 on the second pass).

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use iss_sim::host_time::HostTimer;
use iss_sim::serve::Client;

struct Options {
    addr: String,
    specs: Vec<(String, String)>,
    requests: usize,
    concurrency: usize,
    expect_hit_rate: Option<f64>,
    shutdown: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut addr = None;
    let mut spec_paths: Vec<String> = Vec::new();
    let mut requests = None;
    let mut concurrency = 1usize;
    let mut expect_hit_rate = None;
    let mut shutdown = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = Some(it.next().ok_or("--addr needs a HOST:PORT operand")?.clone());
            }
            "--spec" => {
                spec_paths.push(it.next().ok_or("--spec needs a file path")?.clone());
            }
            "--requests" => {
                requests = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--requests needs a positive integer")?,
                );
            }
            "--concurrency" => {
                concurrency = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--concurrency needs a positive integer")?;
            }
            "--expect-hit-rate" => {
                expect_hit_rate = Some(
                    it.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|&p| (0.0..=100.0).contains(&p))
                        .ok_or("--expect-hit-rate needs a percentage in [0, 100]")?,
                );
            }
            "--shutdown" => shutdown = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    if spec_paths.is_empty() {
        return Err("at least one --spec is required".to_string());
    }
    let mut specs = Vec::new();
    for path in spec_paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        specs.push((path, text));
    }
    let requests = requests.unwrap_or(specs.len());
    Ok(Options {
        addr,
        specs,
        requests,
        concurrency,
        expect_hit_rate,
        shutdown,
    })
}

#[derive(Default)]
struct Tally {
    jobs: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    latencies_ms: Vec<f64>,
    /// First response lines seen per spec index — the byte-identity
    /// baseline every later response is compared against.
    baselines: Vec<Option<Vec<String>>>,
    identity_violations: u64,
    errors: Vec<String>,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted_ms.len() - 1) as f64).round();
    // The index is in [0, len): rank is clamped by construction.
    sorted_ms[rank.min((sorted_ms.len() - 1) as f64) as usize]
}

fn replay(options: &Options) -> Result<Tally, String> {
    let tally = Mutex::new(Tally {
        baselines: vec![None; options.specs.len()],
        ..Tally::default()
    });
    let next = AtomicUsize::new(0);
    let threads = options.concurrency.min(options.requests).max(1);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut client: Option<Client> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= options.requests {
                        break;
                    }
                    let spec_index = i % options.specs.len();
                    let (path, text) = &options.specs[spec_index];
                    let timer = HostTimer::start();
                    let outcome = match client.take() {
                        Some(c) => Ok(c),
                        None => Client::connect(&options.addr),
                    }
                    .and_then(|mut c| {
                        let outcome = c.run(text)?;
                        // Only a connection that just answered is kept.
                        client = Some(c);
                        Ok(outcome)
                    });
                    let latency_ms = timer.elapsed_seconds() * 1e3;
                    let mut t = tally
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    match outcome {
                        Ok(outcome) => {
                            t.jobs += outcome.jobs as u64;
                            t.hits += outcome.hits as u64;
                            t.misses += outcome.misses as u64;
                            t.coalesced += outcome.coalesced as u64;
                            t.latencies_ms.push(latency_ms);
                            match &t.baselines[spec_index] {
                                Some(baseline) => {
                                    if baseline != &outcome.record_lines {
                                        t.identity_violations += 1;
                                        t.errors.push(format!(
                                            "{path}: response drifted from the first \
                                             response for this spec"
                                        ));
                                    }
                                }
                                None => t.baselines[spec_index] = Some(outcome.record_lines),
                            }
                        }
                        Err(e) => t.errors.push(format!("{path}: {e}")),
                    }
                }
            });
        }
    });
    Ok(tally
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("serve_load: {e}");
            eprintln!(
                "usage: serve_load --addr HOST:PORT --spec PATH [--spec PATH ...] \
                 [--requests N] [--concurrency C] [--expect-hit-rate PCT] [--shutdown]"
            );
            return ExitCode::FAILURE;
        }
    };
    let mut tally = match replay(&options) {
        Ok(tally) => tally,
        Err(e) => {
            eprintln!("serve_load: {e}");
            return ExitCode::FAILURE;
        }
    };
    tally
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let hit_rate = if tally.jobs == 0 {
        0.0
    } else {
        tally.hits as f64 / tally.jobs as f64 * 100.0
    };
    println!(
        "serve_load: {} request(s) over {} spec(s), {} job(s): {} hit(s), {} miss(es), \
         {} coalesced — hit rate {hit_rate:.1}%",
        tally.latencies_ms.len(),
        options.specs.len(),
        tally.jobs,
        tally.hits,
        tally.misses,
        tally.coalesced
    );
    println!(
        "serve_load: latency p50 {:.2} ms, p99 {:.2} ms",
        percentile(&tally.latencies_ms, 50.0),
        percentile(&tally.latencies_ms, 99.0)
    );
    match Client::connect(&options.addr).and_then(|mut c| c.stats()) {
        Ok(stats) => println!(
            "serve_load: server: {} worker(s), utilization {:.1}%, {} cached entr(ies) \
             ({} bytes), {} eviction(s)",
            stats.workers,
            stats.worker_utilization() * 100.0,
            stats.entries,
            stats.store_bytes,
            stats.evictions
        ),
        Err(e) => eprintln!("serve_load: cannot fetch server stats: {e}"),
    }
    if options.shutdown {
        match Client::connect(&options.addr).and_then(|mut c| c.shutdown()) {
            Ok(()) => println!("serve_load: server acknowledged shutdown"),
            Err(e) => {
                eprintln!("serve_load: shutdown failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut failed = false;
    for e in &tally.errors {
        eprintln!("serve_load: error: {e}");
        failed = true;
    }
    if tally.identity_violations > 0 {
        eprintln!(
            "serve_load: FAIL — {} response(s) were not byte-identical to the first \
             response for their spec",
            tally.identity_violations
        );
        failed = true;
    }
    if let Some(expected) = options.expect_hit_rate {
        if hit_rate + 1e-9 < expected {
            eprintln!(
                "serve_load: FAIL — hit rate {hit_rate:.1}% is below the required \
                 {expected:.1}%"
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
