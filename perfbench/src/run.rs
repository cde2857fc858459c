//! Set-up and the untraced run that measures the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use iss_mem::MemoryHierarchy;
use iss_sim::serve::{ServeOptions, Server};

use crate::report::Report;
use crate::serve::{self, RequestStream};
use crate::stats::{host_kernel_mops, median, tail_percentile, REFERENCE_HOST_MOPS};
use crate::sweep::{self, Plan, Rounds, Sample, KERNEL_ITERS};
use crate::workload::{nproc, shape, Shape};
use crate::Options;

/// Set-up runs this many times per run; `setup_s` is the median. The count
/// is fixed, not timed, so the heap the set-ups leave behind, and with it
/// `peak_rss_mb`, does not depend on the host's speed.
const SETUP_REPEATS: usize = 61;

/// Sweep rounds run at least this often, however short the run, so each
/// median has a middle.
const MIN_ROUNDS: usize = 3;

/// A directory for this run's result stores, inside the build directory
/// (so inside the checkout), removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let dir = base.join(format!("perfbench-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn store(&self, k: usize) -> PathBuf {
        self.0.join(format!("store-{k}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What set-up leaves for the measured phases.
pub struct Setup {
    pub plan: Plan,
    pub server: Server,
}

/// The server's options: at most `nproc` simulation workers over a fresh,
/// size-bounded store.
pub fn serve_options(shape: &Shape, store: &Path) -> ServeOptions {
    ServeOptions {
        workers: nproc(),
        cache_dir: store.to_path_buf(),
        cache_max_bytes: Some(shape.pool.store_bytes),
        evict_on_start: false,
    }
}

/// Everything before the first timed operation: spec parsing and
/// expansion, workload build and hierarchy allocation for every point,
/// store open and server bind.
fn setup(shape: &Shape, store: &Path) -> Result<Setup, String> {
    let plan = sweep::plan(&shape.sweep_docs)?;
    for job in &plan.jobs {
        std::hint::black_box(job.workload.build(job.seed)?);
        std::hint::black_box(MemoryHierarchy::new(&job.config.memory));
    }
    let server = Server::bind("127.0.0.1:0", &serve_options(shape, store))?;
    Ok(Setup { plan, server })
}

/// Host memory high-water mark of this process, megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

pub fn untraced(options: &Options) -> Result<Report, String> {
    let shape = shape(options.workload);
    let scratch = Scratch::new()?;
    let mut report = Report::default();

    // Set-up takes milliseconds, so one repetition is at the mercy of a
    // single page-fault burst; the median of many is not. The host kernel
    // runs on both sides of the repetitions to normalize their median.
    let mut setup_s = Vec::new();
    let mut kept = None;
    let kernel_before = host_kernel_mops(KERNEL_ITERS, 1);
    for k in 0..SETUP_REPEATS {
        // The previous repetition's listener closes before the next binds.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup(&shape, &scratch.store(k))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Setup { plan, server } = kept.expect("set-up ran at least once");
    let setup_kernel = (kernel_before + host_kernel_mops(KERNEL_ITERS, 1)) / 2.0;
    let setup_raw = median(&setup_s);
    report.set("setup_s", setup_raw * setup_kernel / REFERENCE_HOST_MOPS);

    // The sweep phase, then the serve phase, each one stretch of the run.
    let mut rounds = Rounds::default();
    let start = Instant::now();
    let sweep_budget = options.seconds * shape.sweep_share;
    while rounds.sweep_s.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < sweep_budget {
        rounds.round(&plan, shape.sweep_workers, &mut report);
    }
    let stream = RequestStream::new(&shape.pool, options.seed);
    let replay = serve::replay(
        server,
        &shape.pool,
        &stream,
        options.seconds * (1.0 - shape.sweep_share),
    )?;
    report.set("peak_rss_mb", peak_rss_mb()?);

    // The host's speed swings by up to 2x over minutes; the figures the
    // metrics report are host-normalized per round (see `sweep::Sample`),
    // the raw medians are printed beside them.
    let medians = |samples: &[Sample]| {
        let of = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        (of(|s| s.host), of(|s| s.raw))
    };
    let mut raw = Vec::new();
    for (name, samples) in sweep::MIPS.into_iter().zip(&rounds.mips) {
        let (host, measured) = medians(samples);
        report.set(name, host);
        raw.push(format!("{name} {measured:.4}"));
    }
    let (sweep_host, sweep_raw) = medians(&rounds.sweep_s);
    report.set("sweep_s", sweep_host);
    raw.push(format!("sweep_s {sweep_raw:.4}"));
    let (interval_err, sampled_err) = sweep::cpi_errors(&rounds.records);
    report.set("interval_cpi_err_pct", interval_err);
    report.set("sampled_cpi_err_pct", sampled_err);
    report.notes.push(format!(
        "setup_s is the median of {} set-up(s), {setup_raw:.6} s raw at {setup_kernel:.1} host-kernel \
         MOPS",
        setup_s.len()
    ));
    report.notes.push(format!(
        "raw medians: {}; host kernel {:.1} MOPS (host-time figures are scaled to \
         {REFERENCE_HOST_MOPS})",
        raw.join(", "),
        median(&rounds.kernel_mops)
    ));
    report.notes.push(format!(
        "sweep: {} round(s) of {} point(s) on {} worker(s)",
        rounds.sweep_s.len(),
        plan.jobs.len(),
        shape.sweep_workers
    ));

    report.attempted += replay.attempted;
    for p in replay.problems {
        report.fail(p);
    }
    let latencies = &replay.latencies_ms;
    let (percentile, tail_ms, beyond) = tail_percentile(latencies);
    report.set("serve_p50_ms", median(latencies));
    report.set("serve_p99_ms", tail_ms);
    report.set("serve_rps", latencies.len() as f64 / replay.wall_s);
    // The request mix is a choice (see the README): the p50 of the
    // requests the store did not answer shows how much it matters.
    let misses = &replay.miss_latencies_ms;
    report.notes.push(format!(
        "serve: {} answered request(s) from 2 closed-loop clients in {:.2} s; serve_p99_ms is \
         p{percentile} ({beyond} sample(s) beyond it); p50 of the {} request(s) not answered \
         from the store {:.3} ms; {} hit(s), {} miss(es), {} coalesced, {} eviction(s), {} \
         response(s) with a re-simulation's bytes after an eviction; worker utilization {:.3}",
        latencies.len(),
        replay.wall_s,
        misses.len(),
        median(misses),
        replay.server.hits,
        replay.server.misses,
        replay.server.coalesced,
        replay.server.evictions,
        replay.resimulated,
        replay.server.worker_utilization()
    ));
    Ok(report)
}
