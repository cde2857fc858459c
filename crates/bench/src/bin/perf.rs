//! Machine-readable performance trajectory of the simulator itself.
//!
//! Measures, single-threaded at the `ISS_EXPERIMENT_SCALE` budget (`quick`
//! by default) and in interleaved rounds ([`ROUNDS`]), and writes an
//! `iss-bench-perf/v2` file ([`iss_bench::gates::render_perf`]) with:
//!
//! * simulated MIPS per core model over the SPEC quick set, each row a
//!   one-model benchmark sweep through the scenario engine on one worker,
//! * an `interval-parsec4` row: the interval model over the PARSEC quick
//!   set at the `parsec_length` budget on four threads, the multi-core path
//!   whose cores contend for the shared DRAM channel,
//! * a `warming` row: the sampled runner's own functional-warming loop
//!   ([`iss_sim::sampling::warm_functionally`]) with no timing model
//!   attached, the speed sampled simulation is Amdahl-bound on,
//! * a `kernels` array: the six batch kernels of [`iss_bench::kernels`] in
//!   MOPS on harvested columns,
//! * the host kernel's speed ([`iss_sim::host_time::host_kernel_mops`]),
//!   which `perf_gate` divides every rate by,
//! * the interval-over-detailed speedup.
//!
//! Usage: `perf [output-path]`; the path defaults to `BENCH_interval.json`.

use iss_bench::gates::{render_perf, PerfFile, PerfRow};
use iss_bench::kernels::{batch_kernels, harvest, HARVEST_BENCHMARK};
use iss_bench::{EXPERIMENT_SCALE, PARSEC_QUICK, SPEC_QUICK};
use iss_sim::env::DEFAULT_WARM_BATCH;
use iss_sim::experiments::{default_sampling_specs, ExperimentScale};
use iss_sim::host_time::{host_kernel_mops, HostTimer};
use iss_sim::runner::CoreModel;
use iss_sim::sampling::warm_functionally;
use iss_sim::scenario::{ScenarioSpec, SweepSpec};
use iss_sim::{SystemConfig, WorkloadSpec};

/// The multi-core row: the interval model over the PARSEC quick set on
/// four threads, where the cores share one DRAM channel.
const PARSEC_ROW: &str = "interval-parsec4";

/// Measurement rounds. Each round times the host kernel and then every
/// row once, and each quantity keeps its fastest round. A shared host
/// alternates fast and slow phases that last from a fraction of a second
/// to a few seconds; interleaving spreads every quantity over the same
/// phases, so the fastest rounds of a row and of the host kernel both come
/// from fast phases and their ratio stays put.
const ROUNDS: usize = 20;

/// Passes over the harvested columns per kernel sample: a few million
/// kernel operations.
const KERNEL_PASSES: u64 = 32;

/// Lookups per host-kernel run (median of three runs per round).
const HOST_KERNEL_ITERS: u64 = 1 << 20;

/// One measured row: a name and a sample that returns the work it did and
/// the host seconds it took.
type Row<'a> = (String, Box<dyn FnMut() -> (u64, f64) + 'a>);

/// A row whose host seconds are the wall-clock of `run`, which returns the
/// work it did.
fn timed<'a>(name: &str, mut run: impl FnMut() -> u64 + 'a) -> Row<'a> {
    let sample = move || {
        let start = HostTimer::start();
        let work = run();
        (work, start.elapsed_seconds())
    };
    (name.to_string(), Box::new(sample))
}

/// A row named `name`: a one-model sweep of `workload` over `benchmarks`
/// on one worker, summed over its records (simulated instructions and the
/// host seconds the records report).
fn sweep_row<'a>(
    name: String,
    model: CoreModel,
    workload: WorkloadSpec,
    benchmarks: &[&str],
    seed: u64,
) -> Row<'a> {
    let mut base = ScenarioSpec::new(workload, seed);
    base.model = model;
    let mut sweep = SweepSpec::new("perf", base);
    sweep.benchmarks = benchmarks.iter().map(|b| (*b).to_string()).collect();
    let sample = move || {
        let records = sweep
            .run_with_threads(1)
            .unwrap_or_else(|e| panic!("perf sweep failed: {e}"));
        (
            records.iter().map(|r| r.instructions).sum(),
            records.iter().map(|r| r.host_seconds).sum(),
        )
    };
    (name, Box::new(sample))
}

/// The row of `model` over the SPEC quick set, one core per program.
fn model_row<'a>(model: CoreModel, scale: ExperimentScale) -> Row<'a> {
    let workload = WorkloadSpec::single(SPEC_QUICK[0], scale.spec_length);
    sweep_row(model.name(), model, workload, &SPEC_QUICK, scale.seed)
}

/// Runs [`ROUNDS`] rounds; returns the fastest host-kernel speed and the
/// fastest sample of each row.
fn measure(rows: &mut [Row]) -> (f64, Vec<PerfRow>) {
    let mut fastest: Vec<PerfRow> = rows
        .iter()
        .map(|(name, _)| PerfRow {
            name: name.clone(),
            work: 0,
            host_seconds: f64::INFINITY,
        })
        .collect();
    let mut host_kernel = 0.0f64;
    for _ in 0..ROUNDS {
        host_kernel = host_kernel.max(host_kernel_mops(HOST_KERNEL_ITERS));
        for (best, (_, sample)) in fastest.iter_mut().zip(rows.iter_mut()) {
            let (work, host_seconds) = sample();
            if host_seconds < best.host_seconds {
                best.work = work;
                best.host_seconds = host_seconds;
            }
        }
    }
    (host_kernel, fastest)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_interval.json".to_string());
    if out_path.starts_with('-') || args.next().is_some() {
        eprintln!("usage: perf [output-path]");
        std::process::exit(2);
    }
    let scale = EXPERIMENT_SCALE.get();
    let config = SystemConfig::hpca2010_baseline(1);
    let columns = harvest(HARVEST_BENCHMARK, scale.spec_length, scale.seed);

    println!(
        "perf — simulator throughput (spec budget {}, parsec budget {} instructions/benchmark, \
         {ROUNDS} rounds)",
        scale.spec_length, scale.parsec_length
    );
    // The sampled model's row uses the acceptance-point spec of the default
    // sweep, so the gate pins the configuration the sampling figure
    // headlines.
    let sampled = CoreModel::Sampled(default_sampling_specs(scale)[0]);
    let mut rows: Vec<Row> = [
        CoreModel::Interval,
        CoreModel::Detailed,
        CoreModel::OneIpc,
        sampled,
    ]
    .into_iter()
    .map(|m| model_row(m, scale))
    .collect();
    rows.push(sweep_row(
        PARSEC_ROW.to_string(),
        CoreModel::Interval,
        WorkloadSpec::multithreaded(PARSEC_QUICK[0], 4, scale.parsec_length),
        &PARSEC_QUICK,
        scale.seed,
    ));
    rows.push(timed("warming", || {
        SPEC_QUICK
            .iter()
            .map(|b| {
                let workload = WorkloadSpec::single(b, scale.spec_length)
                    .build(scale.seed)
                    .unwrap_or_else(|e| panic!("warming workload failed: {e}"));
                warm_functionally(&config, workload, DEFAULT_WARM_BATCH)
            })
            .sum()
    }));
    let model_count = rows.len();
    let kernels = batch_kernels(&columns, &config, scale.seed);
    rows.extend(kernels.into_iter().map(|mut k| {
        timed(k.name, move || {
            for _ in 0..KERNEL_PASSES {
                (k.run)();
            }
            k.ops * KERNEL_PASSES
        })
    }));

    let (host_kernel_mops, mut models) = measure(&mut rows);
    let kernels = models.split_off(model_count);
    let file = PerfFile {
        scale,
        host_kernel_mops,
        models,
        kernels,
    };
    for m in &file.models {
        println!(
            "{:<10} {:>12} instructions {:>10.3}s {:>10.2} simulated MIPS",
            m.name,
            m.work,
            m.host_seconds,
            m.rate()
        );
    }
    for k in &file.kernels {
        println!(
            "kernel {:<20} {:>12} ops {:>10.3}s {:>10.1} MOPS",
            k.name,
            k.work,
            k.host_seconds,
            k.rate()
        );
    }
    println!(
        "host kernel: {:.1} MOPS (host speed normalizer)",
        file.host_kernel_mops
    );
    println!(
        "interval over detailed speedup: {:.1}x",
        file.interval_over_detailed_speedup()
    );

    std::fs::write(&out_path, render_perf(&file))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}
