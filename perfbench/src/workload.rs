//! The three workloads.
//!
//! Every workload runs the same two phases in different proportions, so
//! each prints every end-to-end metric while stressing different layers:
//!
//! * **sweep rounds** — scenario specs parsed and expanded at set-up, then
//!   executed on the batch engine round after round (simulated MIPS per
//!   model, CPI error against the detailed model on the same points, sweep
//!   wall time);
//! * **a serve phase** after them — an in-process `iss serve` server
//!   answering a request stream from two closed-loop clients (latency,
//!   throughput).

use iss_sim::experiments::{default_hybrid_policies, default_sampling_specs, ExperimentScale};
use iss_sim::runner::CoreModel;

/// The six programs of `iss_bench::SPEC_QUICK`: one per behaviour class.
pub const SPEC: [&str; 6] = ["gcc", "gzip", "mcf", "twolf", "swim", "mesa"];

/// The four programs of `iss_bench::PARSEC_QUICK`.
pub const PARSEC: [&str; 4] = ["blackscholes", "canneal", "fluidanimate", "vips"];

/// Workload seed of the sweep points: the seed of the repository's figures
/// and golden accuracy file. The CPI errors are then the repository's own
/// numbers and repeat exactly across runs; with a run seed instead, the
/// sampled error alone spread by more than half its median over five seeds.
const SWEEP_SEED: u64 = 42;

/// The SPEC programs of the four-program multiprogram mix.
const MIX: [&str; 4] = ["gcc", "mcf", "swim", "twolf"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SpecModels,
    ParsecSweep,
    ServeReplay,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "spec-models" => Ok(Workload::SpecModels),
            "parsec-sweep" => Ok(Workload::ParsecSweep),
            "serve-replay" => Ok(Workload::ServeReplay),
            other => Err(format!(
                "unknown workload `{other}` (known: spec-models, parsec-sweep, serve-replay)"
            )),
        }
    }
}

/// A program the serve pool draws points from: benchmark and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Program {
    pub benchmark: &'static str,
    pub threads: usize,
}

/// The serve phase's point pool: small design points under the cheap
/// models, shaped like `examples/scenarios/serve-smoke.toml` (3000
/// instructions under interval and one-IPC), so a miss costs a millisecond.
#[derive(Debug, Clone)]
pub struct Pool {
    pub programs: Vec<Program>,
    /// Instructions per point (total over threads).
    pub length: u64,
    /// Points in the popular set the skewed stream mostly draws from.
    pub hot_points: u64,
    /// Result-store bound in bytes: smaller than the popular set, so LRU
    /// eviction runs beside reads and writes within one run.
    pub store_bytes: u64,
}

/// Everything a workload runs.
pub struct Shape {
    /// Scenario files of the sweep phase (parsed and expanded at set-up).
    pub sweep_docs: Vec<String>,
    /// Batch-engine workers of the sweep phase.
    pub sweep_workers: usize,
    /// Share of the measured seconds given to sweep rounds; the serve phase
    /// after them gets the rest.
    pub sweep_share: f64,
    pub pool: Pool,
}

/// Host parallelism (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The sampled acceptance spec and the `hybrid-periodic-4` policy for
/// points of `length` instructions, as model names the scenario parser
/// takes. The sampling specs are tuned for runs of five times the scale's
/// SPEC budget (`sampling_length`), so the scale is a fifth of the length:
/// at 100k instructions this is the repository's acceptance point,
/// `sampled-detailed-1in28@350w60p6`.
fn model_names(length: u64) -> (String, String) {
    let scale = ExperimentScale {
        spec_length: length / 5,
        parsec_length: length / 5,
        seed: 0,
    };
    let sampled = CoreModel::Sampled(default_sampling_specs(scale)[0]).name();
    let hybrid = CoreModel::Hybrid(default_hybrid_policies(scale)[1]).name();
    (sampled, hybrid)
}

fn quoted(items: &[&str]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One-core SPEC points under detailed, interval, sampled and hybrid.
fn spec_doc(name: &str, length: u64) -> String {
    let (sampled, hybrid) = model_names(length);
    format!(
        "schema = \"iss-scenario/v1\"\nname = \"{name}\"\nseed = {SWEEP_SEED}\nmodel = \"interval\"\n\n\
         [machine]\nbaseline = \"hpca2010\"\n\n\
         [workload]\nkind = \"single\"\nbenchmark = \"gcc\"\nlength = {length}\n\n\
         [sweep]\nmodels = [\"detailed\", \"interval\", \"{sampled}\", \"{hybrid}\"]\n\
         benchmarks = [{}]\n",
        quoted(&SPEC)
    )
}

/// Multithreaded PARSEC points on 4 and 8 cores under interval, sampled
/// and hybrid, plus the four-program SPEC mix, which also runs detailed
/// as the CPI-error reference.
fn parsec_docs(parsec_length: u64, mix_length: u64) -> Vec<String> {
    let (sampled, hybrid) = model_names(parsec_length);
    let parsec = format!(
        "schema = \"iss-scenario/v1\"\nname = \"parsec-sweep\"\nseed = {SWEEP_SEED}\nmodel = \"interval\"\n\n\
         [machine]\nbaseline = \"hpca2010\"\n\n\
         [workload]\nkind = \"multithreaded\"\nbenchmark = \"blackscholes\"\nthreads = 4\n\
         length = {parsec_length}\n\n\
         [sweep]\nmodels = [\"interval\", \"{sampled}\", \"{hybrid}\"]\nbenchmarks = [{}]\n\
         cores = [4, 8]\n",
        quoted(&PARSEC)
    );
    let mix = format!(
        "schema = \"iss-scenario/v1\"\nname = \"parsec-sweep\"\nseed = {SWEEP_SEED}\nmodel = \"interval\"\n\n\
         [machine]\nbaseline = \"hpca2010\"\n\n\
         [workload]\nkind = \"multiprogram\"\nbenchmarks = [{}]\nlength = {mix_length}\n\n\
         [sweep]\nmodels = [\"detailed\", \"interval\", \"{sampled}\", \"{hybrid}\"]\n",
        quoted(&MIX)
    );
    vec![parsec, mix]
}

fn spec_programs() -> impl Iterator<Item = Program> {
    SPEC.iter().map(|&benchmark| Program {
        benchmark,
        threads: 1,
    })
}

fn parsec_programs() -> impl Iterator<Item = Program> {
    PARSEC.iter().map(|&benchmark| Program {
        benchmark,
        threads: 2,
    })
}

/// What `workload` runs. The run seed only generates the serve request
/// stream (see `serve::RequestStream`).
pub fn shape(workload: Workload) -> Shape {
    match workload {
        // The paper's Fig 5 / Fig 9 question, speed and error together on
        // the same points. Single-threaded runs on one worker, so MIPS is
        // the hot-loop speed; detailed steps dominate host time.
        Workload::SpecModels => Shape {
            sweep_docs: vec![spec_doc("spec-models", 100_000)],
            sweep_workers: 1,
            sweep_share: 0.6,
            pool: Pool {
                programs: spec_programs().collect(),
                length: 3_000,
                hot_points: 48,
                store_bytes: 32 * 1024,
            },
        },
        // Multicore sync and coherence, functional warming (27 of every 28
        // sampled units), checkpoint restore/extract and batch scheduling
        // on every host core; detailed steps are a small share.
        Workload::ParsecSweep => Shape {
            sweep_docs: parsec_docs(200_000, 50_000),
            sweep_workers: nproc(),
            sweep_share: 0.6,
            pool: Pool {
                programs: parsec_programs().collect(),
                length: 4_000,
                hot_points: 48,
                store_bytes: 32 * 1024,
            },
        },
        // The request path: spec parsing, store reads and writes, the
        // record codec and the line protocol; simulation is little.
        Workload::ServeReplay => Shape {
            sweep_docs: vec![spec_doc("serve-replay", 50_000)],
            sweep_workers: 1,
            sweep_share: 0.4,
            pool: Pool {
                programs: spec_programs().chain(parsec_programs()).collect(),
                length: 3_000,
                hot_points: 64,
                store_bytes: 32 * 1024,
            },
        },
    }
}
