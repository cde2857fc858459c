//! The traced run: the workload's work once more, with a span around every
//! call into a simulator layer, reported as per-layer self time and counts.
//!
//! Spans can only be taken around public calls, so the traced run executes
//! replicas built from those calls and checks that each replica reproduces
//! the untraced run's canonical record exactly — the spans then describe
//! the same work the end-to-end metrics time:
//!
//! * interval and detailed points run on a **replay stream**: the
//!   generator is drained into a pre-decoded stream first, so
//!   `core.step_s` and `detailed.step_s` exclude generation;
//! * sampled points run a **replica of the sampled schedule**
//!   (`run_sampled_with_batch`) assembled from `fast_forward_batched`,
//!   `warm_access_batch`, `update_batch`, `ModelCheckpoint::from_functional`,
//!   `AnyMachine::restore`, `into_lean_checkpoint`, `step_interval` and
//!   `SamplingEstimate::assemble`;
//! * hybrid points run a **replica of the swap schedule** (`run_hybrid`)
//!   from `AnyMachine::build`, `step_interval`, `into_lean_checkpoint`,
//!   `AnyMachine::restore` and the public `SwapController`;
//! * the serve request path is replayed against a `ResultStore` directly
//!   (parse, expand, store get, simulate, store put, record codec), and a
//!   short closed-loop replay against a real server, outside the traced
//!   span, gives its counters.

use std::time::Instant;

use iss_branch::BranchUnit;
use iss_detailed::DetailedSimulator;
use iss_interval::IntervalSimulator;
use iss_mem::MemoryHierarchy;
use iss_sim::batch::{try_run_batch_with_threads, SimJob};
use iss_sim::config::SystemConfig;
use iss_sim::hybrid::{HybridSpec, PhaseSignal, SwapController};
use iss_sim::model::{AnyMachine, CpuModel, ModelCheckpoint};
use iss_sim::runner::{BaseModel, CoreModel, CoreSummary, SimSummary};
use iss_sim::sampling::{SamplingEstimate, SamplingSpec, SteadyUnitObs};
use iss_sim::scenario::{parse_record_line, render_record_line, Record, SweepSpec};
use iss_sim::serve::Server;
use iss_sim::store::ResultStore;
use iss_trace::{
    fast_forward_batched, CheckpointStream, CoreResume, DynInst, InstBatch, InstructionStream,
    SyncController, ThreadedWorkload,
};

use crate::report::{Report, PER_LAYER};
use crate::run::{serve_options, Scratch};
use crate::serve::{self, spec_toml, RequestStream};
use crate::spans::Tracer;
use crate::stats::{host_kernel_mops, reference_kernel_mops};
use crate::sweep::{self, check_record, Plan};
use crate::workload::{shape, Shape};
use crate::Options;

/// Instructions per `step_interval` call on the replay stream.
const STEP: u64 = 10_000;

/// Cache-line shift of instruction-side warming (as in the sampled runner).
const IFETCH_LINE_SHIFT: u32 = 6;

/// Layer self time must account for at least this share of the traced
/// work (the traced wall time minus the benchmark's own checks).
pub const MIN_COVERAGE: f64 = 0.9;

/// Shares of the measured seconds given to the request-path replica and to
/// the real-server replay.
const REPLICA_SHARE: f64 = 0.15;
const REPLAY_SHARE: f64 = 0.1;

/// A pre-decoded instruction stream: the generator drained ahead of time.
#[derive(Debug, Clone)]
pub struct ReplayStream {
    insts: std::vec::IntoIter<DynInst>,
}

impl InstructionStream for ReplayStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.insts.next()
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.insts.len() as u64)
    }
}

/// Drains every generator of `workload` into replay streams.
fn decode(workload: ThreadedWorkload) -> (Vec<ReplayStream>, SyncController, u64) {
    let (raw, sync) = workload.into_parts();
    let mut total = 0;
    let streams = raw
        .into_iter()
        .map(|mut s| {
            let mut insts = Vec::with_capacity(s.total_instructions() as usize);
            while let Some(inst) = s.next_inst() {
                insts.push(inst);
            }
            total += insts.len() as u64;
            ReplayStream {
                insts: insts.into_iter(),
            }
        })
        .collect();
    (streams, sync, total)
}

fn core_summaries<'a>(per_core: impl Iterator<Item = (usize, u64, u64)> + 'a) -> Vec<CoreSummary> {
    per_core
        .map(|(core, instructions, cycles)| CoreSummary {
            core,
            instructions,
            cycles,
        })
        .collect()
}

/// An interval or detailed point on the replay stream.
fn replay_point(tr: &mut Tracer, kind: BaseModel, job: &SimJob) -> Result<SimSummary, String> {
    let workload = tr.time("sim.workload.build", || job.workload.build(job.seed))?;
    let (streams, sync, insts) = tr.time("trace.generate", || decode(workload));
    tr.add("trace.generate_insts", insts as f64);
    let memory = tr.time("mem.setup", || MemoryHierarchy::new(&job.config.memory));
    let config = &job.config;
    let summary = |cycles, per_core, total_instructions, memory| SimSummary {
        model: job.model,
        workload: job.workload.label(),
        cycles,
        per_core,
        total_instructions,
        host_seconds: 0.0,
        memory,
        swaps: 0,
        sampling: None,
    };
    match kind {
        BaseModel::Interval => {
            let mut sim = tr.time("sim.model.build", || {
                IntervalSimulator::with_memory(
                    &config.interval_core,
                    &config.branch,
                    streams,
                    sync,
                    memory,
                )
            });
            tr.time("core.step", || {
                while !sim.is_done() {
                    sim.step_interval(STEP);
                }
            });
            let r = sim.result();
            tr.add("core.insts", r.total_instructions as f64);
            for c in &r.per_core {
                let s = &c.stats;
                tr.add("core.intervals", s.intervals as f64);
                tr.add(
                    "core.penalty_imiss_cycles",
                    s.instruction_miss_penalty as f64,
                );
                tr.add("core.penalty_branch_cycles", s.branch_miss_penalty as f64);
                tr.add("core.penalty_longlat_cycles", s.long_latency_penalty as f64);
                tr.add("core.penalty_serial_cycles", s.serializing_penalty as f64);
                tr.add(
                    "core.penalty_bandwidth_cycles",
                    s.bandwidth_residual_penalty as f64,
                );
                tr.add("core.sync_blocked_cycles", s.sync_blocked_cycles as f64);
            }
            for b in &r.branch {
                tr.add("branch.mispredicts", b.mispredictions as f64);
            }
            let per_core = r
                .per_core
                .iter()
                .map(|c| (c.core, c.instructions, c.cycles));
            Ok(summary(
                r.cycles,
                core_summaries(per_core),
                r.total_instructions,
                r.memory,
            ))
        }
        BaseModel::Detailed => {
            let mut sim = tr.time("sim.model.build", || {
                DetailedSimulator::with_memory(
                    &config.detailed_core,
                    &config.branch,
                    streams,
                    sync,
                    memory,
                )
            });
            tr.time("detailed.step", || {
                while !sim.is_done() {
                    sim.step_interval(STEP);
                }
            });
            let r = sim.result();
            tr.add("detailed.cycles", r.cycles as f64);
            for b in &r.branch {
                tr.add("branch.mispredicts", b.mispredictions as f64);
            }
            let per_core = r
                .per_core
                .iter()
                .map(|c| (c.core, c.instructions, c.cycles));
            Ok(summary(
                r.cycles,
                core_summaries(per_core),
                r.total_instructions,
                r.memory,
            ))
        }
        BaseModel::OneIpc => Err("the sweep has no one-IPC points".to_string()),
    }
}

/// Functionally maintained machine state between measured units (the
/// sampled runner's private `FunctionalState`, rebuilt from public parts).
struct Functional {
    streams: Vec<CheckpointStream>,
    branch: Vec<BranchUnit>,
    memory: MemoryHierarchy,
    sync: SyncController,
    per_core: Vec<CoreResume>,
    last_iline: Vec<u64>,
    now: u64,
    batch: InstBatch,
}

impl Functional {
    fn from_checkpoint(ckpt: ModelCheckpoint, config: &SystemConfig, warm_batch: usize) -> Self {
        let num_cores = ckpt.streams.len();
        let mut memory = ckpt.memory;
        memory.set_warming(true);
        let branch = ckpt.branch.unwrap_or_else(|| {
            (0..num_cores)
                .map(|_| BranchUnit::new(&config.branch))
                .collect()
        });
        Functional {
            streams: ckpt.streams,
            branch,
            memory,
            sync: ckpt.sync,
            per_core: ckpt.per_core,
            last_iline: vec![u64::MAX; num_cores],
            now: ckpt.machine_time,
            batch: InstBatch::with_capacity(warm_batch),
        }
    }

    fn into_checkpoint(mut self, from: BaseModel) -> ModelCheckpoint {
        self.memory.set_warming(false);
        ModelCheckpoint::from_functional(
            from,
            self.now,
            self.per_core,
            self.streams,
            Some(self.branch),
            self.memory,
            self.sync,
        )
    }

    fn all_done(&self) -> bool {
        self.per_core.iter().all(|c| c.done)
    }

    /// Fast-forwards up to `budget` instructions, warming the hierarchy and
    /// branch tables batch by batch.
    fn advance(&mut self, tr: &mut Tracer, budget: u64) -> u64 {
        let Functional {
            streams,
            branch,
            memory,
            sync,
            per_core,
            last_iline,
            now,
            batch,
        } = self;
        let mut clock = *now;
        let (mut batches, mut accesses, mut updates) = (0u64, 0u64, 0u64);
        let span = tr.enter("trace.fastfwd");
        let consumed = fast_forward_batched(
            streams,
            sync,
            per_core,
            budget,
            batch,
            &mut |core, b: &InstBatch| {
                let warm = tr.enter("mem.warm");
                memory.warm_access_batch(
                    core,
                    &b.pc,
                    &b.mem_pos,
                    &b.mem_addr,
                    &b.mem_store,
                    IFETCH_LINE_SHIFT,
                    &mut last_iline[core],
                    clock,
                );
                tr.exit(warm);
                let update = tr.enter("branch.update");
                branch[core].update_batch(&b.br_pc, &b.br_info);
                tr.exit(update);
                batches += 1;
                accesses += b.mem_addr.len() as u64;
                updates += b.br_pc.len() as u64;
                clock += b.len() as u64;
            },
        );
        tr.exit(span);
        tr.add("trace.fastfwd_batches", batches as f64);
        tr.add("mem.warm_accesses", accesses as f64);
        tr.add("branch.updates", updates as f64);
        *now = clock;
        for resume in per_core.iter_mut() {
            if !resume.done {
                resume.time = clock;
            }
        }
        consumed
    }
}

#[allow(clippy::large_enum_variant)]
enum Phase {
    Functional(Functional),
    Timed(AnyMachine),
}

/// `(cycles, instructions, memory latency cycles, per-core (cycles, insts))`.
fn probe(machine: &AnyMachine, spec: SamplingSpec) -> (u64, u64, u64, Vec<(u64, u64)>) {
    let s = machine.summary(CoreModel::Sampled(spec), String::new());
    let per_core = s
        .per_core
        .iter()
        .map(|c| (c.cycles, c.instructions))
        .collect();
    (
        s.cycles,
        s.total_instructions,
        s.memory.totals().latency_cycles,
        per_core,
    )
}

/// The sampled schedule of `run_sampled_with_batch`, step for step.
fn sampled_point(tr: &mut Tracer, spec: SamplingSpec, job: &SimJob) -> Result<SimSummary, String> {
    let warm_batch = iss_sim::env::try_warm_batch_from_env()?;
    let config = &job.config;
    let workload = tr.time("sim.workload.build", || job.workload.build(job.seed))?;
    let num_cores = workload.num_cores();
    let (raw, sync) = workload.into_parts();
    let mut memory = tr.time("mem.setup", || MemoryHierarchy::new(&config.memory));
    memory.set_warming(true);
    let mut phase = Phase::Functional(Functional {
        streams: raw.into_iter().map(CheckpointStream::fresh).collect(),
        branch: (0..num_cores)
            .map(|_| BranchUnit::new(&config.branch))
            .collect(),
        memory,
        sync,
        per_core: vec![
            CoreResume {
                time: 0,
                instructions: 0,
                done: false,
            };
            num_cores
        ],
        last_iline: vec![u64::MAX; num_cores],
        now: 0,
        batch: InstBatch::with_capacity(warm_batch),
    });

    let mut unit: u64 = 0;
    let mut swaps: u64 = 0;
    let mut fast_forwarded: u64 = 0;
    let mut steady_obs: Vec<SteadyUnitObs> = Vec::new();
    let mut prefix_acc = (0u64, 0u64);
    let mut steady_acc = (0u64, 0u64);
    let mut per_core_prefix = vec![(0u64, 0u64); num_cores];
    let mut per_core_steady = vec![(0u64, 0u64); num_cores];
    let period = u64::from(spec.sample_every);
    let prefix_units = u64::from(spec.prefix_units);
    loop {
        let done = match &phase {
            Phase::Functional(fs) => fs.all_done(),
            Phase::Timed(m) => m.is_done(),
        };
        if done {
            break;
        }
        let in_prefix = unit < prefix_units;
        let sampled = !in_prefix && (unit - prefix_units) % period == period - 1;
        if in_prefix || sampled {
            let mut machine = match phase {
                Phase::Timed(m) => m,
                Phase::Functional(fs) => {
                    if fast_forwarded > 0 {
                        swaps += 1;
                    }
                    tr.add("sim.model.restores", 1.0);
                    tr.time("sim.model.restore", || {
                        AnyMachine::restore(spec.measure, config, fs.into_checkpoint(spec.measure))
                    })
                }
            };
            let span = tr.enter("sim.sampling.measure");
            let warmup = if sampled { spec.warmup_insts } else { 0 };
            if warmup > 0 {
                machine.step_interval(warmup);
            }
            if !machine.is_done() {
                let (c0, i0, m0, pc0) = probe(&machine, spec);
                machine.step_interval(spec.unit_insts - warmup);
                let (c1, i1, m1, pc1) = probe(&machine, spec);
                let (dc, di) = (c1 - c0, i1 - i0);
                if di > 0 {
                    let obs = SteadyUnitObs {
                        insts: di,
                        aux_per_inst: (m1 - m0) as f64 / di as f64,
                        cpi: Some(dc as f64 / di as f64),
                    };
                    let (acc, per_core_acc) = if in_prefix {
                        (&mut prefix_acc, &mut per_core_prefix)
                    } else {
                        steady_obs.push(obs);
                        (&mut steady_acc, &mut per_core_steady)
                    };
                    acc.0 += dc;
                    acc.1 += di;
                    for (core, slot) in per_core_acc.iter_mut().enumerate() {
                        slot.0 += pc1[core].0 - pc0[core].0;
                        slot.1 += pc1[core].1 - pc0[core].1;
                    }
                }
            }
            tr.exit(span);
            phase = Phase::Timed(machine);
        } else {
            let mut fs = match phase {
                Phase::Timed(m) => {
                    tr.add("sim.model.extracts", 1.0);
                    tr.time("sim.model.extract", || {
                        Functional::from_checkpoint(m.into_lean_checkpoint(), config, warm_batch)
                    })
                }
                Phase::Functional(fs) => fs,
            };
            let latency_before = fs.memory.stats().totals().latency_cycles;
            let consumed = fs.advance(tr, spec.unit_insts);
            if consumed > 0 {
                let latency = fs.memory.stats().totals().latency_cycles - latency_before;
                steady_obs.push(SteadyUnitObs {
                    insts: consumed,
                    aux_per_inst: latency as f64 / consumed as f64,
                    cpi: None,
                });
            }
            fast_forwarded += consumed;
            let stuck = consumed == 0 && !fs.all_done();
            phase = Phase::Functional(fs);
            if stuck {
                let offset = unit - prefix_units;
                unit += (period - 1 - offset % period) % period;
                continue;
            }
        }
        unit += 1;
    }

    let (total_instructions, per_core_insts, memory) = match &phase {
        Phase::Timed(m) => {
            let s = m.summary(CoreModel::Sampled(spec), String::new());
            let insts: Vec<u64> = s.per_core.iter().map(|c| c.instructions).collect();
            (s.total_instructions, insts, m.memory_stats())
        }
        Phase::Functional(fs) => (
            fs.per_core.iter().map(|c| c.instructions).sum(),
            fs.per_core.iter().map(|c| c.instructions).collect(),
            fs.memory.stats(),
        ),
    };
    let regress = spec.measure == BaseModel::Detailed;
    let estimate = tr.time("sim.sampling.estimate", || {
        SamplingEstimate::assemble(&steady_obs, prefix_acc, total_instructions, unit, regress)
    });
    tr.add(
        "sim.sampling.units_measured",
        estimate.units_measured as f64,
    );
    tr.add("sim.sampling.units_total", estimate.units_total as f64);
    if estimate.ci95_half_width.is_finite() && estimate.cpi > 0.0 {
        tr.add(
            "bench.ci95_rel_sum",
            estimate.ci95_half_width / estimate.cpi,
        );
        tr.add("bench.ci95_rel_n", 1.0);
    }
    let cycles = (estimate.cpi * total_instructions as f64).round() as u64;
    let chip_raw_steady = if steady_acc.1 > 0 {
        steady_acc.0 as f64 / steady_acc.1 as f64
    } else {
        estimate.steady_cpi
    };
    let adjustment = estimate.steady_cpi - chip_raw_steady;
    let per_core = per_core_insts
        .iter()
        .enumerate()
        .map(|(core, &insts)| {
            let cycles = if num_cores == 1 {
                cycles
            } else {
                let (pc, pi) = per_core_prefix[core];
                let (sc, si) = per_core_steady[core];
                let steady_cpi = if si > 0 {
                    (sc as f64 / si as f64 + adjustment).max(0.05)
                } else {
                    estimate.steady_cpi
                };
                (pc as f64 + steady_cpi * insts.saturating_sub(pi) as f64).round() as u64
            };
            CoreSummary {
                core,
                instructions: insts,
                cycles,
            }
        })
        .collect();
    Ok(SimSummary {
        model: CoreModel::Sampled(spec),
        workload: job.workload.label(),
        cycles,
        per_core,
        total_instructions,
        host_seconds: 0.0,
        memory,
        swaps,
        sampling: Some(estimate),
    })
}

/// The swap schedule of `run_hybrid`, step for step: a timed machine
/// stepped one quantum at a time, handed to the other base model through a
/// lean checkpoint whenever the swap controller says so. The steps run on
/// the live checkpointable streams, so `sim.hybrid.step` includes
/// generation.
fn hybrid_point(tr: &mut Tracer, spec: HybridSpec, job: &SimJob) -> Result<SimSummary, String> {
    let config = &job.config;
    let workload = tr.time("sim.workload.build", || job.workload.build(job.seed))?;
    let mut controller = SwapController::new(spec);
    let mut machine = tr.time("sim.model.build", || {
        AnyMachine::build(controller.initial_model(), config, workload)
    });
    while !machine.is_done() {
        let time_before = machine.machine_time();
        let insts_before = machine.retired_instructions();
        let dram_before = machine.memory_stats().dram_transactions;
        tr.time("sim.hybrid.step", || {
            machine.step_interval(spec.interval_insts)
        });
        if machine.is_done() {
            break;
        }
        let cycles = (machine.machine_time() - time_before).max(1) as f64;
        let insts = (machine.retired_instructions() - insts_before).max(1) as f64;
        let dram = (machine.memory_stats().dram_transactions - dram_before) as f64;
        let signal = PhaseSignal {
            cpi: cycles / insts,
            dram_pki: dram * 1000.0 / insts,
        };
        let next = controller.decide(machine.kind(), signal);
        if next != machine.kind() {
            tr.add("sim.model.extracts", 1.0);
            let ckpt = tr.time("sim.model.extract", || machine.into_lean_checkpoint());
            tr.add("sim.model.restores", 1.0);
            machine = tr.time("sim.model.restore", || {
                AnyMachine::restore(next, config, ckpt)
            });
        }
    }
    let mut summary = machine.summary(CoreModel::Hybrid(spec), job.workload.label());
    summary.swaps = controller.swaps();
    tr.add("sim.hybrid.swaps", summary.swaps as f64);
    Ok(summary)
}

/// Every traced replica of one sweep point, dispatched on its model.
fn traced_point(tr: &mut Tracer, job: &SimJob) -> Result<SimSummary, String> {
    match job.model {
        CoreModel::Interval => replay_point(tr, BaseModel::Interval, job),
        CoreModel::Detailed => replay_point(tr, BaseModel::Detailed, job),
        CoreModel::Sampled(spec) => sampled_point(tr, spec, job),
        CoreModel::Hybrid(spec) => hybrid_point(tr, spec, job),
        CoreModel::OneIpc => Err("the sweep has no one-IPC points".to_string()),
    }
}

/// Set-up under spans: parse, expand, build and allocate every point, open
/// the replica's store and bind the server.
fn traced_setup(
    tr: &mut Tracer,
    shape: &Shape,
    scratch: &Scratch,
) -> Result<(Plan, ResultStore, Server), String> {
    let mut plan = Plan {
        points: Vec::new(),
        jobs: Vec::new(),
    };
    for doc in &shape.sweep_docs {
        let sweep = tr.time("sim.scenario.parse", || SweepSpec::from_toml(doc))?;
        tr.time("sim.scenario.expand", || plan.extend(&sweep))?;
    }
    for job in &plan.jobs {
        std::hint::black_box(tr.time("sim.workload.build", || job.workload.build(job.seed))?);
        std::hint::black_box(tr.time("mem.setup", || MemoryHierarchy::new(&job.config.memory)));
    }
    let store = tr.time("sim.store.open", || {
        ResultStore::open(&scratch.store(0), Some(shape.pool.store_bytes))
    })?;
    let server = tr.time("sim.serve.bind", || {
        Server::bind("127.0.0.1:0", &serve_options(shape, &scratch.store(1)))
    })?;
    Ok((plan, store, server))
}

/// The server's request path against the store, one request at a time.
fn request_replica(
    tr: &mut Tracer,
    shape: &Shape,
    stream: &RequestStream,
    store: &mut ResultStore,
    budget_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let mut baselines = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < 10 || start.elapsed().as_secs_f64() < budget_s {
        let (point, _) = stream.request(0, i);
        i += 1;
        let text = spec_toml(&shape.pool, &point);
        let sweep = tr.time("sim.scenario.parse", || SweepSpec::from_toml(&text))?;
        let (spec, job, key) = tr.time("sim.scenario.expand", || -> Result<_, String> {
            let spec = sweep
                .expand()?
                .pop()
                .ok_or("a request expands to no point")?;
            let job = spec.to_job()?;
            let key = store.key_for(&spec)?;
            Ok((spec, job, key))
        })?;
        report.attempted += 1;
        tr.add("sim.store.gets", 1.0);
        let record = match tr.time("sim.store.get", || store.get(&key)) {
            Some(record) => record,
            None => {
                let outcome = tr.time("sim.serve.simulate", || {
                    try_run_batch_with_threads(std::slice::from_ref(&job), 1).pop()
                });
                let outcome = outcome.ok_or("the batch engine returned no outcome")?;
                let record = sweep::to_record(&(sweep.name.clone(), spec.clone()), outcome)?;
                if record.failure.is_none() {
                    tr.add("sim.store.puts", 1.0);
                    tr.time("sim.store.put", || store.put(&key, &record))?;
                }
                record
            }
        };
        let line = tr.time("sim.jsonl.render", || render_record_line(&record));
        tr.add("sim.jsonl.bytes", line.len() as f64);
        let back = tr.time("sim.jsonl.parse", || parse_record_line(&line))?;
        let verdict = tr.time("bench.check", || {
            check_record(&spec, &back)?;
            // As in the serve replay: the first answer's bytes, or its
            // canonical record once an eviction made the point simulate
            // again.
            match baselines.get(&point) {
                Some((first, _)) if *first == line => Ok(()),
                Some((_, canonical)) if *canonical == back.canonical() => Ok(()),
                Some(_) => Err(format!(
                    "request {i}: record differs from the first answer for its point"
                )),
                None => {
                    baselines.insert(point, (line.clone(), back.canonical()));
                    Ok(())
                }
            }
        });
        if let Err(e) = verdict {
            report.fail(e);
        }
    }
    let gets = tr.count("sim.store.gets");
    tr.add(
        "sim.store.hit_ratio",
        store.stats.hits as f64 / gets.max(1.0),
    );
    tr.add("sim.store.evictions", store.stats.evictions as f64);
    Ok(())
}

/// Spans that time a whole simulation through a public entry point, so no
/// layer split exists beneath them.
const OPAQUE: [&str; 1] = ["sim.serve.simulate"];

pub fn run(options: &Options) -> Result<Report, String> {
    let shape = shape(options.workload);
    let scratch = Scratch::new()?;
    let mut report = Report::default();
    let mut tr = Tracer::new();
    let ref_mops = reference_kernel_mops(1 << 26);

    // The untraced reference round on the batch engine, outside the traced
    // span: the records every replica must reproduce, and the engine's
    // busy and idle time.
    let plan = sweep::plan(&shape.sweep_docs)?;
    let t = Instant::now();
    let outcomes = try_run_batch_with_threads(&plan.jobs, shape.sweep_workers);
    let sweep_wall = t.elapsed().as_secs_f64();
    let reference: Vec<Record> = plan
        .points
        .iter()
        .zip(outcomes)
        .map(|(point, outcome)| sweep::to_record(point, outcome))
        .collect::<Result<_, String>>()?;
    let busy: f64 = reference.iter().map(|r| r.host_seconds).sum();
    let capacity = sweep_wall * shape.sweep_workers as f64;
    tr.add("sim.batch.sweep_s", sweep_wall);
    tr.add("sim.batch.busy_s", busy);
    tr.add("sim.batch.idle_s", (capacity - busy).max(0.0));
    tr.add("sim.batch.utilization", busy / capacity);

    // Untraced single-worker wall time of the same points: the base of the
    // tracing overhead (the reference round, when it ran on one worker).
    let untraced_s = if shape.sweep_workers == 1 {
        sweep_wall
    } else {
        let t = Instant::now();
        std::hint::black_box(try_run_batch_with_threads(&plan.jobs, 1));
        t.elapsed().as_secs_f64()
    };

    // Everything under the root span is traced work: set-up, the replicas
    // and the request path against the store.
    let root = tr.enter("bench.run");
    let (plan, mut store, server) = traced_setup(&mut tr, &shape, &scratch)?;
    let mut traced_s = 0.0;
    for ((point, job), expected) in plan.points.iter().zip(&plan.jobs).zip(&reference) {
        report.attempted += 1;
        let t = Instant::now();
        let summary = traced_point(&mut tr, job);
        traced_s += t.elapsed().as_secs_f64();
        let verdict = tr.time("bench.check", || -> Result<[u64; 3], String> {
            let summary = summary?;
            let m = summary.memory.totals();
            let counts = [m.l1d_misses, m.l2_misses, summary.memory.dram_transactions];
            let record = point.1.to_record(&point.0, summary)?;
            check_record(&point.1, &record)?;
            if record.canonical() != expected.canonical() {
                return Err(format!(
                    "{}: the traced replica's record differs from the untraced run's",
                    point.1.name
                ));
            }
            Ok(counts)
        });
        match verdict {
            Ok([l1d, l2, dram]) => {
                tr.add("mem.l1d_misses", l1d as f64);
                tr.add("mem.l2_misses", l2 as f64);
                tr.add("mem.dram_accesses", dram as f64);
            }
            Err(e) => report.fail(e),
        }
    }
    let stream = RequestStream::new(&shape.pool, options.seed);
    request_replica(
        &mut tr,
        &shape,
        &stream,
        &mut store,
        options.seconds * REPLICA_SHARE,
        &mut report,
    )?;
    tr.exit(root);

    // The real server, outside the traced span: the counters only it has.
    let t = Instant::now();
    let replay = serve::replay(server, &shape.pool, &stream, options.seconds * REPLAY_SHARE)?;
    tr.add("sim.serve.replay_s", t.elapsed().as_secs_f64());
    report.attempted += replay.attempted;
    for p in replay.problems {
        report.fail(p);
    }
    tr.add("sim.serve.connect_s", replay.connect_s);
    tr.add(
        "sim.serve.request_s",
        replay.latencies_ms.iter().sum::<f64>() / 1e3,
    );
    tr.add("sim.serve.hits", replay.server.hits as f64);
    tr.add("sim.serve.misses", replay.server.misses as f64);
    tr.add("sim.serve.coalesced", replay.server.coalesced as f64);
    tr.add(
        "sim.serve.worker_utilization",
        replay.server.worker_utilization(),
    );
    let n = tr.count("bench.ci95_rel_n");
    tr.add(
        "sim.sampling.ci95_rel",
        tr.count("bench.ci95_rel_sum") / n.max(1.0),
    );

    // Each declared metric is a counter of that name, or the self time of
    // the span its name minus `_s` names.
    let selfs = tr.self_seconds();
    for (name, _) in PER_LAYER {
        let span = name.strip_suffix("_s").and_then(|base| selfs.get(base));
        report.set(name, span.copied().unwrap_or_else(|| tr.count(name)));
    }
    // Coverage is over the traced work the benchmark did not spend on its
    // own checks: what the layer spans explain, against the root span's
    // self time (the glue between calls) that nothing explains.
    let wall = tr.total_seconds("bench.run");
    let checks: f64 = selfs
        .iter()
        .filter(|(name, _)| name.starts_with("bench.") && **name != "bench.run")
        .map(|(_, s)| s)
        .sum();
    let traced_work = wall - checks;
    let layers: f64 = selfs
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, s)| s)
        .sum();
    let opaque: f64 = OPAQUE.iter().filter_map(|name| selfs.get(name)).sum();
    let coverage = layers / traced_work;
    report.set("profile.coverage", coverage);
    report.set("profile.opaque_share", opaque / traced_work);
    report.set(
        "profile.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
    );
    report.set("host.ref_kernel_mops", ref_mops);
    report.set("host.kernel_mops", host_kernel_mops(sweep::KERNEL_ITERS, 1));
    report.notes.push(format!(
        "traced wall {wall:.3} s, {checks:.3} s of it the benchmark's checks; layer self time \
         covers {:.1}% of the rest (tolerance: at least {:.0}%), {:.1}% of it in spans with no \
         layer split ({}); the replicas took {traced_s:.3} s against {untraced_s:.3} s untraced",
        coverage * 100.0,
        MIN_COVERAGE * 100.0,
        opaque / traced_work * 100.0,
        OPAQUE.join(", ")
    ));
    if coverage < MIN_COVERAGE {
        report.fail(format!(
            "layer self time covers {:.1}% of the traced work, below {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    Ok(report)
}
