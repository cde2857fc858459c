//! The sweep phase: scenario specs expanded into one job list and executed
//! on the batch engine round after round.

use std::collections::BTreeMap;
use std::time::Instant;

use iss_sim::batch::{try_run_batch_with_threads, JobFailure, SimJob};
use iss_sim::runner::{CoreModel, SimSummary};
use iss_sim::scenario::{Record, ScenarioSpec, SweepSpec};
use iss_sim::store::workload_instructions;

use crate::report::Report;
use crate::stats::{host_kernel_mops, REFERENCE_HOST_MOPS};

/// Lookups per host-kernel run (about 25 ms each on the reference host).
pub const KERNEL_ITERS: u64 = 1 << 21;

/// The speed metric of each model kind.
pub const MIPS: [&str; 4] = [
    "interval_mips",
    "detailed_mips",
    "sampled_mips",
    "hybrid_mips",
];

/// Index of `model` in [`MIPS`] (`None` for the one-IPC model).
pub fn kind(model: &CoreModel) -> Option<usize> {
    match model {
        CoreModel::Interval => Some(0),
        CoreModel::Detailed => Some(1),
        CoreModel::Sampled(_) => Some(2),
        CoreModel::Hybrid(_) => Some(3),
        CoreModel::OneIpc => None,
    }
}

/// An expanded sweep: every point with the name of the sweep it came from,
/// and its batch job.
pub struct Plan {
    pub points: Vec<(String, ScenarioSpec)>,
    pub jobs: Vec<SimJob>,
}

impl Plan {
    /// Appends every point of one parsed sweep.
    pub fn extend(&mut self, sweep: &SweepSpec) -> Result<(), String> {
        for point in sweep.expand()? {
            self.jobs.push(point.to_job()?);
            self.points.push((sweep.name.clone(), point));
        }
        Ok(())
    }
}

/// Parses and expands the scenario files into one plan.
pub fn plan(docs: &[String]) -> Result<Plan, String> {
    let mut plan = Plan {
        points: Vec::new(),
        jobs: Vec::new(),
    };
    for doc in docs {
        plan.extend(&SweepSpec::from_toml(doc)?)?;
    }
    Ok(plan)
}

/// The record of one batch outcome (a quarantined row for a panic).
pub fn to_record(
    (sweep, point): &(String, ScenarioSpec),
    outcome: Result<SimSummary, JobFailure>,
) -> Result<Record, String> {
    match outcome {
        Ok(summary) => point.to_record(sweep, summary),
        Err(failure) => Ok(Record::from_failure(
            sweep,
            &point.group,
            &point.variant,
            point.benchmark.as_deref(),
            failure,
        )),
    }
}

/// The output checks every simulated point must pass: not quarantined, and
/// every model — hybrid and sampled included — retires exactly the
/// workload's instructions, chip-wide and summed over cores.
pub fn check_record(point: &ScenarioSpec, record: &Record) -> Result<(), String> {
    if let Some(failure) = &record.failure {
        return Err(format!("{}: quarantined: {}", point.name, failure.message));
    }
    let expected = workload_instructions(&point.workload);
    let per_core: u64 = record.per_core.iter().map(|c| c.instructions).sum();
    if record.instructions != expected || per_core != expected {
        return Err(format!(
            "{}: retired {} instructions ({per_core} over cores), the workload has {expected}",
            point.name, record.instructions
        ));
    }
    Ok(())
}

/// Mean absolute CPI error (percent) of interval and of sampled records
/// against the detailed record of the same workload and seed.
pub fn cpi_errors(records: &[(CoreModel, Record)]) -> (f64, f64) {
    let mut reference = BTreeMap::new();
    for (model, r) in records {
        if *model == CoreModel::Detailed {
            reference.insert((r.workload.clone(), r.seed), r.cpi());
        }
    }
    let mut errors: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (model, r) in records {
        let Some(&detailed) = reference.get(&(r.workload.clone(), r.seed)) else {
            continue;
        };
        let slot = match model {
            CoreModel::Interval => 0,
            CoreModel::Sampled(_) => 1,
            _ => continue,
        };
        errors[slot].push((r.cpi() - detailed).abs() / detailed * 100.0);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&errors[0]), mean(&errors[1]))
}

/// One round's host-time figure, raw and host-normalized.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub raw: f64,
    /// The figure on a host whose host kernel runs at
    /// [`REFERENCE_HOST_MOPS`], by the kernel measured on either side of the
    /// round.
    pub host: f64,
}

/// What the sweep rounds measured.
#[derive(Default)]
pub struct Rounds {
    /// Wall seconds of each round's job list.
    pub sweep_s: Vec<Sample>,
    /// Simulated MIPS per model kind, one sample per round.
    pub mips: [Vec<Sample>; 4],
    /// Host-kernel MOPS measured before the first round and after each.
    pub kernel_mops: Vec<f64>,
    /// Records of the first round with their models (later rounds must
    /// match them).
    pub records: Vec<(CoreModel, Record)>,
}

impl Rounds {
    /// Runs the job list once on `workers` batch workers, checking every
    /// record and comparing the round's canonical records with the first
    /// round's.
    pub fn round(&mut self, plan: &Plan, workers: usize, report: &mut Report) {
        // The kernel runs between rounds; each round is normalized by the
        // mean of the runs on either side of it.
        let before = match self.kernel_mops.last() {
            Some(&k) => k,
            None => {
                let k = host_kernel_mops(KERNEL_ITERS, workers);
                self.kernel_mops.push(k);
                k
            }
        };
        let t = Instant::now();
        let outcomes = try_run_batch_with_threads(&plan.jobs, workers);
        let wall = t.elapsed().as_secs_f64();
        let after = host_kernel_mops(KERNEL_ITERS, workers);
        self.kernel_mops.push(after);
        let speed = (before + after) / 2.0 / REFERENCE_HOST_MOPS;
        self.sweep_s.push(Sample {
            raw: wall,
            host: wall * speed,
        });
        let mut insts = [0u64; 4];
        let mut secs = [0f64; 4];
        let mut records = Vec::with_capacity(outcomes.len());
        for ((point, outcome), job) in plan.points.iter().zip(outcomes).zip(&plan.jobs) {
            report.attempted += 1;
            let record = match to_record(point, outcome) {
                Ok(record) => record,
                Err(e) => {
                    report.fail(format!("{}: {e}", point.1.name));
                    continue;
                }
            };
            if let Err(e) = check_record(&point.1, &record) {
                report.fail(e);
            } else if let Some(k) = kind(&job.model) {
                insts[k] += record.instructions;
                secs[k] += record.host_seconds;
            }
            records.push((job.model, record));
        }
        if self.records.is_empty() {
            self.records = records;
        } else if records
            .iter()
            .map(|(_, r)| r.canonical())
            .ne(self.records.iter().map(|(_, r)| r.canonical()))
        {
            report.fail("canonical records differ between repeats of the sweep".to_string());
        }
        for k in 0..MIPS.len() {
            if secs[k] > 0.0 {
                let raw = insts[k] as f64 / secs[k] / 1e6;
                self.mips[k].push(Sample {
                    raw,
                    host: raw / speed,
                });
            }
        }
    }
}
