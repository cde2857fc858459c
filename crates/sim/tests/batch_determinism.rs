//! Integration tests for the parallel batch engine: bit-identical results
//! regardless of worker count, and per-job panic isolation.

use iss_sim::batch::{try_run_batch_with_threads, SimJob};
use iss_sim::config::SystemConfig;
use iss_sim::env::THREADS;
use iss_sim::runner::{run, CoreModel, SimSummary};
use iss_sim::workload::WorkloadSpec;

/// Runs the batch and unwraps every slot.
fn run_all(jobs: &[SimJob], threads: usize) -> Vec<SimSummary> {
    try_run_batch_with_threads(jobs, threads)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// A mixed job list covering every workload shape and every core model.
fn mixed_jobs() -> Vec<SimJob> {
    let seed = 11;
    vec![
        SimJob::new(
            CoreModel::Interval,
            SystemConfig::hpca2010_baseline(1),
            WorkloadSpec::single("gcc", 4_000),
            seed,
        ),
        SimJob::new(
            CoreModel::Detailed,
            SystemConfig::hpca2010_baseline(1),
            WorkloadSpec::single("mcf", 3_000),
            seed,
        ),
        SimJob::new(
            CoreModel::Interval,
            SystemConfig::hpca2010_baseline(2),
            WorkloadSpec::homogeneous("gzip", 2, 3_000),
            seed,
        ),
        SimJob::new(
            CoreModel::Interval,
            SystemConfig::hpca2010_baseline(2),
            WorkloadSpec::multithreaded("blackscholes", 2, 8_000),
            seed,
        ),
        SimJob::new(
            CoreModel::OneIpc,
            SystemConfig::hpca2010_baseline(1),
            WorkloadSpec::single("swim", 2_000),
            seed,
        ),
        SimJob::new(
            CoreModel::Detailed,
            SystemConfig::hpca2010_baseline(2),
            WorkloadSpec::multithreaded("fluidanimate", 2, 6_000),
            seed,
        ),
    ]
}

#[test]
fn four_workers_match_the_serial_path_byte_for_byte() {
    let jobs = mixed_jobs();
    // The reference: the plain serial runner, no pool involved at all.
    let serial: Vec<String> = jobs
        .iter()
        .map(|j| run(j.model, &j.config, &j.workload, j.seed).canonical_record())
        .collect();
    let parallel: Vec<String> = run_all(&jobs, 4)
        .iter()
        .map(|s| s.canonical_record())
        .collect();
    assert_eq!(
        serial, parallel,
        "the batch engine must be invisible to the simulated results"
    );
}

#[test]
fn repeated_parallel_runs_are_stable() {
    let jobs = mixed_jobs();
    let a: Vec<String> = run_all(&jobs, 4)
        .iter()
        .map(|s| s.canonical_record())
        .collect();
    let b: Vec<String> = run_all(&jobs, 3)
        .iter()
        .map(|s| s.canonical_record())
        .collect();
    assert_eq!(a, b);
}

#[test]
fn one_poisoned_job_does_not_sink_the_batch() {
    let mut jobs = mixed_jobs();
    // Core-count mismatch: the runner panics when the workload needs more
    // cores than the configuration has.
    jobs.insert(
        2,
        SimJob::new(
            CoreModel::Interval,
            SystemConfig::hpca2010_baseline(1),
            WorkloadSpec::homogeneous("gcc", 4, 1_000),
            11,
        ),
    );
    let out = try_run_batch_with_threads(&jobs, 4);
    assert_eq!(out.len(), 7);
    let err = out[2].as_ref().expect_err("poisoned job must report");
    assert_eq!(err.job, 2);
    assert!(
        err.message.contains("needs 4 cores"),
        "got: {}",
        err.message
    );
    for (i, r) in out.iter().enumerate() {
        if i != 2 {
            assert!(r.is_ok(), "job {i} must survive the poisoned neighbour");
        }
    }
}

#[test]
fn run_batch_defaults_are_usable() {
    let jobs = vec![SimJob::new(
        CoreModel::Interval,
        SystemConfig::hpca2010_baseline(1),
        WorkloadSpec::single("twolf", 2_000),
        3,
    )];
    let out = run_all(&jobs, THREADS.get());
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].total_instructions, 2_000);
}
