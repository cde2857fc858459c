//! The built-in sweeps read `ISS_THREADS`; their rows must not depend on it.
//!
//! This is deliberately the *only* test in this binary: it mutates the
//! process environment with `std::env::set_var`, which is unsound when other
//! threads concurrently read the environment (glibc `setenv`/`getenv` race).
//! As the sole test it runs with no sibling test threads, and the batch
//! workers it spawns never touch the environment (`THREADS` is read on the
//! calling thread before the pool starts).

use iss_sim::env::THREADS;
use iss_sim::experiments::{builtin, ExperimentScale};
use iss_sim::{Record, SweepSpec};

/// Everything deterministic in a record (host wall-clock excluded — it
/// varies run to run by nature, exactly like the old drivers' host-time
/// columns did).
fn canonical(records: &[Record]) -> Vec<String> {
    records.iter().map(Record::canonical).collect()
}

/// Runs `sweep` on the `ISS_THREADS` batch engine.
fn run(sweep: &SweepSpec) -> Vec<Record> {
    sweep.run().unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn driver_rows_are_identical_across_worker_counts() {
    let scale = ExperimentScale {
        spec_length: 4_000,
        parsec_length: 8_000,
        seed: 5,
    };
    let mut fig5 = builtin("fig5", scale).unwrap();
    fig5.benchmarks = vec!["gcc".into(), "mcf".into()];
    let mut fig6 = builtin("fig6", scale).unwrap();
    fig6.benchmarks = vec!["gzip".into()];
    fig6.cores = vec![1, 2];
    std::env::set_var("ISS_THREADS", "1");
    assert_eq!(THREADS.get(), 1);
    let serial_fig5 = run(&fig5);
    let serial_fig6 = run(&fig6);
    std::env::set_var("ISS_THREADS", "4");
    assert_eq!(THREADS.get(), 4);
    let parallel_fig5 = run(&fig5);
    let parallel_fig6 = run(&fig6);
    std::env::remove_var("ISS_THREADS");
    assert_eq!(canonical(&serial_fig5), canonical(&parallel_fig5));
    assert_eq!(canonical(&serial_fig6), canonical(&parallel_fig6));
}
