//! Shim over the generic scenario engine for Figure 7 (PARSEC scaling).
//! Equivalent to `iss run fig7`.

use iss_bench::{CORE_COUNTS, PARSEC_QUICK};
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::fig7;
use iss_sim::report::format_normalized_table;
use iss_trace::catalog::PARSEC;

fn main() {
    let all = std::env::args().any(|a| a == "--all-benchmarks");
    let benchmarks: Vec<&str> = if all {
        PARSEC.to_vec()
    } else {
        PARSEC_QUICK.to_vec()
    };
    let records = fig7(&benchmarks, &CORE_COUNTS, EXPERIMENT_SCALE.get());
    println!(
        "{}",
        format_normalized_table(
            "Figure 7 — multi-threaded PARSEC workloads",
            &records,
            "detailed"
        )
    );
}
