//! Shim over the generic scenario engine for Figure 10 (simulation
//! speedup, PARSEC). Equivalent to `iss run fig10`.

use iss_bench::{CORE_COUNTS, PARSEC_QUICK};
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::fig10;
use iss_sim::report::format_comparison_table;
use iss_trace::catalog::PARSEC;

fn main() {
    let all = std::env::args().any(|a| a == "--all-benchmarks");
    let benchmarks: Vec<&str> = if all {
        PARSEC.to_vec()
    } else {
        PARSEC_QUICK.to_vec()
    };
    let records = fig10(&benchmarks, &CORE_COUNTS, EXPERIMENT_SCALE.get());
    println!(
        "{}",
        format_comparison_table(
            "Figure 10 — simulation speedup over detailed simulation (PARSEC)",
            &records,
            "detailed"
        )
    );
}
