//! Shim over the generic scenario engine for Figure 9 (simulation speedup,
//! SPEC multi-program). Equivalent to `iss run fig9`.

use iss_bench::{CORE_COUNTS, SPEC_QUICK};
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::fig9;
use iss_sim::report::format_comparison_table;
use iss_trace::catalog::SPEC_CPU2000;

fn main() {
    let all = std::env::args().any(|a| a == "--all-benchmarks");
    let benchmarks: Vec<&str> = if all {
        SPEC_CPU2000.to_vec()
    } else {
        SPEC_QUICK.to_vec()
    };
    let records = fig9(&benchmarks, &CORE_COUNTS, EXPERIMENT_SCALE.get());
    println!(
        "{}",
        format_comparison_table(
            "Figure 9 — simulation speedup over detailed simulation (SPEC multi-program)",
            &records,
            "detailed"
        )
    );
}
