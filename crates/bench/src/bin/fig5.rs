//! Shim over the generic scenario engine for Figure 5 (single-threaded
//! accuracy). Equivalent to `iss run fig5`.

use iss_bench::SPEC_QUICK;
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::fig5;
use iss_sim::report::format_comparison_table;
use iss_trace::catalog::SPEC_CPU2000;

fn main() {
    let all = std::env::args().any(|a| a == "--all-benchmarks");
    let benchmarks: Vec<&str> = if all {
        SPEC_CPU2000.to_vec()
    } else {
        SPEC_QUICK.to_vec()
    };
    let records = fig5(&benchmarks, EXPERIMENT_SCALE.get());
    println!(
        "{}",
        format_comparison_table(
            "Figure 5 — single-threaded SPEC CPU accuracy",
            &records,
            "detailed"
        )
    );
}
