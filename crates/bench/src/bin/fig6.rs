//! Shim over the generic scenario engine for Figure 6 (multi-program STP
//! and ANTT). Equivalent to `iss run fig6`.

use iss_bench::{scenarios::FIG6_BENCHMARKS, CORE_COUNTS};
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::fig6;
use iss_sim::report::format_stp_antt_table;

fn main() {
    let records = fig6(&FIG6_BENCHMARKS, &CORE_COUNTS, EXPERIMENT_SCALE.get());
    println!(
        "{}",
        format_stp_antt_table(
            "Figure 6 — multi-program SPEC workloads (STP and ANTT vs copies)",
            &records
        )
    );
}
