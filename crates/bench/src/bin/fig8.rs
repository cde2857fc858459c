//! Shim over the generic scenario engine for Figure 8 (the 3D-stacking
//! design trade-off). Equivalent to `iss run fig8`.

use iss_bench::PARSEC_QUICK;
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::fig8;
use iss_sim::report::format_normalized_table;
use iss_trace::catalog::PARSEC;

fn main() {
    let all = std::env::args().any(|a| a == "--all-benchmarks");
    let benchmarks: Vec<&str> = if all {
        PARSEC.to_vec()
    } else {
        PARSEC_QUICK.to_vec()
    };
    let records = fig8(&benchmarks, EXPERIMENT_SCALE.get());
    // The first `...detailed` run per benchmark is the dual-core design
    // point — the paper's normalization reference.
    println!(
        "{}",
        format_normalized_table(
            "Figure 8 — 2 cores + L2 + external DRAM vs 4 cores + 3D-stacked DRAM",
            &records,
            "detailed"
        )
    );
}
