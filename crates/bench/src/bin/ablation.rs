//! Shim over the generic scenario engine for the ablation study (overlap
//! modeling, old-window reset, one-IPC — all against detailed simulation).
//! Equivalent to `iss run ablation`.

use iss_bench::SPEC_QUICK;
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::ablation;
use iss_sim::report::format_comparison_table;

fn main() {
    let records = ablation(&SPEC_QUICK, EXPERIMENT_SCALE.get());
    println!(
        "{}",
        format_comparison_table(
            "Ablation — relative CPI error against detailed simulation",
            &records,
            "detailed"
        )
    );
}
