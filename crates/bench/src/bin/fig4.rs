//! Shim over the generic scenario engine for Figure 4 (component-wise
//! accuracy). Equivalent to `iss run fig4-<variant>`.
//!
//! Usage: `fig4 [a|b|c|d|all] [--all-benchmarks]`

use iss_bench::SPEC_QUICK;
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::{fig4, Fig4Variant};
use iss_sim::report::format_comparison_table;
use iss_trace::catalog::SPEC_CPU2000;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let all_benchmarks = args.iter().any(|a| a == "--all-benchmarks");
    let benchmarks: Vec<&str> = if all_benchmarks {
        SPEC_CPU2000.to_vec()
    } else {
        SPEC_QUICK.to_vec()
    };
    let scale = EXPERIMENT_SCALE.get();
    let variants: Vec<Fig4Variant> = match which {
        "a" => vec![Fig4Variant::EffectiveDispatchRate],
        "b" => vec![Fig4Variant::ICache],
        "c" => vec![Fig4Variant::BranchPrediction],
        "d" => vec![Fig4Variant::L2Cache],
        _ => Fig4Variant::all().to_vec(),
    };
    for v in variants {
        let records = fig4(v, &benchmarks, scale);
        println!(
            "{}",
            format_comparison_table(&format!("Figure 4 ({})", v.label()), &records, "detailed")
        );
    }
}
