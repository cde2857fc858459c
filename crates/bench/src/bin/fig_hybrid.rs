//! Shim over the generic scenario engine for the hybrid
//! speed-vs-CPI-error frontier. Equivalent to `iss run hybrid`.
//!
//! `--all-benchmarks` sweeps the full SPEC CPU2000 catalog instead of the
//! quick subset; `ISS_EXPERIMENT_SCALE` controls the instruction budget.

use iss_bench::SPEC_QUICK;
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::{default_hybrid_policies, fig_hybrid};
use iss_sim::report::{format_comparison_table, groups};
use iss_trace::catalog::SPEC_CPU2000;

fn main() {
    let all = std::env::args().any(|a| a == "--all-benchmarks");
    let benchmarks: Vec<&str> = if all {
        SPEC_CPU2000.to_vec()
    } else {
        SPEC_QUICK.to_vec()
    };
    let scale = EXPERIMENT_SCALE.get();
    let policies = default_hybrid_policies(scale);
    let records = fig_hybrid(&benchmarks, &policies, scale);
    println!("Hybrid simulation — speed vs CPI-error frontier");
    println!("(interval quantum per policy label; reference: pure detailed)\n");
    print!(
        "{}",
        format_comparison_table("hybrid", &records, "detailed")
    );
    let best = groups(&records)
        .into_iter()
        .filter_map(|group| {
            let detailed = group.variant("detailed")?;
            group
                .records
                .iter()
                .filter(|r| r.variant != "detailed" && r.cpi_error_vs(detailed) <= 0.05)
                .map(|r| {
                    (
                        r.variant.clone(),
                        group.key.to_string(),
                        r.speedup_vs(detailed),
                        r.cpi_error_vs(detailed),
                    )
                })
                .max_by(|a, b| a.2.total_cmp(&b.2))
        })
        .max_by(|a, b| a.2.total_cmp(&b.2));
    match best {
        Some((policy, benchmark, speedup, error)) => println!(
            "\nbest point within 5% CPI error: {policy} on {benchmark} — \
             {speedup:.1}x at {:.1}% error",
            error * 100.0
        ),
        None => println!("\nno point stayed within 5% CPI error at this scale"),
    }
}
