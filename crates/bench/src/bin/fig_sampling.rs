//! Shim over the generic scenario engine for the sampled-simulation
//! speed-vs-error-vs-confidence frontier. Equivalent to `iss run sampling`.
//!
//! `--all-benchmarks` sweeps the full SPEC CPU2000 catalog instead of the
//! quick subset; `ISS_EXPERIMENT_SCALE` controls the instruction budget.

use iss_bench::SPEC_QUICK;
use iss_sim::env::EXPERIMENT_SCALE;
use iss_sim::experiments::{default_sampling_specs, fig_sampling};
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
    let specs = default_sampling_specs(scale);
    let records = fig_sampling(&benchmarks, &specs, scale);
    println!("Sampled simulation — speed vs CPI-error vs confidence frontier");
    println!("(references: pure detailed and pure interval on the same workloads)\n");
    print!(
        "{}",
        format_comparison_table("sampling", &records, "detailed")
    );
    let best = groups(&records)
        .into_iter()
        .filter_map(|group| {
            let detailed = group.variant("detailed")?;
            group
                .records
                .iter()
                .filter(|r| r.sampling.is_some() && r.cpi_error_vs(detailed) <= 0.05)
                .map(|r| {
                    (
                        r.variant.clone(),
                        group.key.to_string(),
                        r.speedup_vs(detailed),
                        r.cpi_error_vs(detailed),
                        r.ci95_half_width().unwrap_or(f64::INFINITY),
                    )
                })
                .max_by(|a, b| a.2.total_cmp(&b.2))
        })
        .max_by(|a, b| a.2.total_cmp(&b.2));
    match best {
        Some((spec, benchmark, speedup, error, ci)) => println!(
            "\nbest point within 5% CPI error: {spec} on {benchmark} — \
             {speedup:.1}x at {:.1}% error (95% CI half-width {ci:.3} CPI)",
            error * 100.0
        ),
        None => println!("\nno point stayed within 5% CPI error at this scale"),
    }
}
