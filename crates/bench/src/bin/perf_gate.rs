//! CI perf-regression gate.
//!
//! Compares a fresh `perf` run (`BENCH_interval.json`) against the committed
//! baseline `ci/BENCH_baseline.json` with [`iss_bench::gates::diff_perf`]:
//! every model's simulated MIPS and every batch kernel's MOPS is divided by
//! its run's host-kernel speed, so a uniformly slow or loaded host cancels
//! out, and the gate fails when a normalized rate falls more than 25% below
//! the baseline's or a row is missing.
//!
//! Usage: `perf_gate [baseline] [fresh]`; the defaults are
//! `ci/BENCH_baseline.json` and `BENCH_interval.json`.

use std::process::ExitCode;

use iss_bench::gates::{diff_perf, parse_perf, PerfFile, MAX_REGRESSION};

const DEFAULT_BASELINE: &str = "ci/BENCH_baseline.json";
const DEFAULT_FRESH: &str = "BENCH_interval.json";

fn read(path: &str) -> Result<PerfFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_perf(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = args.get(2) {
        eprintln!("perf gate: unexpected argument `{extra}`");
        return ExitCode::FAILURE;
    }
    let baseline_path = args.first().map_or(DEFAULT_BASELINE, String::as_str);
    let fresh_path = args.get(1).map_or(DEFAULT_FRESH, String::as_str);
    let (baseline, fresh) = match (read(baseline_path), read(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for r in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("perf gate: {r}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perf gate: baseline {baseline_path}, fresh run {fresh_path}, max regression {:.0}%",
        MAX_REGRESSION * 100.0
    );
    println!(
        "  host kernel: baseline {:.1} MOPS, fresh {:.1} MOPS — comparing host-normalized rates",
        baseline.host_kernel_mops, fresh.host_kernel_mops
    );
    for (label, unit, base_rows, fresh_rows) in [
        ("", "MIPS", &baseline.models, &fresh.models),
        ("kernel ", "MOPS", &baseline.kernels, &fresh.kernels),
    ] {
        for f in fresh_rows {
            let base = base_rows
                .iter()
                .find(|b| b.name == f.name)
                .map_or(f64::NAN, |b| b.rate());
            println!(
                "  {:<27} fresh {:>8.2} {unit}   baseline {:>8.2} {unit}",
                format!("{label}{}", f.name),
                f.rate(),
                base
            );
        }
    }
    let violations = diff_perf(&baseline, &fresh);
    if violations.is_empty() {
        println!("perf gate: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate: FAIL — {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!("if the slowdown is intended, refresh the baseline:");
        eprintln!("  cargo run --release -p iss-bench --bin perf -- {DEFAULT_BASELINE}");
        ExitCode::FAILURE
    }
}
