//! CI accuracy-regression gate.
//!
//! Recomputes the pinned accuracy numbers (Figure 4 variants, Figure 5, and
//! the hybrid CPI-error frontier) at the golden file's scale and diffs them
//! against `ci/golden_accuracy.json`. Any drift beyond the recorded
//! tolerance fails the build with one message per violated row.
//!
//! Usage:
//!   accuracy_gate \[path\]            # gate (default path ci/golden_accuracy.json)
//!   accuracy_gate --write \[path\]    # regenerate the golden file
//!
//! The simulated quantities behind every pinned number are deterministic, so
//! the gate needs no statistical slack beyond the recorded tolerance.

use std::process::ExitCode;

use iss_bench::gates::{
    compute_accuracy_rows, diff_accuracy, parse_golden_accuracy, render_golden_accuracy,
};
use iss_bench::SPEC_QUICK;
use iss_sim::experiments::ExperimentScale;

const DEFAULT_PATH: &str = "ci/golden_accuracy.json";
const DEFAULT_TOLERANCE: f64 = 0.02;

fn main() -> ExitCode {
    let mut write = false;
    let mut path = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--write" => write = true,
            _ if !a.starts_with("--") && path.is_none() => path = Some(a),
            _ => {
                eprintln!("accuracy gate: unexpected argument `{a}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let path = path.unwrap_or_else(|| DEFAULT_PATH.to_string());

    if write {
        let scale = ExperimentScale::quick();
        println!("computing golden accuracy rows at quick scale...");
        let rows = compute_accuracy_rows(&SPEC_QUICK, scale);
        let text = render_golden_accuracy(scale, DEFAULT_TOLERANCE, &rows);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("accuracy gate: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} rows to {path}", rows.len());
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("accuracy gate: cannot read {path}: {e}");
            eprintln!("generate it with: accuracy_gate --write {path}");
            return ExitCode::FAILURE;
        }
    };
    let golden = match parse_golden_accuracy(&text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("accuracy gate: cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "accuracy gate: {} pinned rows at scale {}/{} (seed {}), tolerance {:.4}",
        golden.rows.len(),
        golden.scale.spec_length,
        golden.scale.parsec_length,
        golden.scale.seed,
        golden.tolerance
    );
    let current = compute_accuracy_rows(&SPEC_QUICK, golden.scale);
    let violations = diff_accuracy(&golden, &current);
    if violations.is_empty() {
        println!(
            "accuracy gate: PASS ({} rows within tolerance)",
            current.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("accuracy gate: FAIL — {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!("if the drift is an intended modeling change, regenerate with:");
        eprintln!("  cargo run --release -p iss-bench --bin accuracy_gate -- --write {path}");
        ExitCode::FAILURE
    }
}
