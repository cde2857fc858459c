//! CI gate: both determinism-lint passes, loud on any violation.
//!
//! ```text
//! lint_gate [--root DIR] [--allowlist FILE] [--specs DIR]
//! ```
//!
//! Pass 1 scans the workspace sources against the checked-in allowlist
//! (`ci/lint_allow.toml`); pass 2 statically analyzes every scenario
//! spec under `examples/scenarios`. Any source violation, stale
//! allowlist entry or spec error fails the gate — the same contract as
//! `accuracy_gate` and `perf_gate`: drift must fail CI, not accumulate.
//!
//! The flags exist for the drift-injection tests, which point the gate
//! at temporary trees seeded with known violations and assert it fails.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use iss_lint::spec::{ModelMips, Severity};
use iss_lint::{allowlist, source};
use iss_sim::SweepSpec;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut allow_path: Option<PathBuf> = None;
    let mut specs_dir: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = |it: &mut std::slice::Iter<String>, flag: &str| {
            it.next()
                .map(PathBuf::from)
                .unwrap_or_else(|| panic!("lint_gate: {flag} needs a path"))
        };
        match a.as_str() {
            "--root" => root = value(&mut it, "--root"),
            "--allowlist" => allow_path = Some(value(&mut it, "--allowlist")),
            "--specs" => specs_dir = Some(value(&mut it, "--specs")),
            other => {
                eprintln!("lint_gate: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let allow_path = allow_path.unwrap_or_else(|| root.join("ci/lint_allow.toml"));
    let specs_dir = specs_dir.unwrap_or_else(|| root.join("examples/scenarios"));

    let mut failures = 0usize;

    // Pass 1: source determinism lints.
    println!("lint_gate: pass 1 — source determinism lints");
    match run_source_pass(&root, &allow_path) {
        Ok(problems) => {
            for p in &problems {
                println!("  {p}");
            }
            if problems.is_empty() {
                println!("  OK: sources clean against {}", allow_path.display());
            }
            failures += problems.len();
        }
        Err(e) => {
            println!("  FAIL: {e}");
            failures += 1;
        }
    }

    // Pass 2: scenario-spec static analysis.
    println!(
        "lint_gate: pass 2 — scenario-spec analysis under {}",
        specs_dir.display()
    );
    match run_spec_pass(&root, &specs_dir) {
        Ok(errors) => {
            for e in &errors {
                println!("  {e}");
            }
            failures += errors.len();
        }
        Err(e) => {
            println!("  FAIL: {e}");
            failures += 1;
        }
    }

    if failures == 0 {
        println!("lint_gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!("lint_gate: FAIL ({failures} problem(s))");
        ExitCode::FAILURE
    }
}

fn run_source_pass(root: &Path, allow_path: &Path) -> Result<Vec<String>, String> {
    let allow_text = std::fs::read_to_string(allow_path)
        .map_err(|e| format!("cannot read {}: {e}", allow_path.display()))?;
    let entries =
        allowlist::parse(&allow_text).map_err(|e| format!("{}: {e}", allow_path.display()))?;
    let findings = source::scan_workspace(root)?;
    Ok(allowlist::apply(&findings, &entries))
}

fn run_spec_pass(root: &Path, specs_dir: &Path) -> Result<Vec<String>, String> {
    let mips = ModelMips::parse(
        &std::fs::read_to_string(root.join("ci/BENCH_baseline.json")).unwrap_or_default(),
    )
    .ok();
    let mut files: Vec<PathBuf> = std::fs::read_dir(specs_dir)
        .map_err(|e| format!("cannot list {}: {e}", specs_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .toml specs under {}", specs_dir.display()));
    }
    let mut errors = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let sweep = SweepSpec::from_toml(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let report = iss_lint::analyze(&sweep, mips.as_deref())
            .map_err(|e| format!("{}: {e}", file.display()))?;
        let cost = report.estimated_seconds.map_or(String::new(), |s| {
            format!(", est {s:.2}s at baseline throughput")
        });
        println!(
            "  {}: {} point(s), {} instructions{cost}",
            file.display(),
            report.points,
            report.instructions
        );
        for f in &report.findings {
            match f.severity {
                Severity::Error => errors.push(format!("{}: {}", file.display(), f.message)),
                Severity::Warning => println!("    warning: {}", f.message),
            }
        }
    }
    Ok(errors)
}
