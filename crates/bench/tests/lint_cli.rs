//! Process-level tests of `iss lint`: its exit code is what CI gates on,
//! so a spec error must fail the process and the checked-in scenarios
//! must pass it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `iss lint` from the workspace root, where it finds the perf
/// baseline its cost estimate reads.
fn run_lint(target: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iss"))
        .arg("lint")
        .arg(target)
        .current_dir(root())
        .output()
        .expect("spawn iss")
}

#[test]
fn gate_flags_the_duplicate_point_fixture_spec() {
    // The fixture validates cleanly but expands two variants to the same
    // canonical digest.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dup-point.toml");
    let out = run_lint(&fixture);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("error: duplicate design point") && stdout.contains("also-baseline"),
        "stdout: {stdout}"
    );
    assert!(stderr.contains("1 lint error(s)"), "stderr: {stderr}");
}

#[test]
fn the_checked_in_scenarios_lint_clean() {
    let out = run_lint(&root().join("examples/scenarios"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("lint clean"), "stdout: {stdout}");
    assert!(
        stdout.contains("at baseline throughput"),
        "the cost estimate reads ci/BENCH_baseline.json: {stdout}"
    );
}
