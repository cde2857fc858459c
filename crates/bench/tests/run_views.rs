//! Process-level tests of the views `iss run` adds to a built-in sweep:
//! each one follows from the sweep's shape (homogeneous copy counts,
//! multithreaded workloads, hybrid or sampled variants), not from its name.

use std::process::Command;

/// Runs `iss run <name>` at a small instruction budget; returns stdout.
fn run_builtin(name: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_iss"))
        .args(["run", name])
        .env("ISS_EXPERIMENT_SCALE", "2000")
        .env("ISS_THREADS", "2")
        .output()
        .expect("spawn iss");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "iss run {name} failed\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn has_best_point_line(stdout: &str) -> bool {
    stdout.contains("best point within 5% CPI error: ")
        || stdout.contains("no point stayed within 5% CPI error at this scale")
}

#[test]
fn homogeneous_copy_sweeps_print_stp_and_antt() {
    let stdout = run_builtin("fig6");
    assert!(
        stdout.contains("fig6 — STP and ANTT vs copies") && stdout.contains("ANTT"),
        "{stdout}"
    );
    assert!(!stdout.contains("norm. time"), "{stdout}");
    assert!(!has_best_point_line(&stdout), "{stdout}");
}

#[test]
fn multithreaded_sweeps_print_normalized_time() {
    let stdout = run_builtin("fig8");
    assert!(stdout.contains("norm. time"), "{stdout}");
    // The design points' detailed runs are labelled per template; the
    // view still finds them as the reference.
    assert!(stdout.contains("2 cores + L2/detailed"), "{stdout}");
    assert!(!stdout.contains("STP"), "{stdout}");
}

#[test]
fn hybrid_sweeps_print_the_best_point_line() {
    let stdout = run_builtin("hybrid");
    assert!(stdout.contains("on 1 worker(s)"), "{stdout}");
    assert!(has_best_point_line(&stdout), "{stdout}");
    assert!(
        !stdout.contains("norm. time") && !stdout.contains("STP"),
        "{stdout}"
    );
}

#[test]
fn single_program_accuracy_sweeps_print_only_the_comparison() {
    let stdout = run_builtin("fig5");
    assert!(stdout.contains("(reference: detailed)"), "{stdout}");
    assert!(
        !stdout.contains("norm. time") && !stdout.contains("STP"),
        "{stdout}"
    );
    assert!(!has_best_point_line(&stdout), "{stdout}");
}
