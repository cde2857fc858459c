//! Process-level tests of the knob table behind the `iss` CLI: a malformed
//! `ISS_*` variable fails the command at start-up, and the flags that
//! override a knob report a bad operand in the knob's shared error shape.
//!
//! Each test sets its variables on the child `Command`, never on this
//! process, so parallel test threads cannot contaminate each other.

use std::path::PathBuf;
use std::process::{Command, Output};

fn spec(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(name)
}

fn iss(args: &[&str], vars: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iss"))
        .args(args)
        .envs(vars.iter().copied())
        .output()
        .expect("spawn iss")
}

#[test]
fn malformed_knob_fails_iss_at_start_up_instead_of_quarantining_jobs() {
    let sampled = spec("hetero-quad-no-l2-sampled.toml");
    let out = iss(
        &["run", sampled.to_str().expect("UTF-8 path")],
        &[("ISS_WARM_BATCH", "0")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stderr.contains("ISS_WARM_BATCH must be a positive integer of instructions, got `0`")
            && stderr.contains("unset the variable"),
        "stderr: {stderr}"
    );
    assert!(!stdout.contains("QUARANTINED"), "stdout: {stdout}");
}

#[test]
fn knob_flags_report_bad_operands_in_the_shared_error_shape() {
    let fig5 = spec("fig5.toml");
    let fig5 = fig5.to_str().expect("UTF-8 path");
    for (args, shape) in [
        (
            vec!["run", fig5, "--threads", "0"],
            "--threads must be a positive integer, got `0` (omit the flag to use ISS_THREADS",
        ),
        (
            vec!["sweep", fig5, "--shards", "two"],
            "--shards must be a positive integer, got `two` (omit the flag to use ISS_SHARDS",
        ),
        (
            vec!["serve", "--workers", "-1"],
            "--workers must be a positive integer, got `-1` (omit the flag to use ISS_SERVE_WORKERS",
        ),
        (
            vec!["serve", "--cache-max-mb", "18446744073709551615"],
            "--cache-max-mb must be a positive integer of MiB, got `18446744073709551615`",
        ),
    ] {
        let out = iss(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} stderr: {stderr}");
        assert!(stderr.contains(shape), "{args:?} stderr: {stderr}");
    }
}
