//! End-to-end tests of the fault-tolerant sharded sweep: a real `iss`
//! supervisor driving real `iss run --jobs` child processes over pipes,
//! with faults injected through `ISS_FAULT_INJECT`.
//!
//! Fault variables are set **per child Command**, never via
//! `std::env::set_var`, so parallel test threads cannot contaminate each
//! other. Every run gets its own `--cache-dir` unless it means to resume:
//! a shared result store would answer later runs without any child.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use iss_sim::scenario::{parse_records_jsonl, Record};

/// A six-job sweep (3 benchmarks × 2 models) small enough that a full
/// run takes well under a second per job.
const TINY_SPEC: &str = "\
schema = \"iss-scenario/v1\"
name = \"tinysweep\"
seed = 7
model = \"interval\"

[machine]
baseline = \"hpca2010\"

[workload]
kind = \"single\"
benchmark = \"gcc\"
length = 2000

[sweep]
models = [\"detailed\", \"interval\"]
benchmarks = [\"gcc\", \"mcf\", \"gzip\"]
";

const TINY_JOBS: usize = 6;

/// A fresh scratch directory per test; the pid keeps concurrent
/// `cargo test` invocations apart.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iss-sharded-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("tiny.toml"), TINY_SPEC).expect("write spec");
    dir
}

fn iss(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_iss"));
    cmd.current_dir(dir).args(args);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output().expect("spawn iss")
}

fn records_from(dir: &Path, file: &str) -> Vec<Record> {
    let text = std::fs::read_to_string(dir.join(file))
        .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
    parse_records_jsonl(&text).expect("parse jsonl records")
}

fn canonical(records: &[Record]) -> Vec<String> {
    records.iter().map(Record::canonical).collect()
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Runs the unfaulted single-shard sweep on the `ref-cache` store and
/// returns its records — the reference every fault schedule must reproduce.
fn reference_records(dir: &Path) -> Vec<Record> {
    let output = iss(
        dir,
        &[
            "sweep",
            "tiny.toml",
            "--shards",
            "1",
            "--cache-dir",
            "ref-cache",
            "--jsonl",
            "ref.jsonl",
        ],
        &[],
    );
    assert!(
        output.status.success(),
        "reference sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    records_from(dir, "ref.jsonl")
}

/// The merged record stream is canonically identical no matter how many
/// shards executed the sweep.
#[test]
fn multi_shard_merge_matches_the_single_shard_run() {
    let dir = workdir("merge");
    let reference = reference_records(&dir);
    assert_eq!(reference.len(), TINY_JOBS);
    for shards in ["2", "3"] {
        let cache = format!("s{shards}-cache");
        let out = format!("s{shards}.jsonl");
        let output = iss(
            &dir,
            &[
                "sweep",
                "tiny.toml",
                "--shards",
                shards,
                "--cache-dir",
                &cache,
                "--jsonl",
                &out,
            ],
            &[],
        );
        assert!(output.status.success(), "{shards}-shard sweep failed");
        assert!(
            stdout_of(&output).contains("0 from the result store"),
            "a fresh store answers nothing"
        );
        assert_eq!(
            canonical(&records_from(&dir, &out)),
            canonical(&reference),
            "{shards}-shard merge diverged from the single-shard reference"
        );
    }
}

/// An injected child death (clean `exit` and `panic!`) quarantines exactly
/// the poison job; every other record still matches the unfaulted
/// reference, and the supervisor exits 0.
#[test]
fn injected_process_deaths_quarantine_only_the_poison_job() {
    let dir = workdir("deaths");
    let reference = reference_records(&dir);
    for (spec, kind) in [("exit:3", "crash"), ("panic:2", "panic")] {
        let poison: usize = spec
            .split_once(':')
            .expect("spec has a colon")
            .1
            .parse()
            .expect("poison index");
        let out = format!("fault-{kind}.jsonl");
        let output = iss(
            &dir,
            &[
                "sweep",
                "tiny.toml",
                "--shards",
                "2",
                "--cache-dir",
                &format!("fault-{kind}-cache"),
                "--jsonl",
                &out,
            ],
            &[("ISS_FAULT_INJECT", spec), ("ISS_SHARD_RETRIES", "0")],
        );
        assert!(
            output.status.success(),
            "a quarantined job must not fail the sweep ({spec}): {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let records = records_from(&dir, &out);
        assert_eq!(records.len(), TINY_JOBS);
        for (i, (record, wanted)) in records.iter().zip(&reference).enumerate() {
            if i == poison {
                let failure = record
                    .failure
                    .as_ref()
                    .unwrap_or_else(|| panic!("job {i} must be quarantined under {spec}"));
                assert_eq!(failure.kind.name(), kind, "failure kind under {spec}");
                assert_eq!(failure.job, poison);
            } else {
                assert_eq!(
                    record.canonical(),
                    wanted.canonical(),
                    "healthy job {i} diverged under {spec}"
                );
            }
        }
        assert!(
            stdout_of(&output).contains("1 quarantined"),
            "summary must count the quarantined job"
        );
        assert_eq!(
            entry_files(&dir.join(format!("fault-{kind}-cache"))).len(),
            TINY_JOBS - 1,
            "a quarantined record is never stored"
        );
    }
}

/// A wedged child (injected stall) trips the per-shard progress deadline,
/// is killed, and bisection pins the quarantine on the stalled job alone.
#[test]
fn an_injected_stall_times_out_and_quarantines_the_stalled_job() {
    let dir = workdir("stall");
    let reference = reference_records(&dir);
    let output = iss(
        &dir,
        &[
            "sweep",
            "tiny.toml",
            "--shards",
            "2",
            "--cache-dir",
            "stall-cache",
            "--jsonl",
            "stall.jsonl",
        ],
        &[
            ("ISS_FAULT_INJECT", "stall:4"),
            ("ISS_SHARD_RETRIES", "0"),
            // Far above any real tiny job (tens of ms), far below the
            // test-suite timeout.
            ("ISS_JOB_TIMEOUT_MS", "2000"),
        ],
    );
    assert!(output.status.success());
    let records = records_from(&dir, "stall.jsonl");
    let quarantined: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_quarantined())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(quarantined, [4], "exactly the stalled job is quarantined");
    let failure = records[4].failure.as_ref().expect("structured failure");
    assert_eq!(failure.kind.name(), "timeout");
    assert!(
        failure.message.contains("2000 ms"),
        "timeout message names the deadline: {}",
        failure.message
    );
    for i in [0, 1, 2, 3, 5] {
        assert_eq!(records[i].canonical(), reference[i].canonical());
    }
}

/// The result store's entry files, sorted.
fn entry_files(cache: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(cache)
        .expect("list cache dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("entry-"))
        })
        .collect();
    files.sort();
    files
}

/// Re-running a sweep whose store lost two entries and holds a torn third
/// re-dispatches exactly those three jobs; the other records come back from
/// the store byte for byte, and a further re-run launches no child.
#[test]
fn a_resumed_sweep_reuses_the_result_store_and_reruns_the_rest() {
    let dir = workdir("resume");
    let reference = reference_records(&dir);
    let entries = entry_files(&dir.join("ref-cache"));
    assert_eq!(entries.len(), TINY_JOBS, "one entry per job");
    // Which job each entry holds, by the point digest in its record.
    let job_of = |path: &Path| -> usize {
        let text = std::fs::read_to_string(path).expect("read entry");
        reference
            .iter()
            .position(|r| text.contains(&format!("\"point_digest\": \"{}\"", r.digest)))
            .expect("entry belongs to a reference job")
    };
    let mut damaged: Vec<usize> = entries[..3].iter().map(|p| job_of(p)).collect();
    damaged.sort_unstable();
    std::fs::remove_file(&entries[0]).expect("delete entry");
    std::fs::remove_file(&entries[1]).expect("delete entry");
    let text = std::fs::read_to_string(&entries[2]).expect("read entry");
    std::fs::write(&entries[2], &text[..text.len() / 2]).expect("tear entry");

    let rerun = |out: &str| {
        let output = iss(
            &dir,
            &[
                "sweep",
                "tiny.toml",
                "--shards",
                "2",
                "--cache-dir",
                "ref-cache",
                "--jsonl",
                out,
            ],
            &[],
        );
        assert!(
            output.status.success(),
            "re-run failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        stdout_of(&output)
    };
    let stdout = rerun("resumed.jsonl");
    assert!(
        stdout.contains("3 from the result store, 2 child dispatch(es)"),
        "the three intact records come from the store:\n{stdout}"
    );
    let resumed = records_from(&dir, "resumed.jsonl");
    assert_eq!(
        canonical(&resumed),
        canonical(&reference),
        "resumed merge diverged from the reference"
    );
    // Stored records keep the timing of the run that produced them, so the
    // fresh timings mark exactly the re-dispatched jobs.
    for (i, (record, wanted)) in resumed.iter().zip(&reference).enumerate() {
        if damaged.binary_search(&i).is_err() {
            assert_eq!(record, wanted, "job {i} must come from the store");
        }
    }
    assert_eq!(entry_files(&dir.join("ref-cache")).len(), TINY_JOBS);

    let stdout = rerun("again.jsonl");
    assert!(
        stdout.contains("6 from the result store, 0 child dispatch(es)"),
        "a repeated sweep launches no child:\n{stdout}"
    );
    assert_eq!(records_from(&dir, "again.jsonl"), resumed);
}
