//! Process-level tests of the `iss` CLI's error paths, plus the commands
//! no other process test runs (`export`, `export --jsonl`, `list`).
//!
//! Each error row pins the exit status, the whole stderr text and an empty
//! stdout, so a change to the argument handling cannot alter a message
//! unnoticed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use iss_sim::experiments::BUILTINS;
use iss_sim::scenario::parse_records_jsonl;

const USAGE: &str = "usage:
  iss run <spec.toml | builtin> [--threads N] [--reference VARIANT] [--json PATH] [--jobs I,J,...]
  iss sweep <spec.toml | builtin> [--shards N] [--cache-dir DIR] [--json PATH] [--jsonl PATH]
  iss serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR] [--cache-max-mb N] [--evict]
  iss lint <spec.toml | directory>...
  iss list [directory]
  iss export <builtin> [path]
  iss export <spec.toml | builtin> --jsonl [path]";

const NOT_FOUND: &str = "is neither a readable spec file nor a built-in sweep (see `iss list`)";

/// One row per line, `<args> => <stderr>`: the arguments split on spaces,
/// and the one line the command prints on stderr before it exits with
/// status 1, printing nothing on stdout. `{tmp}` stands for a scratch
/// directory, `{empty}` for an existing directory with no `.toml` files,
/// and `{usage}` and `{not_found}` for the texts above.
const ERROR_ROWS: &[&str] = &[
    // No command, an unknown one, or a command without its target.
    " => {usage}",
    "frobnicate => {usage}",
    "validate examples/scenarios => {usage}",
    "run => {usage}",
    "sweep => {usage}",
    "lint => {usage}",
    "export => {usage}",
    // A missing operand for each operand flag.
    "run fig5 --threads => iss run: --threads needs a positive integer",
    "run fig5 --reference => iss run: --reference needs a variant name",
    "run fig5 --json => iss run: --json needs an output path",
    "run fig5 --jobs => iss run: --jobs needs a comma-separated index list",
    "sweep fig5 --shards => iss sweep: --shards needs a positive integer",
    "sweep fig5 --cache-dir => iss sweep: --cache-dir needs a directory path",
    "sweep fig5 --json => iss sweep: --json needs an output path",
    "sweep fig5 --jsonl => iss sweep: --jsonl needs an output path",
    "serve --addr => iss serve: --addr needs a HOST:PORT operand",
    "serve --workers => iss serve: --workers needs a positive integer",
    "serve --cache-dir => iss serve: --cache-dir needs a directory path",
    "serve --cache-max-mb => iss serve: --cache-max-mb needs a positive integer of MiB",
    // Bad operands and targets.
    "run fig5 --jobs 1,x => iss run: --jobs needs comma-separated job indices, got `1,x`",
    "run fig5 --jobs 99 => iss run: job index 99 is out of range: sweep `fig5` has 12 job(s)",
    "run no-such-sweep => iss run: `no-such-sweep` {not_found}",
    "sweep no-such-sweep --shards 2 => iss sweep: `no-such-sweep` {not_found}",
    // Arguments a command does not read.
    "run fig5 --bogus => iss run: unexpected argument `--bogus`",
    "run fig5 fig6 => iss run: unexpected argument `fig6`",
    "sweep fig5 --bogus => iss sweep: unexpected argument `--bogus`",
    "serve extra => iss serve: unexpected argument `extra`",
    "export fig5 {tmp}/extra.toml extra => iss export: unexpected argument `extra`",
    "export fig5 --jsonl {tmp}/extra.jsonl extra => iss export: unexpected argument `extra`",
    "export fig5 --bogus => iss export: unexpected argument `--bogus`",
    "list examples/scenarios extra => iss list: unexpected argument `extra`",
    "list --bogus => iss list: unexpected argument `--bogus`",
    // Export and the spec checker.
    "export nope => iss export: `nope` is not a built-in sweep (see `iss list`)",
    "export nope --jsonl => iss export: `nope` {not_found}",
    "export fig5 {tmp}/no-such-dir/fig5.toml => iss export: cannot write \
     {tmp}/no-such-dir/fig5.toml: No such file or directory (os error 2)",
    "lint {empty} => iss lint: no .toml files in {empty}",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A scratch directory of this test binary's own.
fn tmp() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-errors");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `bin` from the workspace root with the given extra variables.
fn run(bin: &str, args: &[String], vars: &[(&str, &str)]) -> Output {
    Command::new(bin)
        .args(args)
        .envs(vars.iter().copied())
        .current_dir(root())
        .output()
        .expect("spawn binary")
}

/// Runs every error row of `rows` against `bin` and reports all
/// mismatches at once.
fn check_error_rows(bin: &str, rows: &[&str]) {
    let tmp = tmp();
    let empty = tmp.join("empty");
    std::fs::create_dir_all(&empty).expect("create empty dir");
    let fill = |s: &str| {
        s.replace("{tmp}", &tmp.display().to_string())
            .replace("{empty}", &empty.display().to_string())
            .replace("{usage}", USAGE)
            .replace("{not_found}", NOT_FOUND)
    };
    let mut mismatches = Vec::new();
    for row in rows {
        let (args, want) = row.split_once(" => ").expect("row has ` => `");
        let args: Vec<String> = args.split_whitespace().map(fill).collect();
        let out = run(bin, &args, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = fill(want) + "\n";
        if out.status.code() != Some(1) || stderr != want || !stdout.is_empty() {
            mismatches.push(format!(
                "{args:?}: status {:?}\n  stderr {stderr:?}\n  want   {want:?}\n  \
                 stdout {stdout:?}",
                out.status.code()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn error_paths_exit_1_with_their_pinned_message() {
    check_error_rows(env!("CARGO_BIN_EXE_iss"), ERROR_ROWS);
}

/// Commands whose reader has gone before their first line, as in `iss run
/// fig5 | head -1`: each stops quietly, with status 0 and nothing on
/// stderr, instead of panicking in `print!`.
const CLOSED_STDOUT_ROWS: &[&str] = &["run fig5", "export fig5", "list", "lint examples/scenarios"];

#[test]
fn a_closed_stdout_stops_the_command_quietly() {
    let mut mismatches = Vec::new();
    for row in CLOSED_STDOUT_ROWS {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_iss"))
            .args(row.split_whitespace())
            .current_dir(root())
            .stdout(writer)
            .output()
            .expect("spawn iss");
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.code() != Some(0) || !stderr.is_empty() {
            mismatches.push(format!(
                "{row}: status {:?}, stderr {stderr:?}",
                out.status.code()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn gates_reject_arguments_they_do_not_read() {
    // A typo such as `--wrte` must not fall through to a full gate run.
    check_error_rows(
        env!("CARGO_BIN_EXE_accuracy_gate"),
        &[
            "--wrte => accuracy gate: unexpected argument `--wrte`",
            "a.json b.json => accuracy gate: unexpected argument `b.json`",
        ],
    );
    check_error_rows(
        env!("CARGO_BIN_EXE_perf_gate"),
        &["a b c => perf gate: unexpected argument `c`"],
    );
}

#[test]
fn export_writes_a_builtin_equal_to_its_checked_in_file() {
    let path = tmp().join("fig5.toml");
    let out = run(
        env!("CARGO_BIN_EXE_iss"),
        &["export".into(), "fig5".into(), path.display().to_string()],
        &[("ISS_EXPERIMENT_SCALE", "quick")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("wrote {}\n", path.display())
    );
    let written = std::fs::read(&path).expect("read exported file");
    let checked_in = std::fs::read(root().join("examples/scenarios/fig5.toml")).expect("fig5.toml");
    assert!(
        written == checked_in,
        "export fig5 differs from examples/scenarios/fig5.toml"
    );
}

#[test]
fn export_jsonl_writes_one_parseable_record_per_design_point() {
    let path = tmp().join("serve-smoke.jsonl");
    let out = run(
        env!("CARGO_BIN_EXE_iss"),
        &[
            "export".into(),
            "examples/scenarios/serve-smoke.toml".into(),
            "--jsonl".into(),
            path.display().to_string(),
        ],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("wrote {}\n", path.display())
    );
    let text = std::fs::read_to_string(&path).expect("read exported records");
    assert_eq!(text.lines().count(), 4, "{text}");
    let records = parse_records_jsonl(&text).expect("records parse");
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|r| r.sweep == "serve-smoke"));
}

#[test]
fn list_names_every_builtin_and_the_checked_in_files() {
    let out = run(env!("CARGO_BIN_EXE_iss"), &["list".into()], &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert_eq!(BUILTINS.len(), 12);
    for (name, description, _) in BUILTINS {
        assert!(
            stdout.contains(&format!("  {name:<14} {description}\n")),
            "`{name}` missing from: {stdout}"
        );
    }
    assert!(
        stdout.contains("scenario files under examples/scenarios:\n")
            && stdout.contains("  examples/scenarios/fig5.toml\n"),
        "stdout: {stdout}"
    );
}
