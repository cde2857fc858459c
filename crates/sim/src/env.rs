//! The environment knob table: one [`Knob`] per `ISS_*` variable.
//!
//! Every `ISS_*` variable the workspace reads is a constant in this module,
//! and no other module reads one. All knobs share one parse path: an unset
//! variable (or a blank one) selects the knob's documented default, and
//! **anything else must parse exactly** — typos, zeros and overflows are
//! rejected, never silently mapped to a default. A typo like
//! `ISS_EXPERIMENT_SCALE=ful` must not quietly turn a "full" accuracy run
//! into a quick one, and `ISS_THREADS=0` must not quietly benchmark at the
//! wrong concurrency. All knobs also share one error shape: the variable
//! (or `iss` flag), what it accepts, the bad value, and how to get the
//! default back.
//!
//! A knob with an `iss` flag resolves flag, then variable, then default
//! ([`Knob::resolve`]). `iss` parses the whole table once at start-up
//! ([`check_all`]), so a malformed knob fails the command instead of
//! failing every job that reads it.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::str::FromStr;

use crate::experiments::ExperimentScale;

/// One environment knob: its variable, its `iss` flag, what a set value
/// must be, what an unset one selects, and the parser.
pub struct Knob<T> {
    /// The environment variable.
    pub var: &'static str,
    /// The `iss` flag that overrides the variable, if any.
    pub flag: Option<&'static str>,
    /// What a set value must be, in words.
    pub accepts: &'static str,
    /// What an unset or blank value selects, in words.
    pub default: &'static str,
    fallback: fn() -> T,
    parser: fn(&OsStr) -> Option<T>,
}

impl<T> Knob<T> {
    /// Parses a raw value of the variable: `None` (unset) and blank text
    /// select the default, anything else must parse exactly.
    ///
    /// # Errors
    ///
    /// Returns the shared error naming the variable and the bad value.
    pub fn parse(&self, raw: Option<&OsStr>) -> Result<T, String> {
        self.parse_as(self.var, "unset the variable to use the default", raw)
    }

    /// Reads the variable from the environment and parses it (see
    /// [`Knob::parse`]).
    ///
    /// # Errors
    ///
    /// Returns the shared error when the variable is set but malformed.
    pub fn try_get(&self) -> Result<T, String> {
        self.parse(std::env::var_os(self.var).as_deref())
    }

    /// [`Knob::try_get`] for callers with no error channel of their own.
    ///
    /// # Panics
    ///
    /// Panics with the shared error when the variable is set but
    /// malformed.
    #[must_use]
    pub fn get(&self) -> T {
        self.try_get().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resolves the knob from its flag's operand, then the variable, then
    /// the default. A blank operand counts as an absent flag.
    ///
    /// # Errors
    ///
    /// Returns the shared error naming the flag when the operand is
    /// malformed, or naming the variable when that is.
    pub fn resolve(&self, operand: Option<&str>) -> Result<T, String> {
        match operand {
            Some(v) if !v.trim().is_empty() => self.parse_as(
                self.flag.unwrap_or(self.var),
                &format!("omit the flag to use {} or the default", self.var),
                Some(OsStr::new(v)),
            ),
            _ => self.try_get(),
        }
    }

    /// The value an unset variable selects.
    #[must_use]
    pub(crate) fn default_value(&self) -> T {
        (self.fallback)()
    }

    fn parse_as(&self, name: &str, escape: &str, raw: Option<&OsStr>) -> Result<T, String> {
        let raw = match raw {
            Some(raw) if !raw.to_str().is_some_and(|s| s.trim().is_empty()) => raw,
            _ => return Ok(self.default_value()),
        };
        (self.parser)(raw).ok_or_else(|| {
            format!(
                "{name} must be {}, got `{}` ({escape}: {})",
                self.accepts,
                raw.to_string_lossy().trim(),
                self.default
            )
        })
    }
}

/// `ISS_THREADS`: batch-engine worker count (`iss run --threads`).
pub const THREADS: Knob<usize> = Knob {
    var: "ISS_THREADS",
    flag: Some("--threads"),
    accepts: "a positive integer",
    default: "the host's available parallelism",
    fallback: host_parallelism,
    parser: positive,
};

/// `ISS_EXPERIMENT_SCALE`: the experiment instruction budget. A number sets
/// the SPEC budget per benchmark; PARSEC workloads get twice that,
/// saturating instead of overflowing.
pub const EXPERIMENT_SCALE: Knob<ExperimentScale> = Knob {
    var: "ISS_EXPERIMENT_SCALE",
    flag: None,
    accepts: "`quick`, `full`, or a positive instruction count",
    default: "quick scale",
    fallback: ExperimentScale::quick,
    parser: scale,
};

/// The warming batch an unset [`WARM_BATCH`] selects, in instructions:
/// it amortizes the per-batch column passes while keeping the buffers
/// inside the L1 data cache.
pub const DEFAULT_WARM_BATCH: usize = 64;

/// `ISS_WARM_BATCH`: functional-warming batch size of the
/// structure-of-arrays hot path in sampled runs.
///
/// Every size is bit-identical (batch `1` degenerates to the scalar path);
/// `0` would make the warming loop spin without retiring instructions.
/// Unset, it is [`DEFAULT_WARM_BATCH`].
pub const WARM_BATCH: Knob<usize> = Knob {
    var: "ISS_WARM_BATCH",
    flag: None,
    accepts: "a positive integer of instructions",
    default: "a batch of 64",
    fallback: || DEFAULT_WARM_BATCH,
    parser: positive,
};

/// `ISS_SHARDS`: child-process count of a sharded sweep (`iss sweep
/// --shards`).
pub const SHARDS: Knob<usize> = Knob {
    var: "ISS_SHARDS",
    flag: Some("--shards"),
    accepts: "a positive integer",
    default: "the host's available parallelism",
    fallback: host_parallelism,
    parser: positive,
};

/// `ISS_SHARD_RETRIES`: re-dispatches of a failed shard before the
/// supervisor bisects its job list (`0` bisects immediately).
pub const SHARD_RETRIES: Knob<u32> = Knob {
    var: "ISS_SHARD_RETRIES",
    flag: None,
    accepts: "a non-negative integer (u32)",
    default: "2 retries",
    fallback: || 2,
    parser: whole,
};

/// `ISS_JOB_TIMEOUT_MS`: per-job progress deadline of child shards.
pub const JOB_TIMEOUT_MS: Knob<u64> = Knob {
    var: "ISS_JOB_TIMEOUT_MS",
    flag: None,
    accepts: "a positive integer of milliseconds",
    default: "120000 ms",
    fallback: || 120_000,
    parser: positive,
};

/// `ISS_FAULT_INJECT`: deterministic fault injection for the
/// crash-recovery tests, as `<kind>:<job>` (see [`FaultSpec`]).
pub const FAULT_INJECT: Knob<Option<FaultSpec>> = Knob {
    var: "ISS_FAULT_INJECT",
    flag: None,
    accepts: "`panic:<job>`, `exit:<job>` or `stall:<job>`",
    default: "no fault injection",
    fallback: || None,
    parser: fault,
};

/// `ISS_SERVE_WORKERS`: simulation worker pool size of `iss serve`
/// (`--workers`).
pub const SERVE_WORKERS: Knob<usize> = Knob {
    var: "ISS_SERVE_WORKERS",
    flag: Some("--workers"),
    accepts: "a positive integer",
    default: "the host's available parallelism",
    fallback: host_parallelism,
    parser: positive,
};

/// `ISS_CACHE_DIR`: result-store directory of `iss serve` and `iss sweep`
/// (`--cache-dir`), relative to the working directory unless absolute.
pub const CACHE_DIR: Knob<PathBuf> = Knob {
    var: "ISS_CACHE_DIR",
    flag: Some("--cache-dir"),
    accepts: "a directory path",
    default: "`.iss-cache`",
    fallback: || PathBuf::from(".iss-cache"),
    parser: path,
};

/// `ISS_CACHE_MAX_MB`: result-store size bound in MiB (`--cache-max-mb`).
/// The byte count must fit in `u64`.
pub const CACHE_MAX_MB: Knob<u64> = Knob {
    var: "ISS_CACHE_MAX_MB",
    flag: Some("--cache-max-mb"),
    accepts: "a positive integer of MiB",
    default: "512 MiB",
    fallback: || 512,
    parser: |raw| positive::<u64>(raw).filter(|mb| mb.checked_mul(1 << 20).is_some()),
};

/// A knob with its value type erased, so one table can hold them all.
trait Entry {
    #[cfg(test)]
    fn var(&self) -> &'static str;
    fn check(&self) -> Result<(), String>;
}

impl<T> Entry for Knob<T> {
    #[cfg(test)]
    fn var(&self) -> &'static str {
        self.var
    }

    fn check(&self) -> Result<(), String> {
        self.try_get().map(drop)
    }
}

/// Every knob, in the order of the README's environment table.
const TABLE: [&dyn Entry; 10] = [
    &THREADS,
    &EXPERIMENT_SCALE,
    &WARM_BATCH,
    &SHARDS,
    &SHARD_RETRIES,
    &JOB_TIMEOUT_MS,
    &FAULT_INJECT,
    &SERVE_WORKERS,
    &CACHE_DIR,
    &CACHE_MAX_MB,
];

/// Parses every knob in the table from the environment.
///
/// # Errors
///
/// Returns the shared error of the first malformed knob.
pub fn check_all() -> Result<(), String> {
    TABLE.iter().try_for_each(|knob| knob.check())
}

/// [`WARM_BATCH`] read from the environment. The repository benchmark
/// (`perfbench`) calls it by this name.
///
/// # Errors
///
/// Returns the shared error when `ISS_WARM_BATCH` is malformed.
pub fn try_warm_batch_from_env() -> Result<usize, String> {
    WARM_BATCH.try_get()
}

/// The way an injected fault takes a child shard down (see [`FaultSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before simulating the job (child exits with the panic status).
    Panic,
    /// `std::process::exit(17)` before simulating the job.
    Exit,
    /// Sleep forever before simulating the job, to trip the progress
    /// deadline.
    Stall,
}

impl FaultKind {
    /// The spec keyword for this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Exit => "exit",
            FaultKind::Stall => "stall",
        }
    }
}

/// A deterministic fault to inject into child shards: take down the shard
/// the moment it is about to simulate global job index [`FaultSpec::job`].
///
/// Encoded as `<kind>:<job>` (e.g. `panic:3`, `exit:0`, `stall:2`) in
/// [`FAULT_INJECT`]. The supervisor forwards the variable to every child it
/// spawns, so the selected job is *permanently* poisoned: retries keep
/// failing, bisection isolates it, and the sweep must finish with exactly
/// that job quarantined — the end-to-end recovery path the crash tests
/// assert. A typo silently disabling injection would turn those tests into
/// no-ops, hence the strict parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// How the child dies.
    pub kind: FaultKind,
    /// Global (expansion-order) index of the job whose start triggers the
    /// fault.
    pub job: usize,
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A set value as trimmed text; non-Unicode input is never a number or a
/// keyword.
fn text(raw: &OsStr) -> Option<&str> {
    raw.to_str().map(str::trim)
}

fn whole<N: FromStr>(raw: &OsStr) -> Option<N> {
    text(raw)?.parse().ok()
}

fn positive<N: FromStr + Default + PartialEq>(raw: &OsStr) -> Option<N> {
    whole(raw).filter(|n| *n != N::default())
}

fn path(raw: &OsStr) -> Option<PathBuf> {
    Some(PathBuf::from(raw))
}

fn scale(raw: &OsStr) -> Option<ExperimentScale> {
    let keyword = text(raw)?;
    if keyword.eq_ignore_ascii_case("quick") {
        return Some(ExperimentScale::quick());
    }
    if keyword.eq_ignore_ascii_case("full") {
        return Some(ExperimentScale::full());
    }
    positive::<u64>(raw).map(|n| ExperimentScale {
        spec_length: n,
        parsec_length: n.saturating_mul(2),
        seed: 42,
    })
}

fn fault(raw: &OsStr) -> Option<Option<FaultSpec>> {
    let (kind, job) = text(raw)?.split_once(':')?;
    let kind = [FaultKind::Panic, FaultKind::Exit, FaultKind::Stall]
        .into_iter()
        .find(|k| k.name() == kind)?;
    Some(Some(FaultSpec {
        kind,
        job: job.parse().ok()?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as the value of `knob`'s variable.
    fn parse<T>(knob: &Knob<T>, raw: Option<&str>) -> Result<T, String> {
        knob.parse(raw.map(OsStr::new))
    }

    #[test]
    fn thread_parsing_accepts_positive_integers_and_unset() {
        assert_eq!(parse(&THREADS, Some("3")), Ok(3));
        assert_eq!(parse(&THREADS, Some(" 8 ")), Ok(8));
        assert!(parse(&THREADS, None).unwrap() >= 1);
        assert!(parse(&THREADS, Some("")).unwrap() >= 1);
    }

    #[test]
    fn thread_parsing_rejects_zero_and_garbage_loudly() {
        let zero = parse(&THREADS, Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_THREADS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse(&THREADS, Some("four")).unwrap_err();
        assert!(junk.contains("`four`"), "got: {junk}");
        let negative = parse(&THREADS, Some("-2")).unwrap_err();
        assert!(negative.contains("`-2`"), "got: {negative}");
    }

    #[test]
    fn scale_parsing_accepts_keywords_numbers_and_unset() {
        let quick = ExperimentScale::quick();
        assert_eq!(parse(&EXPERIMENT_SCALE, None).unwrap(), quick);
        assert_eq!(parse(&EXPERIMENT_SCALE, Some("")).unwrap(), quick);
        assert_eq!(parse(&EXPERIMENT_SCALE, Some("  ")).unwrap(), quick);
        assert_eq!(parse(&EXPERIMENT_SCALE, Some("quick")).unwrap(), quick);
        assert_eq!(parse(&EXPERIMENT_SCALE, Some("QUICK")).unwrap(), quick);
        let full = ExperimentScale::full();
        assert_eq!(parse(&EXPERIMENT_SCALE, Some("full")).unwrap(), full);
        assert_eq!(parse(&EXPERIMENT_SCALE, Some("Full")).unwrap(), full);
        let custom = parse(&EXPERIMENT_SCALE, Some(" 50000 ")).unwrap();
        assert_eq!(custom.spec_length, 50_000);
        assert_eq!(custom.parsec_length, 100_000);
        assert_eq!(custom.seed, 42);
    }

    #[test]
    fn scale_parsing_saturates_the_parsec_budget() {
        let huge = parse(&EXPERIMENT_SCALE, Some(&u64::MAX.to_string())).unwrap();
        assert_eq!(huge.spec_length, u64::MAX);
        assert_eq!(huge.parsec_length, u64::MAX, "must saturate, not overflow");
    }

    #[test]
    fn scale_parsing_rejects_typos_zero_and_bad_numbers_loudly() {
        // The motivating bug: `ful` used to silently select quick scale.
        for bad in ["ful", "0", "-5", "99999999999999999999999", "fast"] {
            let err = parse(&EXPERIMENT_SCALE, Some(bad)).unwrap_err();
            assert!(
                err.contains("ISS_EXPERIMENT_SCALE") && err.contains(&format!("`{bad}`")),
                "`{bad}` got: {err}"
            );
        }
    }

    #[test]
    fn shard_parsing_accepts_positive_integers_and_unset() {
        assert_eq!(parse(&SHARDS, Some("4")), Ok(4));
        assert_eq!(parse(&SHARDS, Some(" 2 ")), Ok(2));
        assert!(parse(&SHARDS, None).unwrap() >= 1);
        assert!(parse(&SHARDS, Some("")).unwrap() >= 1);
    }

    #[test]
    fn shard_parsing_rejects_zero_and_garbage_loudly() {
        let zero = parse(&SHARDS, Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_SHARDS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse(&SHARDS, Some("two")).unwrap_err();
        assert!(junk.contains("`two`"), "got: {junk}");
    }

    #[test]
    fn retry_parsing_accepts_zero_and_defaults_when_unset() {
        assert_eq!(parse(&SHARD_RETRIES, None), Ok(2));
        assert_eq!(parse(&SHARD_RETRIES, Some("")), Ok(2));
        assert_eq!(
            parse(&SHARD_RETRIES, Some("0")),
            Ok(0),
            "0 = straight to bisection"
        );
        assert_eq!(parse(&SHARD_RETRIES, Some(" 5 ")), Ok(5));
    }

    #[test]
    fn retry_parsing_rejects_garbage_and_overflow_loudly() {
        let junk = parse(&SHARD_RETRIES, Some("lots")).unwrap_err();
        assert!(
            junk.contains("ISS_SHARD_RETRIES") && junk.contains("`lots`"),
            "got: {junk}"
        );
        let negative = parse(&SHARD_RETRIES, Some("-1")).unwrap_err();
        assert!(negative.contains("`-1`"), "got: {negative}");
        let overflow = parse(&SHARD_RETRIES, Some("4294967296")).unwrap_err();
        assert!(overflow.contains("`4294967296`"), "got: {overflow}");
    }

    #[test]
    fn timeout_parsing_accepts_positive_ms_and_defaults_when_unset() {
        assert_eq!(parse(&JOB_TIMEOUT_MS, None), Ok(120_000));
        assert_eq!(parse(&JOB_TIMEOUT_MS, Some("")), Ok(120_000));
        assert_eq!(parse(&JOB_TIMEOUT_MS, Some("300")), Ok(300));
    }

    #[test]
    fn timeout_parsing_rejects_zero_garbage_and_overflow_loudly() {
        let zero = parse(&JOB_TIMEOUT_MS, Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_JOB_TIMEOUT_MS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse(&JOB_TIMEOUT_MS, Some("1s")).unwrap_err();
        assert!(junk.contains("`1s`"), "got: {junk}");
        let overflow = parse(&JOB_TIMEOUT_MS, Some("99999999999999999999999")).unwrap_err();
        assert!(
            overflow.contains("`99999999999999999999999`"),
            "got: {overflow}"
        );
    }

    #[test]
    fn fault_parsing_accepts_every_kind_and_none_when_unset() {
        assert_eq!(parse(&FAULT_INJECT, None), Ok(None));
        assert_eq!(parse(&FAULT_INJECT, Some("")), Ok(None));
        for (raw, kind, job) in [
            ("panic:3", FaultKind::Panic, 3),
            ("exit:0", FaultKind::Exit, 0),
            (" stall:2 ", FaultKind::Stall, 2),
        ] {
            assert_eq!(
                parse(&FAULT_INJECT, Some(raw)),
                Ok(Some(FaultSpec { kind, job }))
            );
        }
    }

    #[test]
    fn fault_parsing_rejects_malformed_specs_loudly() {
        for bad in [
            "panic",
            "panic:",
            "panic:x",
            "segfault:1",
            "panic:-1",
            "3:panic",
        ] {
            let err = parse(&FAULT_INJECT, Some(bad)).unwrap_err();
            assert!(err.contains("ISS_FAULT_INJECT"), "`{bad}` got: {err}");
            assert!(err.contains(bad.trim()), "`{bad}` got: {err}");
        }
    }

    #[test]
    fn serve_worker_parsing_accepts_positive_integers_and_unset() {
        assert_eq!(parse(&SERVE_WORKERS, Some("4")), Ok(4));
        assert_eq!(parse(&SERVE_WORKERS, Some(" 2 ")), Ok(2));
        assert!(parse(&SERVE_WORKERS, None).unwrap() >= 1);
        assert!(parse(&SERVE_WORKERS, Some("")).unwrap() >= 1);
    }

    #[test]
    fn serve_worker_parsing_rejects_zero_and_garbage_loudly() {
        let zero = parse(&SERVE_WORKERS, Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_SERVE_WORKERS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse(&SERVE_WORKERS, Some("many")).unwrap_err();
        assert!(junk.contains("`many`"), "got: {junk}");
    }

    #[test]
    fn cache_size_parsing_accepts_positive_mib_and_defaults_when_unset() {
        assert_eq!(parse(&CACHE_MAX_MB, None), Ok(512));
        assert_eq!(parse(&CACHE_MAX_MB, Some("")), Ok(512));
        assert_eq!(parse(&CACHE_MAX_MB, Some(" 64 ")), Ok(64));
    }

    #[test]
    fn cache_size_parsing_rejects_zero_garbage_and_overflow_loudly() {
        let zero = parse(&CACHE_MAX_MB, Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_CACHE_MAX_MB") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse(&CACHE_MAX_MB, Some("big")).unwrap_err();
        assert!(junk.contains("`big`"), "got: {junk}");
        // Parses as u64, but the byte count would overflow.
        let overflow = parse(&CACHE_MAX_MB, Some("18446744073709551615")).unwrap_err();
        assert!(
            overflow.contains("`18446744073709551615`"),
            "got: {overflow}"
        );
    }

    #[test]
    fn warm_batch_parsing_accepts_positive_integers_and_defaults_when_unset() {
        assert_eq!(parse(&WARM_BATCH, None), Ok(64));
        assert_eq!(parse(&WARM_BATCH, Some("")), Ok(64));
        assert_eq!(parse(&WARM_BATCH, Some("1")), Ok(1), "1 = the scalar path");
        assert_eq!(parse(&WARM_BATCH, Some(" 128 ")), Ok(128));
    }

    #[test]
    fn warm_batch_parsing_rejects_zero_and_garbage_loudly() {
        let zero = parse(&WARM_BATCH, Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_WARM_BATCH") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse(&WARM_BATCH, Some("wide")).unwrap_err();
        assert!(junk.contains("`wide`"), "got: {junk}");
        let negative = parse(&WARM_BATCH, Some("-8")).unwrap_err();
        assert!(negative.contains("`-8`"), "got: {negative}");
    }

    #[test]
    fn all_variables_share_the_error_shape() {
        let errors = [
            parse(&THREADS, Some("nope")).map(drop),
            parse(&EXPERIMENT_SCALE, Some("nope")).map(drop),
            parse(&SHARDS, Some("nope")).map(drop),
            parse(&SHARD_RETRIES, Some("nope")).map(drop),
            parse(&JOB_TIMEOUT_MS, Some("nope")).map(drop),
            parse(&FAULT_INJECT, Some("nope")).map(drop),
            parse(&SERVE_WORKERS, Some("nope")).map(drop),
            parse(&CACHE_MAX_MB, Some("nope")).map(drop),
            parse(&WARM_BATCH, Some("nope")).map(drop),
        ];
        for e in errors {
            let e = e.unwrap_err();
            assert!(e.contains("must be"), "got: {e}");
            assert!(e.contains("`nope`"), "got: {e}");
            assert!(e.contains("unset the variable"), "got: {e}");
        }
    }

    #[test]
    fn flags_share_the_error_shape_and_name_the_flag() {
        for (knob, flag) in [
            (&THREADS, "--threads"),
            (&SHARDS, "--shards"),
            (&SERVE_WORKERS, "--workers"),
        ] {
            assert_eq!(knob.resolve(Some(" 3 ")), Ok(3));
            let err = knob.resolve(Some("0")).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} must be a positive integer, got `0`"))
                    && err.contains(&format!("omit the flag to use {}", knob.var)),
                "got: {err}"
            );
        }
        let err = CACHE_MAX_MB
            .resolve(Some("18446744073709551615"))
            .unwrap_err();
        assert!(err.starts_with("--cache-max-mb must be"), "got: {err}");
        assert_eq!(
            CACHE_DIR.resolve(Some("runs/cache")),
            Ok(PathBuf::from("runs/cache"))
        );
    }

    #[cfg(unix)]
    #[test]
    fn non_unicode_values_are_rejected_or_kept_never_treated_as_unset() {
        use std::os::unix::ffi::OsStrExt;
        let raw = OsStr::from_bytes(b"/tmp/cache-\xff");
        for err in [
            THREADS.parse(Some(raw)).map(drop),
            EXPERIMENT_SCALE.parse(Some(raw)).map(drop),
            CACHE_MAX_MB.parse(Some(raw)).map(drop),
            FAULT_INJECT.parse(Some(raw)).map(drop),
        ] {
            let err = err.unwrap_err();
            assert!(err.contains("`/tmp/cache-\u{fffd}`"), "got: {err}");
        }
        assert_eq!(CACHE_DIR.parse(Some(raw)), Ok(PathBuf::from(raw)));
    }

    #[test]
    fn readme_env_table_has_one_row_per_knob() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .filter_map(|rest| rest.split_once('`').map(|(name, _)| name))
            .filter(|name| name.starts_with("ISS_"))
            .collect();
        let knobs: Vec<&str> = TABLE.iter().map(|k| k.var()).collect();
        assert_eq!(rows, knobs, "README env rows vs the knob table");
    }
}
