//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec-models|parsec-sweep|serve-replay \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the public API of `iss-sim` and the substrate crates on one
//! workload generated from the seed. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the same work once more with spans around
//! every layer call and reports the per-layer split. Human-readable lines
//! come first; the last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when any
//! output check fails. See `perfbench/README.md` for the metric contract.

mod report;
mod run;
mod serve;
mod spans;
mod stats;
mod sweep;
mod traced;
mod workload;

use std::process::ExitCode;

use workload::Workload;

/// Parsed command line.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value)?),
                "--seed" => {
                    seed =
                        Some(value.parse::<u64>().map_err(|_| {
                            format!("--seed needs an unsigned integer, got `{value}`")
                        })?);
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                            .ok_or_else(|| {
                                format!("--seconds needs a number in (0, 600], got `{value}`")
                            })?,
                    );
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace needs 0 or 1, got `{value}`")),
                    });
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (result, declared) = if options.trace {
        (traced::run(&options), &report::PER_LAYER[..])
    } else {
        (run::untraced(&options), &report::END_TO_END[..])
    };
    match result {
        Ok(mut report) => {
            report.validate(declared);
            report.print(declared);
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
