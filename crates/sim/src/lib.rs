//! # iss-sim — simulation harness, metrics and the built-in figure sweeps
//!
//! This crate ties the substrates together into the tool a user actually
//! runs: a [`config::SystemConfig`] describing the simulated chip (Table 1 of
//! the paper by default), a [`workload::WorkloadSpec`] describing what runs
//! on it, a [`runner`] that executes the workload under any of the three core
//! models (interval, detailed cycle-accurate, one-IPC), the multi-program
//! [`metrics`] the paper reports (IPC, STP, ANTT, normalized execution time,
//! relative error), and the declarative [`scenario`] engine: every
//! experiment is a [`scenario::ScenarioSpec`]/[`scenario::SweepSpec`]
//! that expands into a deterministic job batch and reports unified
//! [`scenario::Record`] rows (formatted by [`report`]). Sweeps execute
//! through the parallel [`batch`] engine (`ISS_THREADS` workers,
//! deterministic job-ordered results); scenario files (a strict TOML
//! subset) describe the same surface, so new experiments are data files.
//! Each figure of the paper's evaluation section is such a file, embedded
//! as a built-in sweep ([`experiments::builtin`]).
//!
//! ```
//! use iss_sim::config::SystemConfig;
//! use iss_sim::runner::{run, CoreModel};
//! use iss_sim::workload::WorkloadSpec;
//!
//! let config = SystemConfig::hpca2010_baseline(1);
//! let workload = WorkloadSpec::single("gcc", 10_000);
//! let summary = run(CoreModel::Interval, &config, &workload, 42);
//! assert!(summary.aggregate_ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod batch;
pub mod config;
pub mod env;
pub mod experiments;
pub mod hybrid;
/// Re-export of the workspace's single wall-clock portal (see [`iss_trace::host_time`]).
pub use iss_trace::host_time;
pub mod jsonval;
pub mod metrics;
pub mod model;
pub mod report;
pub mod runner;
pub mod sampling;
pub mod scenario;
pub mod serve;
pub mod shard;
pub mod store;
pub mod workload;

pub use batch::{run_batch, run_batch_with_threads, SimJob};
pub use config::SystemConfig;
pub use hybrid::{HybridSpec, SwapController, SwapPolicy};
pub use model::{AnyMachine, CpuModel, ModelCheckpoint};
pub use runner::{run, BaseModel, CoreModel, CoreSummary, SimSummary};
pub use sampling::{run_sampled, run_sampled_with_batch, SamplingEstimate, SamplingSpec};
pub use scenario::{MachineSpec, Record, ScenarioSpec, SweepSpec};
pub use serve::{Client, RunOutcome, ServeOptions, ServeStats, Server};
pub use shard::{run_shard_jobs, run_sharded_sweep, ShardOptions, ShardTask, ShardedOutcome};
pub use store::{CacheKey, ResultStore, StoreStats};
pub use workload::WorkloadSpec;
