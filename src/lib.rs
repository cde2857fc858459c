//! # interval-sim — interval simulation for multi-core processors
//!
//! A from-scratch Rust reproduction of *"Interval Simulation: Raising the
//! Level of Abstraction in Architectural Simulation"* (Genbrugge, Eyerman and
//! Eeckhout, HPCA 2010). Interval simulation replaces the cycle-accurate core
//! model of a multi-core simulator by a mechanistic analytical model:
//! execution is split into intervals separated by miss events (branch
//! mispredictions, I-cache/TLB misses, long-latency loads, serializing
//! instructions); the branch predictors and the memory hierarchy — including
//! MOESI coherence and off-chip bandwidth — are simulated in detail to find
//! the miss events, and the analytical model computes the timing of each
//! interval.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`trace`] — instruction model and synthetic SPEC CPU2000 / PARSEC-like
//!   workload generation (the functional front-end substrate),
//! * [`branch`] — branch predictor simulators,
//! * [`mem`] — caches, TLBs, MOESI coherence, interconnect, DRAM,
//! * [`interval`] — the interval simulation core model (the paper's
//!   contribution),
//! * [`detailed`] — the cycle-accurate out-of-order baseline and the one-IPC
//!   model,
//! * [`sim`] — system configuration, workloads, metrics (STP, ANTT), the
//!   scenario engine, and every figure of the paper as a built-in sweep
//!   (`sim::experiments::builtin`) read from its checked-in scenario file.
//!
//! ## Quickstart
//!
//! ```
//! use interval_sim::sim::config::SystemConfig;
//! use interval_sim::sim::runner::{run, CoreModel};
//! use interval_sim::sim::workload::WorkloadSpec;
//!
//! // Table 1 baseline, one core, one SPEC-like benchmark.
//! let config = SystemConfig::hpca2010_baseline(1);
//! let workload = WorkloadSpec::single("mcf", 10_000);
//! let result = run(CoreModel::Interval, &config, &workload, 42);
//! println!("mcf IPC (interval model): {:.3}", result.core_ipc(0));
//! assert!(result.core_ipc(0) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use iss_branch as branch;
pub use iss_detailed as detailed;
pub use iss_interval as interval;
pub use iss_mem as mem;
pub use iss_sim as sim;
pub use iss_trace as trace;
