//! # iss-detailed — cycle-accurate out-of-order baseline simulator
//!
//! Interval simulation is evaluated *against* detailed cycle-accurate
//! simulation (the M5 out-of-order core model in the paper). This crate is
//! that baseline: a structural out-of-order core model with the resources of
//! Table 1 — fetch queue and 7-stage front-end, 256-entry ROB, 128-entry
//! issue queue, 128-entry load/store queue, per-class functional units
//! (4 integer, 4 load/store, 4 floating point), 4-wide dispatch/commit,
//! 6-wide issue and 8-wide fetch — driven by the *same* instruction streams,
//! branch predictors and memory hierarchy as the interval model, so that
//! accuracy (Figures 4-8) and simulation speedup (Figures 9-10) can be
//! measured exactly the way the paper does.
//!
//! The crate also contains the *one-IPC* core model ([`oneipc::OneIpcCore`]),
//! the common simplification the paper positions interval simulation against
//! (Section 6, "a common assumption is to assume that all cores execute one
//! instruction per cycle").
//!
//! ```
//! use iss_branch::BranchPredictorConfig;
//! use iss_detailed::{DetailedCoreConfig, DetailedSimulator};
//! use iss_mem::MemoryConfig;
//! use iss_trace::{catalog, ThreadedWorkload};
//!
//! let profile = catalog::spec_profile("gzip").unwrap();
//! let workload = ThreadedWorkload::single(&profile, 1, 5_000);
//! let mut sim = DetailedSimulator::from_workload(
//!     &DetailedCoreConfig::hpca2010_baseline(),
//!     &BranchPredictorConfig::hpca2010_baseline(),
//!     &MemoryConfig::hpca2010_baseline(1),
//!     workload,
//! );
//! let result = sim.run();
//! assert!(result.per_core[0].ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod multicore;
pub mod oneipc;
pub mod oo_core;
pub mod stats;

pub use config::DetailedCoreConfig;
pub use multicore::{DetailedSimulator, OneIpcSimulator};
pub use oneipc::OneIpcCore;
pub use oo_core::OutOfOrderCore;
pub use stats::DetailedCoreStats;
