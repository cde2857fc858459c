//! # iss-interval — the interval simulation core model
//!
//! This crate implements the paper's contribution: a mechanistic analytical
//! model that replaces cycle-accurate core simulation in a multi-core
//! simulator. Execution is partitioned into *intervals* separated by miss
//! events; the branch predictor ([`iss_branch`]) and the memory hierarchy
//! ([`iss_mem`]) are simulated in detail to find the miss events, and the
//! analytical model computes the timing impact of each event:
//!
//! * I-cache / I-TLB miss → the miss latency,
//! * branch misprediction → branch resolution time + front-end pipeline depth,
//! * long-latency (L2 / coherence / D-TLB) load → the memory access latency,
//!   with independent miss events underneath it overlapped (MLP),
//! * serializing instruction → the window drain time,
//! * otherwise → dispatch at the effective dispatch rate derived from the
//!   old-window critical path via Little's law.
//!
//! The two central data structures are the [`window::Window`] (a ROB-sized
//! look-ahead buffer used to find overlapped miss events) and the
//! [`old_window::OldWindow`] (a data-flow model over recently dispatched
//! instructions that estimates the critical path length, the branch
//! resolution time, the window drain time and the effective dispatch rate —
//! the "old window approach" contributed by the paper).
//!
//! ## Departures from the paper's pseudocode
//!
//! [`IntervalCore`] follows Figure 3 of the paper except in two places of
//! the overlap scan, the walk over the window behind a long-latency load:
//!
//! * **A dependent, mispredicted branch stops the scan.** A branch that
//!   depends on the blocking load resolves only after the load returns, so
//!   its misprediction is charged when it reaches the head, not hidden.
//!   When it will mispredict, the instructions behind it are wrong-path
//!   work, so the scan overlaps none of them; the paper keeps scanning.
//!   Pinned by `core_model::tests::a_dependent_mispredicted_branch_stops_the_overlap_scan`.
//! * **Chained overlapped loads serialize.** A load whose address comes
//!   from another overlapped miss issues only when that miss returns, so
//!   the blocking load is charged the longest chain through the overlapped
//!   misses, not just the slowest single one. Without this, pointer chasing
//!   (mcf) is billed one miss per chain and comes out far too fast.
//!   Pinned by `core_model::tests::chained_overlapped_loads_serialize`.
//!
//! ```
//! use iss_branch::BranchPredictorConfig;
//! use iss_interval::{IntervalCoreConfig, IntervalSimulator};
//! use iss_mem::MemoryConfig;
//! use iss_trace::{catalog, ThreadedWorkload};
//!
//! let profile = catalog::spec_profile("gcc").unwrap();
//! let workload = ThreadedWorkload::single(&profile, 42, 20_000);
//! let mut sim = IntervalSimulator::from_workload(
//!     &IntervalCoreConfig::hpca2010_baseline(),
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
pub mod core_model;
pub mod multicore;
pub mod old_window;
pub mod stats;
pub mod window;

pub use config::IntervalCoreConfig;
pub use core_model::IntervalCore;
pub use multicore::{CoreWarmParts, IntervalSimulator, Multicore, SimCore, SimResult, WarmParts};
pub use old_window::OldWindow;
pub use stats::{CoreResult, IntervalCoreStats, MissEventKind};
pub use window::{OverlapFlags, Window};
