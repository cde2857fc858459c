//! # iss-trace — instruction model and synthetic workload front-end
//!
//! This crate is the *functional front-end* substrate of the interval-simulation
//! reproduction. The HPCA 2010 paper uses the M5 functional simulator running
//! Alpha binaries of SPEC CPU2000 and PARSEC to produce the dynamic instruction
//! stream that is fed into the timing models. Neither those binaries nor M5 can
//! be shipped here, so this crate provides the closest synthetic equivalent: a
//! deterministic, seeded workload generator that produces dynamic instruction
//! streams ([`DynInst`]) from per-benchmark statistical profiles
//! ([`profile::WorkloadProfile`]).
//!
//! The crucial property for the reproduction is that the *same* stream is fed to
//! both the interval model and the detailed cycle-accurate model through the
//! *same* branch-predictor and memory-hierarchy simulators, so the quantities
//! the paper reports (error of interval simulation relative to detailed
//! simulation, trend fidelity, simulation speedup) are exercised by the same
//! code paths as in the paper.
//!
//! ## Quick example
//!
//! ```
//! use iss_trace::catalog;
//! use iss_trace::stream::{InstructionStream, SyntheticStream};
//!
//! let profile = catalog::spec_profile("mcf").expect("mcf is in the catalog");
//! let mut stream = SyntheticStream::new(&profile, /*thread*/ 0, /*seed*/ 42, /*len*/ 1000);
//! let mut loads = 0;
//! while let Some(inst) = stream.next_inst() {
//!     if inst.is_load() {
//!         loads += 1;
//!     }
//! }
//! assert!(loads > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod catalog;
pub mod checkpoint;
pub mod fastfwd;
pub mod fxmap;
pub mod host_time;
pub mod inst;
pub mod profile;
pub mod stream;
pub mod sync;
pub mod threaded;

pub use checkpoint::{CheckpointStream, CoreResume};
pub use fastfwd::{fast_forward_batched, InstBatch};
pub use fxmap::{FxHashMap, FxHashSet};
pub use host_time::HostTimer;
pub use inst::{BranchClass, BranchInfo, DynInst, MemAccess, OpClass, RegId};
pub use profile::{BranchBehavior, MemoryBehavior, MixWeights, SyncBehavior, WorkloadProfile};
pub use stream::{
    geo_classify, geo_classify_head, geo_threshold_table, InstructionStream, SyntheticStream,
    DEP_POOL_CAP, GEO_U_MIN,
};
pub use sync::{SyncController, SyncOp};
pub use threaded::ThreadedWorkload;

/// Identifier of a hardware thread / core context within a simulated system.
pub type ThreadId = usize;

/// Number of architectural integer + floating-point registers modeled by the
/// synthetic ISA. The value is in line with a RISC ISA such as Alpha (32 int +
/// 32 fp); the exact number only matters for dependence-distance modeling.
pub const NUM_ARCH_REGS: u16 = 64;
