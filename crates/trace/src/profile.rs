//! Statistical workload profiles driving the synthetic front-end.
//!
//! A [`WorkloadProfile`] captures, per benchmark, the program characteristics
//! that determine the behaviour of the timing models downstream: instruction
//! mix, register dependence distances (instruction-level parallelism), memory
//! footprint and locality per cache level, pointer-chasing behaviour
//! (memory-level parallelism), branch behaviour, serializing-instruction rate,
//! and synchronization behaviour for multi-threaded workloads.
//!
//! The profiles do not try to be bit-exact recreations of SPEC CPU2000 or
//! PARSEC; they are calibrated so that the *relative* behaviour the paper
//! relies on is present (e.g. `mcf` and `art` are memory-bound and suffer from
//! L2 sharing, `gcc` is cache-friendly and scales in throughput, `vips` has
//! load imbalance and does not scale, `fluidanimate` is synchronization-heavy).

/// Fractions of each instruction class in the dynamic instruction stream.
///
/// The fractions do not need to add up to one; the remainder after loads,
/// stores, branches, long-latency arithmetic and serializing instructions is
/// filled with single-cycle integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixWeights {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of control-transfer instructions.
    pub branch: f64,
    /// Fraction of integer multiplies.
    pub int_mul: f64,
    /// Fraction of integer divides.
    pub int_div: f64,
    /// Fraction of floating-point add/mul operations.
    pub fp: f64,
    /// Fraction of floating-point divides.
    pub fp_div: f64,
    /// Fraction of serializing instructions (memory barriers, syscalls).
    /// Full-system workloads have noticeably more of these.
    pub serializing: f64,
}

impl MixWeights {
    /// A typical integer-code mix (SPECint-like).
    #[must_use]
    pub fn integer_default() -> Self {
        MixWeights {
            load: 0.25,
            store: 0.12,
            branch: 0.17,
            int_mul: 0.01,
            int_div: 0.001,
            fp: 0.0,
            fp_div: 0.0,
            serializing: 0.0002,
        }
    }

    /// A typical floating-point mix (SPECfp-like).
    #[must_use]
    pub fn float_default() -> Self {
        MixWeights {
            load: 0.30,
            store: 0.10,
            branch: 0.05,
            int_mul: 0.01,
            int_div: 0.0005,
            fp: 0.30,
            fp_div: 0.01,
            serializing: 0.0001,
        }
    }

    /// Sum of the explicit fractions (the rest is integer ALU work).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.load
            + self.store
            + self.branch
            + self.int_mul
            + self.int_div
            + self.fp
            + self.fp_div
            + self.serializing
    }

    /// Validates that the mix is a proper sub-distribution.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field when any fraction is
    /// negative or the total exceeds 1.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("load", self.load),
            ("store", self.store),
            ("branch", self.branch),
            ("int_mul", self.int_mul),
            ("int_div", self.int_div),
            ("fp", self.fp),
            ("fp_div", self.fp_div),
            ("serializing", self.serializing),
        ];
        for (name, v) in fields {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!(
                    "instruction-mix fraction `{name}` = {v} is outside [0, 1]"
                ));
            }
        }
        let total = self.total();
        if total > 1.0 {
            return Err(format!("instruction-mix fractions add up to {total} > 1"));
        }
        Ok(())
    }
}

/// Memory-locality behaviour of a workload.
///
/// Data addresses are drawn from three nested regions sized to interact with
/// the cache hierarchy of Table 1 (32 KB L1, 4 MB shared L2): a hot region
/// that fits in L1, a warm region that fits in (a fraction of) the L2, and a
/// cold region that misses everywhere, plus an optional streaming component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBehavior {
    /// Bytes of the per-thread hot region (L1-resident working set).
    pub hot_bytes: u64,
    /// Bytes of the per-thread warm region (L2-resident working set).
    pub warm_bytes: u64,
    /// Bytes of the per-thread cold region (DRAM-resident footprint).
    pub cold_bytes: u64,
    /// Probability that a data access targets the hot region.
    pub p_hot: f64,
    /// Probability that a data access targets the warm region (the rest goes
    /// to the cold region or the streaming pattern).
    pub p_warm: f64,
    /// Probability that a cold access follows a sequential streaming pattern
    /// (unit-stride walk over the cold region) rather than a random address;
    /// streaming workloads such as `swim` derive spatial locality from this.
    pub p_stream: f64,
    /// Fraction of loads whose address depends on the value of an earlier
    /// load (pointer chasing). Dependent long-latency loads serialize and
    /// reduce memory-level parallelism, which is exactly the first-order
    /// behaviour interval analysis models.
    pub pointer_chase: f64,
    /// Fraction of data accesses that target the region shared between
    /// threads (multi-threaded workloads); drives coherence traffic.
    pub shared_frac: f64,
    /// Fraction of shared accesses that are writes (upgrades/invalidations).
    pub shared_write_frac: f64,
    /// Size in bytes of the shared region.
    pub shared_bytes: u64,
}

impl MemoryBehavior {
    /// Cache-friendly default: nearly everything hits in the L1/L2.
    #[must_use]
    pub fn cache_friendly() -> Self {
        MemoryBehavior {
            hot_bytes: 16 * 1024,
            warm_bytes: 256 * 1024,
            cold_bytes: 16 * 1024 * 1024,
            p_hot: 0.95,
            p_warm: 0.045,
            p_stream: 0.5,
            pointer_chase: 0.02,
            shared_frac: 0.0,
            shared_write_frac: 0.0,
            shared_bytes: 0,
        }
    }

    /// Memory-bound default: large footprint, frequent L2/DRAM accesses.
    #[must_use]
    pub fn memory_bound() -> Self {
        MemoryBehavior {
            hot_bytes: 24 * 1024,
            warm_bytes: 3 * 1024 * 1024,
            cold_bytes: 256 * 1024 * 1024,
            p_hot: 0.70,
            p_warm: 0.22,
            p_stream: 0.2,
            pointer_chase: 0.25,
            shared_frac: 0.0,
            shared_write_frac: 0.0,
            shared_bytes: 0,
        }
    }

    /// Validates region sizes and probabilities.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when probabilities are outside
    /// `[0, 1]`, the hot/warm split exceeds 1, or a region has zero size while
    /// being reachable.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("p_hot", self.p_hot),
            ("p_warm", self.p_warm),
            ("p_stream", self.p_stream),
            ("pointer_chase", self.pointer_chase),
            ("shared_frac", self.shared_frac),
            ("shared_write_frac", self.shared_write_frac),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "memory-behaviour probability `{name}` = {p} is outside [0, 1]"
                ));
            }
        }
        if self.p_hot + self.p_warm > 1.0 {
            return Err("p_hot + p_warm exceeds 1".to_string());
        }
        if self.hot_bytes == 0 || self.warm_bytes == 0 || self.cold_bytes == 0 {
            return Err("memory regions must have non-zero size".to_string());
        }
        if self.shared_frac > 0.0 && self.shared_bytes == 0 {
            return Err("shared_frac > 0 requires a non-empty shared region".to_string());
        }
        Ok(())
    }
}

/// Control-flow behaviour of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchBehavior {
    /// Number of static conditional branches in the synthetic program; a
    /// larger number stresses predictor and BTB capacity.
    pub static_branches: u32,
    /// Fraction of branches that are strongly biased (predictable).
    pub biased_frac: f64,
    /// Taken probability of a biased branch.
    pub bias: f64,
    /// Fraction of branches that follow a short repeating loop pattern
    /// (predictable by a local-history predictor).
    pub loop_frac: f64,
    /// Loop trip count for patterned branches.
    pub loop_trip: u32,
    /// The remaining branches are data-dependent with this taken probability
    /// (hard to predict — the source of most mispredictions).
    pub random_taken: f64,
    /// Fraction of dynamic branches that are function calls (exercise RAS).
    pub call_frac: f64,
    /// Fraction of dynamic branches that are indirect jumps.
    pub indirect_frac: f64,
    /// Number of distinct targets per indirect branch.
    pub indirect_targets: u32,
}

impl BranchBehavior {
    /// Predictable control flow (loop-dominated floating-point code).
    #[must_use]
    pub fn predictable() -> Self {
        BranchBehavior {
            static_branches: 256,
            biased_frac: 0.55,
            bias: 0.98,
            loop_frac: 0.40,
            loop_trip: 32,
            random_taken: 0.5,
            call_frac: 0.02,
            indirect_frac: 0.002,
            indirect_targets: 2,
        }
    }

    /// Branchy, hard-to-predict integer control flow.
    #[must_use]
    pub fn irregular() -> Self {
        BranchBehavior {
            static_branches: 3072,
            biased_frac: 0.45,
            bias: 0.92,
            loop_frac: 0.25,
            loop_trip: 8,
            random_taken: 0.45,
            call_frac: 0.06,
            indirect_frac: 0.02,
            indirect_targets: 8,
        }
    }

    /// Validates fractions.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when a fraction is outside
    /// `[0, 1]` or the static branch count is zero.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("biased_frac", self.biased_frac),
            ("bias", self.bias),
            ("loop_frac", self.loop_frac),
            ("random_taken", self.random_taken),
            ("call_frac", self.call_frac),
            ("indirect_frac", self.indirect_frac),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "branch-behaviour probability `{name}` = {p} is outside [0, 1]"
                ));
            }
        }
        if self.biased_frac + self.loop_frac > 1.0 {
            return Err("biased_frac + loop_frac exceeds 1".to_string());
        }
        if self.static_branches == 0 {
            return Err("static_branches must be non-zero".to_string());
        }
        if self.loop_trip == 0 {
            return Err("loop_trip must be non-zero".to_string());
        }
        Ok(())
    }
}

/// Synchronization behaviour for multi-threaded workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncBehavior {
    /// A barrier is placed every `barrier_period` instructions per thread
    /// (0 disables barriers).
    pub barrier_period: u64,
    /// A lock-protected critical section starts every `lock_period`
    /// instructions per thread (0 disables locks).
    pub lock_period: u64,
    /// Length of a critical section in instructions.
    pub critical_section_len: u64,
    /// Number of distinct locks (smaller ⇒ more contention).
    pub num_locks: u32,
    /// Per-thread load imbalance: thread `t` executes
    /// `len * (1 + imbalance * t / (n-1))` instructions between barriers. A
    /// high value makes scaling poor (as observed for `vips` in the paper).
    pub imbalance: f64,
}

impl SyncBehavior {
    /// No synchronization (single-threaded benchmarks).
    #[must_use]
    pub fn none() -> Self {
        SyncBehavior {
            barrier_period: 0,
            lock_period: 0,
            critical_section_len: 0,
            num_locks: 1,
            imbalance: 0.0,
        }
    }

    /// Data-parallel behaviour: infrequent barriers, few locks.
    #[must_use]
    pub fn data_parallel() -> Self {
        SyncBehavior {
            barrier_period: 200_000,
            lock_period: 0,
            critical_section_len: 0,
            num_locks: 1,
            imbalance: 0.05,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for non-sensical combinations.
    pub fn validate(&self) -> Result<(), String> {
        if self.lock_period > 0 && self.critical_section_len == 0 {
            return Err("lock_period > 0 requires a non-zero critical_section_len".to_string());
        }
        if self.lock_period > 0 && self.num_locks == 0 {
            return Err("lock_period > 0 requires at least one lock".to_string());
        }
        if !(0.0..=4.0).contains(&self.imbalance) {
            return Err(format!("imbalance {} is outside [0, 4]", self.imbalance));
        }
        Ok(())
    }
}

/// Complete statistical profile of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name (e.g. `"mcf"`, `"fluidanimate"`).
    pub name: String,
    /// Benchmark suite the profile imitates.
    pub suite: Suite,
    /// Instruction mix.
    pub mix: MixWeights,
    /// Memory behaviour.
    pub memory: MemoryBehavior,
    /// Branch behaviour.
    pub branches: BranchBehavior,
    /// Synchronization behaviour (only meaningful for multi-threaded runs).
    pub sync: SyncBehavior,
    /// Mean register dependence distance in instructions; larger values give
    /// more instruction-level parallelism (longer independent chains).
    pub dep_distance_mean: f64,
    /// Size of the instruction footprint in bytes; footprints larger than the
    /// 32 KB L1 I-cache produce instruction-cache misses (e.g. `gcc`, full
    /// system code).
    pub code_footprint: u64,
    /// Default dynamic instruction count per thread when the caller does not
    /// override it.
    pub default_length: u64,
}

/// Benchmark suite of a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2000 integer benchmark.
    SpecInt,
    /// SPEC CPU2000 floating-point benchmark.
    SpecFp,
    /// PARSEC multi-threaded benchmark.
    Parsec,
    /// Synthetic profile defined by the user.
    Custom,
}

impl WorkloadProfile {
    /// Validates every component of the profile.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure found in the instruction mix,
    /// memory behaviour, branch behaviour or synchronization behaviour.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("profile name must not be empty".to_string());
        }
        self.mix.validate()?;
        self.memory.validate()?;
        self.branches.validate()?;
        self.sync.validate()?;
        if self.dep_distance_mean < 1.0 {
            return Err(format!(
                "dep_distance_mean {} must be at least 1",
                self.dep_distance_mean
            ));
        }
        if self.code_footprint == 0 {
            return Err("code_footprint must be non-zero".to_string());
        }
        if self.default_length == 0 {
            return Err("default_length must be non-zero".to_string());
        }
        Ok(())
    }

    /// Whether the profile describes a multi-threaded (PARSEC-like) program.
    #[must_use]
    pub fn is_multithreaded(&self) -> bool {
        self.suite == Suite::Parsec
            || self.sync.barrier_period > 0
            || self.sync.lock_period > 0
            || self.memory.shared_frac > 0.0
    }

    /// Returns a copy of the profile with a different name (useful for
    /// building custom variants in examples and tests).
    #[must_use]
    pub fn renamed(&self, name: &str) -> Self {
        let mut p = self.clone();
        p.name = name.to_string();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mixes_are_valid() {
        MixWeights::integer_default().validate().unwrap();
        MixWeights::float_default().validate().unwrap();
    }

    #[test]
    fn mix_rejects_over_unity() {
        let mut m = MixWeights::integer_default();
        m.load = 0.9;
        m.fp = 0.9;
        assert!(m.validate().is_err());
    }

    #[test]
    fn mix_rejects_negative() {
        let mut m = MixWeights::integer_default();
        m.store = -0.1;
        assert!(m.validate().is_err());
    }

    #[test]
    fn memory_defaults_are_valid() {
        MemoryBehavior::cache_friendly().validate().unwrap();
        MemoryBehavior::memory_bound().validate().unwrap();
    }

    #[test]
    fn memory_rejects_zero_regions() {
        let mut m = MemoryBehavior::cache_friendly();
        m.hot_bytes = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn memory_rejects_shared_without_region() {
        let mut m = MemoryBehavior::cache_friendly();
        m.shared_frac = 0.5;
        m.shared_bytes = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn branch_defaults_are_valid() {
        BranchBehavior::predictable().validate().unwrap();
        BranchBehavior::irregular().validate().unwrap();
    }

    #[test]
    fn branch_rejects_zero_static_branches() {
        let mut b = BranchBehavior::predictable();
        b.static_branches = 0;
        assert!(b.validate().is_err());
    }

    #[test]
    fn sync_rejects_lock_without_cs() {
        let mut s = SyncBehavior::data_parallel();
        s.lock_period = 100;
        s.critical_section_len = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn multithreaded_detection() {
        let profile = WorkloadProfile {
            name: "x".to_string(),
            suite: Suite::SpecInt,
            mix: MixWeights::integer_default(),
            memory: MemoryBehavior::cache_friendly(),
            branches: BranchBehavior::irregular(),
            sync: SyncBehavior::none(),
            dep_distance_mean: 4.0,
            code_footprint: 16 * 1024,
            default_length: 1000,
        };
        assert!(!profile.is_multithreaded());
        let mut mt = profile.clone();
        mt.sync.barrier_period = 1000;
        assert!(mt.is_multithreaded());
    }
}
