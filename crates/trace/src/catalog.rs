//! Benchmark catalog: synthetic profiles standing in for SPEC CPU2000 and
//! PARSEC.
//!
//! The paper evaluates 26 SPEC CPU2000 benchmarks (user-level, single-threaded)
//! and 9 PARSEC benchmarks (multi-threaded, full-system). The real binaries and
//! inputs cannot be shipped, so this module provides one [`WorkloadProfile`]
//! per benchmark whose statistical parameters reproduce the qualitative
//! behaviour the paper's evaluation depends on:
//!
//! * `mcf`, `art`: strongly memory-bound, pointer chasing, large footprints —
//!   they lose throughput when several copies share the L2 (Figure 6).
//! * `swim`, `lucas`, `equake`, `applu`: streaming floating-point codes with
//!   large footprints and high bandwidth demand.
//! * `gcc`, `crafty`, `vortex`, `perlbmk`: branchy integer codes with large
//!   instruction footprints (I-cache misses matter).
//! * `vpr`, `twolf`, `parser`: hard-to-predict branches (misprediction-bound).
//! * `vips`: load-imbalanced, does not scale with core count (Figure 7).
//! * `fluidanimate`: synchronization-heavy, fine-grained locks.
//! * `canneal`: large shared working set, cache-capacity sensitive (Figure 8).

use crate::profile::{
    BranchBehavior, MemoryBehavior, MixWeights, Suite, SyncBehavior, WorkloadProfile,
};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

/// Names of the 26 SPEC CPU2000 benchmarks used in the paper, in the order of
/// Figures 4, 5 and 9 (integer benchmarks first, then floating point).
pub const SPEC_CPU2000: [&str; 26] = [
    "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser", "perlbmk", "twolf", "vortex",
    "vpr", "ammp", "applu", "apsi", "art", "equake", "facerec", "fma3d", "galgel", "lucas", "mesa",
    "mgrid", "sixtrack", "swim", "wupwise",
];

/// Names of the 9 PARSEC benchmarks used in the paper (Figures 7, 8 and 10).
pub const PARSEC: [&str; 9] = [
    "blackscholes",
    "bodytrack",
    "canneal",
    "dedup",
    "fluidanimate",
    "streamcluster",
    "swaptions",
    "vips",
    "x264",
];

/// The five SPEC benchmarks used for the homogeneous multi-program workloads
/// of Figure 6.
pub const FIG6_BENCHMARKS: [&str; 5] = ["gcc", "mcf", "twolf", "art", "swim"];

/// Returns the profile of a SPEC CPU2000 benchmark, or `None` for an unknown
/// name.
#[must_use]
pub fn spec_profile(name: &str) -> Option<WorkloadProfile> {
    if !SPEC_CPU2000.contains(&name) {
        return None;
    }
    Some(build_spec(name))
}

/// Returns the profile of a PARSEC benchmark, or `None` for an unknown name.
#[must_use]
pub fn parsec_profile(name: &str) -> Option<WorkloadProfile> {
    if !PARSEC.contains(&name) {
        return None;
    }
    Some(build_parsec(name))
}

/// Returns the profile for any benchmark in either suite.
#[must_use]
pub fn profile(name: &str) -> Option<WorkloadProfile> {
    spec_profile(name).or_else(|| parsec_profile(name))
}

/// Knobs from which a benchmark personality is constructed.
struct Knobs {
    suite: Suite,
    /// Instruction mix baseline: integer or floating point.
    float_mix: bool,
    /// Memory intensity in [0, 1]: 0 = L1-resident, 1 = DRAM-bound.
    mem_intensity: f64,
    /// Streaming-ness of the cold accesses in [0, 1].
    streaming: f64,
    /// Pointer-chasing fraction of loads.
    pointer_chase: f64,
    /// Branch difficulty in [0, 1]: 0 = fully predictable, 1 = very irregular.
    branchiness: f64,
    /// Instruction footprint in bytes.
    code_footprint: u64,
    /// Mean register dependence distance (ILP).
    dep_distance: f64,
    /// Cold footprint in bytes.
    cold_bytes: u64,
    /// Warm (L2) footprint in bytes.
    warm_bytes: u64,
}

impl Knobs {
    fn into_profile(self, name: &str) -> WorkloadProfile {
        let mut mix = if self.float_mix {
            MixWeights::float_default()
        } else {
            MixWeights::integer_default()
        };
        // Memory-intense codes execute relatively more loads.
        mix.load = (mix.load + 0.10 * self.mem_intensity).min(0.45);

        // Cold (DRAM-footprint) and warm (L2-footprint) access fractions grow
        // with memory intensity; even strongly memory-bound codes such as mcf
        // keep the bulk of their accesses in the L1-resident hot set, which is
        // what yields realistic miss-per-kilo-instruction rates.
        let p_cold = 0.002 + 0.035 * self.mem_intensity * self.mem_intensity;
        let p_warm = 0.010 + 0.110 * self.mem_intensity;
        let p_hot = 1.0 - p_warm - p_cold;
        let memory = MemoryBehavior {
            hot_bytes: 16 * KIB,
            warm_bytes: self.warm_bytes,
            cold_bytes: self.cold_bytes,
            p_hot,
            p_warm,
            p_stream: self.streaming,
            pointer_chase: self.pointer_chase,
            shared_frac: 0.0,
            shared_write_frac: 0.0,
            shared_bytes: 0,
        };

        let branches = BranchBehavior {
            static_branches: (192.0 + 3900.0 * self.branchiness) as u32,
            biased_frac: 0.72 - 0.22 * self.branchiness,
            bias: 0.985 - 0.04 * self.branchiness,
            loop_frac: 0.25 - 0.05 * self.branchiness,
            loop_trip: if self.float_mix { 48 } else { 12 },
            random_taken: 0.42,
            call_frac: 0.02 + 0.04 * self.branchiness,
            indirect_frac: 0.002 + 0.012 * self.branchiness,
            indirect_targets: 2 + (6.0 * self.branchiness) as u32,
        };

        WorkloadProfile {
            name: name.to_string(),
            suite: self.suite,
            mix,
            memory,
            branches,
            sync: SyncBehavior::none(),
            dep_distance_mean: self.dep_distance,
            code_footprint: self.code_footprint,
            default_length: 200_000,
        }
    }
}

fn build_spec(name: &str) -> WorkloadProfile {
    // (float_mix, mem_intensity, streaming, pointer_chase, branchiness,
    //  code KiB, dep_distance, cold MiB, warm KiB)
    let k = match name {
        // --- SPECint ---
        "bzip2" => (false, 0.35, 0.55, 0.05, 0.45, 40, 4.5, 32, 1536),
        "crafty" => (false, 0.10, 0.20, 0.04, 0.60, 96, 3.8, 4, 256),
        "eon" => (true, 0.08, 0.25, 0.03, 0.35, 72, 4.2, 4, 256),
        "gap" => (false, 0.30, 0.30, 0.10, 0.40, 56, 4.0, 48, 1024),
        "gcc" => (false, 0.30, 0.25, 0.08, 0.75, 160, 3.6, 64, 2048),
        "gzip" => (false, 0.20, 0.60, 0.03, 0.40, 28, 4.3, 16, 512),
        "mcf" => (false, 0.95, 0.10, 0.45, 0.50, 24, 3.0, 384, 3584),
        "parser" => (false, 0.35, 0.20, 0.15, 0.70, 64, 3.4, 32, 1024),
        "perlbmk" => (false, 0.22, 0.25, 0.08, 0.65, 128, 3.8, 24, 768),
        "twolf" => (false, 0.45, 0.15, 0.12, 0.68, 48, 3.5, 8, 2048),
        "vortex" => (false, 0.28, 0.30, 0.10, 0.55, 144, 4.0, 48, 1536),
        "vpr" => (false, 0.35, 0.20, 0.10, 0.80, 48, 3.4, 16, 1024),
        // --- SPECfp ---
        "ammp" => (true, 0.55, 0.35, 0.15, 0.20, 40, 5.5, 96, 2048),
        "applu" => (true, 0.60, 0.80, 0.04, 0.30, 48, 6.5, 96, 2560),
        "apsi" => (true, 0.45, 0.60, 0.05, 0.25, 56, 5.5, 64, 2048),
        "art" => (false, 0.90, 0.30, 0.30, 0.55, 16, 3.2, 192, 3584),
        "equake" => (true, 0.75, 0.55, 0.18, 0.20, 32, 5.0, 128, 3072),
        "facerec" => (true, 0.65, 0.65, 0.10, 0.22, 40, 5.5, 96, 2560),
        "fma3d" => (true, 0.70, 0.50, 0.12, 0.28, 120, 5.0, 128, 2560),
        "galgel" => (true, 0.40, 0.70, 0.04, 0.20, 48, 6.0, 48, 2048),
        "lucas" => (true, 0.80, 0.85, 0.05, 0.12, 32, 6.5, 160, 3072),
        "mesa" => (true, 0.15, 0.40, 0.05, 0.35, 88, 4.8, 8, 512),
        "mgrid" => (true, 0.50, 0.90, 0.03, 0.10, 32, 7.0, 64, 2560),
        "sixtrack" => (true, 0.12, 0.45, 0.04, 0.25, 96, 5.2, 8, 512),
        "swim" => (true, 0.85, 0.95, 0.02, 0.08, 24, 7.0, 192, 3072),
        "wupwise" => (true, 0.40, 0.70, 0.05, 0.15, 40, 6.0, 64, 2048),
        _ => unreachable!("unknown SPEC benchmark {name}"),
    };
    let (float_mix, mem, streaming, chase, branchy, code_kib, dep, cold_mib, warm_kib) = k;
    let suite = if float_mix {
        Suite::SpecFp
    } else {
        Suite::SpecInt
    };
    Knobs {
        suite,
        float_mix,
        mem_intensity: mem,
        streaming,
        pointer_chase: chase,
        branchiness: branchy,
        code_footprint: code_kib * KIB,
        dep_distance: dep,
        cold_bytes: cold_mib * MIB,
        warm_bytes: warm_kib * KIB,
    }
    .into_profile(name)
}

fn build_parsec(name: &str) -> WorkloadProfile {
    // Start from a SPEC-like personality, then layer threading behaviour.
    // (float_mix, mem_intensity, streaming, chase, branchiness, code KiB, dep,
    //  cold MiB, warm KiB)
    let base = match name {
        "blackscholes" => (true, 0.15, 0.60, 0.02, 0.15, 40, 5.5, 16, 512),
        "bodytrack" => (true, 0.35, 0.45, 0.08, 0.40, 96, 4.5, 48, 1536),
        "canneal" => (false, 0.88, 0.10, 0.40, 0.45, 32, 3.2, 256, 3584),
        "dedup" => (false, 0.50, 0.40, 0.15, 0.55, 72, 3.8, 96, 2048),
        "fluidanimate" => (true, 0.45, 0.35, 0.12, 0.35, 56, 4.5, 64, 2048),
        "streamcluster" => (true, 0.70, 0.75, 0.06, 0.20, 32, 5.5, 128, 2560),
        "swaptions" => (true, 0.12, 0.40, 0.03, 0.30, 48, 5.0, 8, 384),
        "vips" => (true, 0.40, 0.55, 0.06, 0.45, 128, 4.5, 64, 1536),
        "x264" => (false, 0.38, 0.50, 0.08, 0.50, 144, 4.2, 64, 1536),
        _ => unreachable!("unknown PARSEC benchmark {name}"),
    };
    let (float_mix, mem, streaming, chase, branchy, code_kib, dep, cold_mib, warm_kib) = base;
    let mut p = Knobs {
        suite: Suite::Parsec,
        float_mix,
        mem_intensity: mem,
        streaming,
        pointer_chase: chase,
        branchiness: branchy,
        code_footprint: code_kib * KIB,
        dep_distance: dep,
        cold_bytes: cold_mib * MIB,
        warm_bytes: warm_kib * KIB,
    }
    .into_profile(name);

    // Full-system workloads execute noticeably more serializing instructions
    // (system calls, TLB maintenance) than user-level SPEC runs.
    p.mix.serializing = 0.0012;

    // Threading personality: (barrier_period, lock_period, cs_len, num_locks,
    // imbalance, shared_frac, shared_write_frac, shared MiB)
    let t = match name {
        "blackscholes" => (120_000, 0, 0, 1, 0.04, 0.02, 0.05, 8),
        "bodytrack" => (40_000, 25_000, 60, 16, 0.12, 0.08, 0.20, 16),
        "canneal" => (0, 15_000, 40, 64, 0.08, 0.30, 0.35, 192),
        "dedup" => (0, 8_000, 120, 8, 0.25, 0.15, 0.40, 64),
        "fluidanimate" => (25_000, 2_500, 30, 256, 0.15, 0.18, 0.45, 48),
        "streamcluster" => (15_000, 30_000, 50, 4, 0.10, 0.12, 0.15, 96),
        "swaptions" => (0, 0, 0, 1, 0.06, 0.01, 0.05, 4),
        "vips" => (60_000, 12_000, 80, 4, 0.85, 0.10, 0.30, 32),
        "x264" => (30_000, 10_000, 70, 12, 0.35, 0.12, 0.30, 48),
        _ => unreachable!(),
    };
    let (barrier, lock, cs, locks, imbalance, shared_frac, shared_wr, shared_mib) = t;
    p.sync = SyncBehavior {
        barrier_period: barrier,
        lock_period: lock,
        critical_section_len: cs,
        num_locks: locks,
        imbalance,
    };
    p.memory.shared_frac = shared_frac;
    p.memory.shared_write_frac = shared_wr;
    p.memory.shared_bytes = shared_mib * MIB;
    p.default_length = 150_000;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_profile_exists_and_validates() {
        for name in SPEC_CPU2000 {
            let p = spec_profile(name).unwrap_or_else(|| panic!("missing profile for {name}"));
            p.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.name, name);
            assert!(!p.is_multithreaded(), "{name} must be single-threaded");
        }
    }

    #[test]
    fn every_parsec_profile_exists_and_validates() {
        for name in PARSEC {
            let p = parsec_profile(name).unwrap_or_else(|| panic!("missing profile for {name}"));
            p.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.name, name);
            assert!(p.is_multithreaded(), "{name} must be multi-threaded");
            assert_eq!(p.suite, Suite::Parsec);
        }
    }

    #[test]
    fn unknown_names_return_none() {
        assert!(spec_profile("doom3").is_none());
        assert!(parsec_profile("gcc").is_none());
        assert!(profile("nonexistent").is_none());
    }

    #[test]
    fn profile_resolves_both_suites() {
        assert!(profile("gcc").is_some());
        assert!(profile("vips").is_some());
    }

    #[test]
    fn catalog_counts_match_paper() {
        assert_eq!(SPEC_CPU2000.len(), 26);
        assert_eq!(PARSEC.len(), 9);
    }

    #[test]
    fn fig6_benchmarks_are_in_spec_catalog() {
        for name in FIG6_BENCHMARKS {
            assert!(
                SPEC_CPU2000.contains(&name),
                "{name} missing from SPEC list"
            );
        }
    }

    #[test]
    fn memory_bound_benchmarks_have_large_footprints() {
        let mcf = spec_profile("mcf").unwrap();
        let gcc = spec_profile("gcc").unwrap();
        assert!(mcf.memory.cold_bytes > gcc.memory.cold_bytes);
        assert!(mcf.memory.p_hot < gcc.memory.p_hot);
        assert!(mcf.memory.pointer_chase > gcc.memory.pointer_chase);
    }

    #[test]
    fn vips_is_load_imbalanced() {
        let vips = parsec_profile("vips").unwrap();
        let blackscholes = parsec_profile("blackscholes").unwrap();
        assert!(vips.sync.imbalance > 4.0 * blackscholes.sync.imbalance);
    }

    #[test]
    fn fluidanimate_is_lock_heavy() {
        let fluid = parsec_profile("fluidanimate").unwrap();
        assert!(fluid.sync.lock_period > 0);
        assert!(fluid.sync.num_locks >= 64);
    }

    #[test]
    fn profile_names_are_distinct() {
        let mut names: Vec<&str> = SPEC_CPU2000.iter().chain(PARSEC.iter()).copied().collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
