//! The batch kernels behind the warming and interval hot loops: `perf`'s
//! gated `kernels[]` rows.
//!
//! Each kernel replays realistic input: the structure-of-arrays columns of
//! one benchmark decoded front to back at the warming batch size
//! ([`harvest`]), fed to fresh kernel state ([`batch_kernels`]).

use iss_branch::BranchUnit;
use iss_mem::tlb::TlbConfig;
use iss_mem::{Cache, CacheConfig, LineState, MemoryHierarchy, Tlb};
use iss_sim::{SystemConfig, WorkloadSpec};
use iss_trace::{
    catalog, fast_forward_batched, geo_classify, geo_classify_head, geo_threshold_table,
    BranchInfo, CheckpointStream, CoreResume, InstBatch, GEO_U_MIN,
};

/// The benchmark whose columns the kernels replay: the quick-set workload
/// with the richest mix of memory and branch traffic.
pub const HARVEST_BENCHMARK: &str = "mcf";

/// Structure-of-arrays batch size of the harvest and of `perf`'s warming
/// row: the default warming batch of sampled runs.
pub const WARM_BATCH: usize = 64;

/// Generator draws the threshold-scan kernel classifies per pass.
const DRAWS: usize = 1 << 16;

/// Instruction-fetch line size (log2 bytes) of the cache-probe kernel, the
/// sampled runner's.
const IFETCH_LINE_SHIFT: u32 = 6;

/// One harvested warming batch: copies of the columns
/// `fast_forward_batched` produced.
pub struct Columns {
    /// Instruction addresses.
    pub pc: Vec<u64>,
    /// Batch positions of the memory operations.
    pub mem_pos: Vec<u32>,
    /// Data addresses of the memory operations.
    pub mem_addr: Vec<u64>,
    /// Whether each memory operation is a store.
    pub mem_store: Vec<bool>,
    /// Addresses of the branches.
    pub br_pc: Vec<u64>,
    /// Outcomes of the branches.
    pub br_info: Vec<BranchInfo>,
}

/// [`harvest`]'s decode loop, handing each batch to `visit` instead of
/// keeping it; returns the instructions decoded.
fn decode(benchmark: &str, length: u64, seed: u64, visit: &mut dyn FnMut(&InstBatch)) -> u64 {
    let workload = WorkloadSpec::single(benchmark, length)
        .build(seed)
        .unwrap_or_else(|e| panic!("kernel workload {benchmark} failed: {e}"));
    let (raw, mut sync) = workload.into_parts();
    let mut streams: Vec<CheckpointStream> = raw.into_iter().map(CheckpointStream::fresh).collect();
    let mut per_core = vec![
        CoreResume {
            time: 0,
            instructions: 0,
            done: false,
        };
        streams.len()
    ];
    let mut batch = InstBatch::with_capacity(WARM_BATCH);
    fast_forward_batched(
        &mut streams,
        &mut sync,
        &mut per_core,
        u64::MAX,
        &mut batch,
        &mut |_, b| visit(b),
    )
}

/// Decodes `benchmark` (`length` instructions, `seed`) front to back at
/// the warming batch size and keeps the columns of every batch.
///
/// # Panics
///
/// Panics when `benchmark` is not in the catalog.
#[must_use]
pub fn harvest(benchmark: &str, length: u64, seed: u64) -> Vec<Columns> {
    let mut columns = Vec::new();
    decode(benchmark, length, seed, &mut |b| {
        columns.push(Columns {
            pc: b.pc.clone(),
            mem_pos: b.mem_pos.clone(),
            mem_addr: b.mem_addr.clone(),
            mem_store: b.mem_store.clone(),
            br_pc: b.br_pc.clone(),
            br_info: b.br_info.clone(),
        });
    });
    columns
}

/// One batch kernel, ready to time: each call of `run` is one pass over its
/// input, `ops` kernel operations.
pub struct BatchKernel<'a> {
    /// Row name (`soa_decode`, `cache_probe_batch`, `tag_compare`,
    /// `tlb_access_batch`, `threshold_scan`, `branch_update_batch`).
    pub name: &'static str,
    /// Kernel operations per pass.
    pub ops: u64,
    /// One pass.
    pub run: Box<dyn FnMut() + 'a>,
}

/// The six batch kernels over `columns`, which [`harvest`] decoded with
/// `seed`: the warming path's two stages (decoding that stream again into
/// `InstBatch` columns, and the hierarchy's batched cache/TLB probe), the
/// set-major tag compare of the widest cache, the batched TLB translate,
/// the generator's geometric threshold scan, and the batched branch-unit
/// update.
///
/// # Panics
///
/// Panics when [`HARVEST_BENCHMARK`] is not in the catalog.
#[must_use]
pub fn batch_kernels<'a>(
    columns: &'a [Columns],
    config: &SystemConfig,
    seed: u64,
) -> Vec<BatchKernel<'a>> {
    let instructions: u64 = columns.iter().map(|c| c.pc.len() as u64).sum();
    let accesses: u64 = columns.iter().map(|c| c.mem_addr.len() as u64).sum();
    let branches: u64 = columns.iter().map(|c| c.br_pc.len() as u64).sum();

    let soa_decode = move || {
        decode(HARVEST_BENCHMARK, instructions, seed, &mut |b| {
            std::hint::black_box(b.len());
        });
    };

    // One warming hierarchy across passes, as a sampled run keeps it
    // across warming batches.
    let mut memory = MemoryHierarchy::new(&config.memory);
    memory.set_warming(true);
    let cache_probe_batch = move || {
        let mut last_iline = u64::MAX;
        let mut now = 0;
        for c in columns {
            memory.warm_access_batch(
                0,
                &c.pc,
                &c.mem_pos,
                &c.mem_addr,
                &c.mem_store,
                IFETCH_LINE_SHIFT,
                &mut last_iline,
                now,
            );
            now += c.pc.len() as u64;
        }
    };

    // The L2 (8 ways), pre-populated with every harvested line so a pass
    // is pure lookups: hits and capacity misses.
    let mut l2 = Cache::new(&CacheConfig::l2_4m());
    for c in columns {
        for &addr in &c.mem_addr {
            l2.insert(addr, LineState::Exclusive);
        }
    }
    let mut states = Vec::new();
    let tag_compare = move || {
        for c in columns {
            l2.access_batch(&c.mem_addr, &mut states);
            std::hint::black_box(states.len());
        }
    };

    let mut tlb = Tlb::new(&TlbConfig::default_dtlb());
    let mut latencies = Vec::new();
    let tlb_access_batch = move || {
        for c in columns {
            tlb.access_batch(&c.mem_addr, &mut latencies);
            std::hint::black_box(latencies.len());
        }
    };

    // Clamped uniforms from an xorshift64* chain, classified against the
    // dependence-distance table exactly as `SyntheticStream::pick_src`
    // does once per generated instruction.
    let profile = catalog::spec_profile(HARVEST_BENCHMARK)
        .unwrap_or_else(|| panic!("{HARVEST_BENCHMARK} is in the catalog"));
    let table = geo_threshold_table(profile.dep_distance_mean);
    let head = geo_classify_head(profile.dep_distance_mean);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let draws: Vec<f64> = (0..DRAWS)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(GEO_U_MIN)
        })
        .collect();
    let threshold_scan = move || {
        let acc: usize = draws.iter().map(|&u| geo_classify(&table, head, u)).sum();
        std::hint::black_box(acc);
    };

    let mut unit = BranchUnit::new(&config.branch);
    let branch_update_batch = move || {
        for c in columns {
            unit.update_batch(&c.br_pc, &c.br_info);
        }
    };

    vec![
        BatchKernel {
            name: "soa_decode",
            ops: instructions,
            run: Box::new(soa_decode),
        },
        BatchKernel {
            name: "cache_probe_batch",
            ops: instructions,
            run: Box::new(cache_probe_batch),
        },
        BatchKernel {
            name: "tag_compare",
            ops: accesses,
            run: Box::new(tag_compare),
        },
        BatchKernel {
            name: "tlb_access_batch",
            ops: accesses,
            run: Box::new(tlb_access_batch),
        },
        BatchKernel {
            name: "threshold_scan",
            ops: DRAWS as u64,
            run: Box::new(threshold_scan),
        },
        BatchKernel {
            name: "branch_update_batch",
            ops: branches,
            run: Box::new(branch_update_batch),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvest_keeps_every_decoded_instruction_and_each_kernel_runs() {
        let columns = harvest(HARVEST_BENCHMARK, 2_000, 42);
        let kept: u64 = columns.iter().map(|c| c.pc.len() as u64).sum();
        assert_eq!(kept, 2_000);
        let kernels = batch_kernels(&columns, &SystemConfig::hpca2010_baseline(1), 42);
        let names: Vec<_> = kernels.iter().map(|k| k.name).collect();
        assert_eq!(
            names,
            [
                "soa_decode",
                "cache_probe_batch",
                "tag_compare",
                "tlb_access_batch",
                "threshold_scan",
                "branch_update_batch"
            ]
        );
        for mut k in kernels {
            assert!(k.ops > 0, "{} has no work", k.name);
            (k.run)();
        }
    }
}
