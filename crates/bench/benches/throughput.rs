//! Throughput benches that `perf` does not cover: the batch engine running
//! a small sweep at 1, 2 and 4 workers, and the batched structure-of-arrays
//! kernels behind functional warming, isolated so a kernel-level
//! regression is visible separately from end-to-end MIPS.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iss_bench::kernels::{decode, harvest, lane_kernels, HARVEST_BENCHMARK};
use iss_mem::MemoryHierarchy;
use iss_sim::batch::{run_batch_with_threads, SimJob};
use iss_sim::config::SystemConfig;
use iss_sim::runner::CoreModel;
use iss_sim::workload::WorkloadSpec;

const BUDGET: u64 = 20_000;
const SEED: u64 = 42;

fn batch_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_engine");
    group.sample_size(10);
    let config = SystemConfig::hpca2010_baseline(1);
    let jobs: Vec<SimJob> = ["gcc", "gzip", "mcf", "twolf"]
        .into_iter()
        .map(|b| {
            SimJob::new(
                CoreModel::Interval,
                config,
                WorkloadSpec::single(b, BUDGET),
                SEED,
            )
        })
        .collect();
    group.throughput(Throughput::Elements(BUDGET * jobs.len() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("spec_sweep", threads),
            &threads,
            |b, &threads| b.iter(|| run_batch_with_threads(&jobs, threads)),
        );
    }
    group.finish();
}

/// The warming path's stages on one benchmark's harvested columns: SoA
/// decode (stream generation into `InstBatch` columns) and the hierarchy's
/// batched cache/TLB probe, then the four lane kernels `perf` also times
/// (tag compare, TLB batch, threshold scan, branch-unit update).
fn batch_kernels(c: &mut Criterion) {
    let config = SystemConfig::hpca2010_baseline(1);
    let columns = harvest(HARVEST_BENCHMARK, BUDGET, SEED);
    let total: u64 = columns.iter().map(|col| col.pc.len() as u64).sum();

    let mut group = c.benchmark_group("batch_kernels");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));

    group.bench_function(BenchmarkId::new("soa_decode", HARVEST_BENCHMARK), |b| {
        b.iter(|| {
            decode(HARVEST_BENCHMARK, BUDGET, SEED, &mut |batch| {
                std::hint::black_box(batch.len());
            })
        })
    });

    group.bench_function(
        BenchmarkId::new("cache_probe_batch", HARVEST_BENCHMARK),
        |b| {
            let mut memory = MemoryHierarchy::new(&config.memory);
            memory.set_warming(true);
            b.iter(|| {
                let mut last_iline = u64::MAX;
                let mut now = 0u64;
                for col in &columns {
                    memory.warm_access_batch(
                        0,
                        &col.pc,
                        &col.mem_pos,
                        &col.mem_addr,
                        &col.mem_store,
                        6,
                        &mut last_iline,
                        now,
                    );
                    now += col.pc.len() as u64;
                }
            })
        },
    );

    for mut kernel in lane_kernels(&columns, &config) {
        group.throughput(Throughput::Elements(kernel.ops));
        group.bench_function(BenchmarkId::new(kernel.name, HARVEST_BENCHMARK), |b| {
            b.iter(&mut kernel.run)
        });
    }
    group.finish();
}

criterion_group!(benches, batch_engine, batch_kernels);
criterion_main!(benches);
