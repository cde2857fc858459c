//! Criterion bench behind Figure 4: host cost of interval vs detailed
//! simulation under each component-isolation configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iss_sim::experiments::{builtin, ExperimentScale};
use iss_sim::runner::{run, CoreModel};
use iss_sim::workload::WorkloadSpec;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_components");
    group.sample_size(10);
    let spec = WorkloadSpec::single("gcc", 20_000);
    for name in ["fig4-dispatch", "fig4-icache", "fig4-branch", "fig4-l2"] {
        let sweep = builtin(name, ExperimentScale::quick()).expect("fig4 builtin");
        let config = sweep.templates[0]
            .machine
            .resolve(1)
            .expect("fig4 machines resolve");
        for model in [CoreModel::Interval, CoreModel::Detailed] {
            group.bench_with_input(BenchmarkId::new(name, model.name()), &model, |b, &model| {
                b.iter(|| run(model, &config, &spec, 42))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
