use criterion::{criterion_group, criterion_main, Criterion};
use wsp_flow::{synthesize_flow_relaxed, FlowEngine, FlowSynthesisOptions};

/// Encoding ablation: paper (per-product) vs layered encoding
/// size/runtime on the sorting center.
fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_encoding");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    let map = wsp_maps::sorting_center().expect("sorting builds");
    let workload = map.uniform_workload(160);
    for (name, engine) in [
        ("layered", FlowEngine::LayeredIlp),
        ("paper", FlowEngine::PaperIlp),
    ] {
        let options = FlowSynthesisOptions {
            engine,
            skip_capacity: true,
            ..FlowSynthesisOptions::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                criterion::black_box(synthesize_flow_relaxed(
                    &map.warehouse,
                    &map.traffic,
                    &workload,
                    3600,
                    &options,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
