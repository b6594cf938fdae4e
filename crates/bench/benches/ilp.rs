use criterion::{criterion_group, criterion_main, Criterion};
use wsp_flow::{synthesize_flow_with_scratch, FlowSynthesisOptions, LpScratch};

/// Flow-synthesis ILP timing on the paper's sorting center — the stage the
/// sparse revised simplex + warm-started branch-and-bound PR made the fast
/// one. `cold` builds a fresh solver scratch per solve: the one-shot
/// caller cost. Reusing a scratch saves only its allocations, since it
/// carries nothing else from one solve to the next.
fn bench_ilp(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(5));
    let map = wsp_maps::sorting_center().expect("sorting builds");
    let workload = map.uniform_workload(160);

    group.bench_function("synthesize-Sorting_Center-160-cold", |b| {
        b.iter(|| {
            let mut scratch = LpScratch::new();
            criterion::black_box(synthesize_flow_with_scratch(
                &map.warehouse,
                &map.traffic,
                &workload,
                3_600,
                &FlowSynthesisOptions::default(),
                &mut scratch,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ilp);
criterion_main!(benches);
