use criterion::{criterion_group, criterion_main, Criterion};
use wsp_core::{solve, PipelineOptions, WspInstance};

/// End-to-end pipeline timing on the evaluation maps: traffic system →
/// contracts → flows → cycles → realized plan. This is the bench the
/// flat-graph refactor trajectory is tracked against (BENCH_baseline.json).
fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    // Only the sorting center runs the strict integer pipeline end to end
    // (the fulfillment centers' Table I workloads are benched through the
    // relaxed paper-mode synthesis in `table1.rs`; their integer solves
    // take minutes and are not a per-PR regression gate).
    let rows = [(wsp_maps::sorting_center().expect("sorting builds"), 160u64)];
    for (map, units) in rows {
        let name = map.name.replace(' ', "_");
        group.bench_function(format!("solve-{name}-{units}"), |b| {
            b.iter(|| {
                let workload = map.uniform_workload(units);
                let instance =
                    WspInstance::new(map.warehouse.clone(), map.traffic.clone(), workload, 3_600);
                criterion::black_box(solve(&instance, &PipelineOptions::default()))
            })
        });
    }
    group.finish();
}

/// The sorting center's map and its 160-unit cycle set.
fn sorting_center_160() -> (wsp_maps::MapInstance, wsp_flow::AgentCycleSet) {
    let map = wsp_maps::sorting_center().expect("sorting builds");
    let workload = map.uniform_workload(160);
    let flow = wsp_flow::synthesize_flow(
        &map.warehouse,
        &map.traffic,
        &workload,
        3_600,
        &wsp_flow::FlowSynthesisOptions::default(),
    )
    .expect("flow synthesizes");
    let cycles = flow.decompose().expect("decomposes");
    (map, cycles)
}

/// Realization alone (the per-timestep hot path) on the sorting center:
/// synthesize once, realize repeatedly over the full horizon.
fn bench_realize(c: &mut Criterion) {
    let mut group = c.benchmark_group("realize");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    let (map, cycles) = sorting_center_160();
    group.bench_function("sorting_center-160", |b| {
        b.iter(|| {
            criterion::black_box(wsp_realize::realize(
                &map.warehouse,
                &map.traffic,
                &cycles,
                None,
                600,
            ))
        })
    });
    group.finish();
}

/// Verification alone: `PlanChecker` over the plan `bench_realize`
/// realizes, reusing one `CheckScratch` as the staged pipeline does.
fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    let (map, cycles) = sorting_center_160();
    let plan = wsp_realize::realize(&map.warehouse, &map.traffic, &cycles, None, 600)
        .expect("realizes")
        .plan;
    let checker = wsp_model::PlanChecker::new(&map.warehouse);
    let mut scratch = wsp_model::CheckScratch::new();
    group.bench_function("sorting_center-160", |b| {
        b.iter(|| {
            criterion::black_box(
                checker.check_with_scratch(criterion::black_box(&plan), &mut scratch),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_realize, bench_verify);
criterion_main!(benches);
