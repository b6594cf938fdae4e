//! Standalone harness behind `BENCH_explore.json`: measures the design
//! explorer's batch throughput (candidates/sec) on the default 20-candidate
//! sorting-center sweep at 1, 2, 4, and all available worker threads, and
//! cross-checks the determinism invariant (byte-identical `to_json`
//! renderings at every thread count). Prints the JSON body to stdout:
//!
//! ```text
//! cargo run --release -p wsp-bench --bin explore > BENCH_explore.json
//! ```

use std::time::Instant;

use wsp_explore::{evaluate_batch, sorting_center_sweep, ExploreOptions};

/// Timed batches per thread point, taken after every point's warm-up.
const SAMPLES: usize = 15;

fn main() {
    let candidates = sorting_center_sweep();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut points = vec![1usize, 2, 4];
    if !points.contains(&cores) {
        points.push(cores);
    }
    let options: Vec<ExploreOptions> = points
        .iter()
        .map(|&threads| ExploreOptions {
            threads: Some(threads),
            ..ExploreOptions::default()
        })
        .collect();

    // One warm-up batch per point (also the determinism probe) before any
    // point is timed, so no point pays for a cold start.
    let probes: Vec<_> = options
        .iter()
        .map(|o| evaluate_batch(&candidates, o))
        .collect();
    let renderings: Vec<String> = probes.iter().map(|p| p.to_json()).collect();
    // Timed batches, round-robin over the points so drift spreads evenly.
    let mut secs: Vec<Vec<f64>> = vec![Vec::with_capacity(SAMPLES); points.len()];
    for _ in 0..SAMPLES {
        for (o, samples) in options.iter().zip(&mut secs) {
            let t0 = Instant::now();
            std::hint::black_box(evaluate_batch(&candidates, o));
            samples.push(t0.elapsed().as_secs_f64());
        }
    }

    let mut rows: Vec<(usize, f64, f64, f64, usize, usize)> = Vec::new();
    for ((&threads, probe), samples) in points.iter().zip(&probes).zip(&mut secs) {
        samples.sort_by(f64::total_cmp);
        let median = samples[SAMPLES / 2];
        rows.push((
            threads,
            median,
            samples[0],
            candidates.len() as f64 / median,
            probe.front.len(),
            probe
                .reports
                .iter()
                .filter(|r| r.outcome.eval().is_some())
                .count(),
        ));
    }
    let deterministic = renderings.windows(2).all(|w| w[0] == w[1]);
    let per_sec_at = |t: usize| rows.iter().find(|r| r.0 == t).map(|r| r.3);
    let speedup_4t = match (per_sec_at(4), per_sec_at(1)) {
        (Some(four), Some(one)) if one > 0.0 => four / one,
        _ => f64::NAN,
    };

    println!("{{");
    println!(
        "  \"note\": \"Design-explorer throughput on the default 20-candidate sorting-center sweep (160 units, T=3600). Every thread point runs one warm-up batch before any point is timed, then {SAMPLES} timed batches per point, round-robin over the points; batch_seconds_median and batch_seconds_min summarize them and candidates_per_sec = 20 / batch_seconds_median. 'deterministic' asserts byte-identical to_json renderings (outcomes + Pareto front) across every thread count. Thread scaling is hardware-bound: points above available_cores share its cores, so on a 2-core host the 4-thread point measures the 2-thread work plus scheduling overhead, and speedup_4t_vs_1t tops out near 2; the >= 3x target at 4 threads needs >= 4 physical cores (candidates are independent, so scaling is embarrassingly parallel). Regenerate with: cargo run --release -p wsp-bench --bin explore > BENCH_explore.json. Schema: docs/BENCHMARKS.md.\","
    );
    println!("  \"available_cores\": {cores},");
    println!("  \"sweep_candidates\": {},", candidates.len());
    println!("  \"samples_per_point\": {SAMPLES},");
    println!("  \"deterministic_across_thread_counts\": {deterministic},");
    println!("  \"speedup_4t_vs_1t\": {speedup_4t:.2},");
    println!("  \"runs\": [");
    for (i, (threads, median, min, cps, front, solved)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        println!(
            "    {{ \"threads\": {threads}, \"batch_seconds_median\": {median:.4}, \"batch_seconds_min\": {min:.4}, \"candidates_per_sec\": {cps:.2}, \"front_size\": {front}, \"solved\": {solved} }}{comma}"
        );
    }
    println!("  ]");
    println!("}}");

    assert!(deterministic, "thread counts disagreed — determinism bug");
}
