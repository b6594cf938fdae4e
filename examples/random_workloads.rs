//! Randomized-scenario demo: a seeded block warehouse and a Zipf-skewed
//! workload, solved end to end.
//!
//! Run with `cargo run --release --example random_workloads [seed]`.

use wsp_core::{solve, PipelineOptions, WspInstance};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(42);

    let map = wsp_maps::scaled_warehouse(3, 12, 3, seed)?;
    println!(
        "seed {seed}: {}x{} grid, {} shelves, {} stations, {} products",
        map.warehouse.grid().width(),
        map.warehouse.grid().height(),
        map.shelves,
        map.station_bays,
        map.products,
    );
    println!(
        "traffic: {} components, cycle time {}",
        map.traffic.component_count(),
        map.traffic.cycle_time()
    );

    // A skewed order stream: 20% of products take most of the volume.
    let workload = map.zipf_workload(120, 1.0, seed);
    let hottest = workload
        .iter()
        .max_by_key(|&(_, units)| units)
        .expect("non-empty workload");
    println!(
        "zipf workload: {} units over {} products, hottest {} x{}",
        workload.total_units(),
        workload.demanded_products(),
        hottest.0,
        hottest.1,
    );

    let instance = WspInstance::new(map.warehouse, map.traffic, workload, 3_600);
    let report = solve(&instance, &PipelineOptions::default())?;
    println!("{}", report.summary());
    Ok(())
}
