//! Fulfillment-center scenario: the paper's Fig. 4 map at full scale.
//!
//! Regenerates the "Fulfillment 1" evaluation instance (560 shelves, 4
//! station bays, 55 products), renders the co-designed traffic system the
//! way Fig. 4 draws it, and runs flow synthesis in the paper's real-valued
//! solver configuration for the Table I workloads.
//!
//! Run with `cargo run --release --example fulfillment_center`.

use wsp_flow::{synthesize_flow_relaxed, FlowSynthesisOptions};
use wsp_traffic::{describe_traffic_system, render_traffic_system};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let map = wsp_maps::fulfillment_center_1()?;
    println!("{}", describe_traffic_system(&map.warehouse, &map.traffic));
    println!("{}\n", render_traffic_system(&map.warehouse, &map.traffic));

    for units in [550u64, 825, 1100] {
        let workload = map.uniform_workload(units);
        let options = FlowSynthesisOptions {
            skip_capacity: true, // the paper's configuration: no capacity bound
            ..FlowSynthesisOptions::default()
        };
        let t0 = std::time::Instant::now();
        let summary =
            synthesize_flow_relaxed(&map.warehouse, &map.traffic, &workload, 3_600, &options)?;
        println!(
            "{} units: min total flow {:.2} per period (q_c = {}) in {:.3}s",
            units,
            summary.objective,
            summary.periods,
            t0.elapsed().as_secs_f64()
        );
    }
    Ok(())
}
