//! The three §V evaluation instances: two fulfillment centers and the
//! sorting center, with inventories and uniform workload helpers.
//!
//! All three use the [`SnakeLayout`](crate::SnakeLayout) designer (the
//! topology visible in the paper's Fig. 4); stations are spread across the
//! ring so agents can deliver several times per revolution (see the
//! throughput analysis atop `snake.rs`).

use wsp_model::{
    CellKind, Coord, Direction, GridMap, ProductCatalog, ProductId, Warehouse, Workload,
};
use wsp_traffic::TrafficSystem;

use crate::snake::SnakeLayout;

/// Stock placed per (shelf cell, product) on fulfillment maps. The paper
/// reports no stock-outs on workloads of ≤ 1440 units, so stock is ample
/// and the §IV-D stock-rate bound `f_in ≤ UNITS_AT/q_c` stays slack.
const FULFILLMENT_UNITS_PER_SLOT: u64 = 100_000;

/// Stock per chute on the sorting map (the paper models chutes as shelves
/// holding "an arbitrary amount").
const SORTING_UNITS_PER_CHUTE: u64 = 1_000_000_000;

/// A generated evaluation map: warehouse + traffic system + the headline
/// statistics quoted with Table I.
#[derive(Debug, Clone)]
pub struct MapInstance {
    /// Short name used in benchmark output ("Sorting Center", …).
    pub name: &'static str,
    /// The warehouse (grid, graph, inventory).
    pub warehouse: Warehouse,
    /// The co-designed traffic system.
    pub traffic: TrafficSystem,
    /// Number of unique products stocked.
    pub products: u32,
    /// Number of logical station bays (the paper's "stations").
    pub station_bays: u32,
    /// Shelf (or chute) cells on the grid.
    pub shelves: usize,
}

impl MapInstance {
    /// A workload of `total_units` spread as evenly as possible over all
    /// products (the remainder goes to the lowest product ids), matching
    /// the Table I workload construction.
    pub fn uniform_workload(&self, total_units: u64) -> Workload {
        let n = self.products as u64;
        let base = total_units / n;
        let remainder = (total_units % n) as usize;
        let demands: Vec<u64> = (0..self.products as usize)
            .map(|k| base + u64::from(k < remainder))
            .collect();
        Workload::from_demands(demands)
    }
}

/// Builds "Fulfillment 1": the real Kiva-style map of \[10\] — 560 shelves,
/// 4 station bays, 55 products, 47×23 = 1081 cells (paper: 1071; the
/// extra cells are the larger station-queue zone Property 4.1 capacity
/// needs).
///
/// # Errors
///
/// Propagates grid/traffic construction failures (none occur for the fixed
/// parameters; the signature keeps the builder honest).
pub fn fulfillment_center_1() -> Result<MapInstance, Box<dyn std::error::Error>> {
    build_fulfillment(FulfillmentParams {
        name: "Fulfillment 1",
        width: 47,
        shelf_blocks: 7,
        target_shelves: 560,
        products: 55,
        station_bays: 4,
        station_cells: &[(46, 16), (46, 8), (30, 0), (12, 0)],
        height: 24,
        max_component_len: 65,
    })
}

/// Builds "Fulfillment 2": the synthetic map based on \[10\] — 240 shelves,
/// 1 station bay (two service cells spread along the ring, so an agent
/// can deliver more than once per revolution),
/// 120 products, 61×13 = 793 cells (paper-exact).
///
/// # Errors
///
/// Propagates grid/traffic construction failures.
pub fn fulfillment_center_2() -> Result<MapInstance, Box<dyn std::error::Error>> {
    build_fulfillment(FulfillmentParams {
        name: "Fulfillment 2",
        width: 61,
        shelf_blocks: 3,
        target_shelves: 240,
        products: 120,
        station_bays: 1,
        station_cells: &[(60, 6), (30, 0)],
        height: 13,
        max_component_len: 65,
    })
}

struct FulfillmentParams {
    name: &'static str,
    width: u32,
    /// Number of 2-row shelf blocks; aisles sit at `y = 3k`.
    shelf_blocks: u32,
    target_shelves: u32,
    products: u32,
    station_bays: u32,
    station_cells: &'static [(u32, u32)],
    height: u32,
    max_component_len: usize,
}

fn build_fulfillment(p: FulfillmentParams) -> Result<MapInstance, Box<dyn std::error::Error>> {
    // Aisles at y = 1, 4, 7, …; shelf-row pairs between them; the bottom
    // row and the rows above the top aisle belong to the perimeter return.
    let aisle_ys: Vec<u32> = (0..=p.shelf_blocks).map(|k| 3 * k + 1).collect();
    let shelf_ys: Vec<u32> = (0..p.shelf_blocks)
        .flat_map(|k| [3 * k + 2, 3 * k + 3])
        .collect();
    let layout = SnakeLayout {
        width: p.width,
        height: p.height,
        aisle_ys,
        max_component_len: p.max_component_len,
        orientation: wsp_traffic::RingOrientation::Forward,
    };

    let mut grid = GridMap::new(p.width, p.height)?;
    // Shelves span x = 3 .. width-4 (inside the aisle span and climb cols).
    let mut placed = 0u32;
    let mut shelf_cells: Vec<Coord> = Vec::new();
    for &y in &shelf_ys {
        for x in 3..=p.width - 4 {
            let at = Coord::new(x, y);
            if placed < p.target_shelves {
                grid.set(at, CellKind::Shelf)?;
                shelf_cells.push(at);
                placed += 1;
            } else {
                grid.set(at, CellKind::Obstacle)?;
            }
        }
    }
    for &(x, y) in p.station_cells {
        grid.set(Coord::new(x, y), CellKind::Station)?;
    }

    let mut warehouse =
        Warehouse::from_grid_with_access(&grid, &[Direction::North, Direction::South])?;
    warehouse.set_catalog(ProductCatalog::with_len(p.products as usize));
    crate::util::stock_round_robin(
        &mut warehouse,
        &shelf_cells,
        p.products,
        FULFILLMENT_UNITS_PER_SLOT,
    )?;

    let traffic = layout.build_traffic(&warehouse)?;
    Ok(MapInstance {
        name: p.name,
        shelves: warehouse.shelf_count(),
        warehouse,
        traffic,
        products: p.products,
        station_bays: p.station_bays,
    })
}

/// Builds the sorting center of \[11\]: 29×14 = 406 cells (paper-exact),
/// 36 chutes (matching Table I's 36 unique products; the §V prose says 32,
/// and this reproduction follows the table), 4 bins.
///
/// Chute `i` is modeled as a shelf holding an effectively unlimited stock
/// of product `ρ_i`; bins are the station bays (§V's reduction, with
/// pickup/drop-off roles swapped when reading the plan back).
///
/// # Errors
///
/// Propagates grid/traffic construction failures.
pub fn sorting_center() -> Result<MapInstance, Box<dyn std::error::Error>> {
    let width = 29u32;
    let height = 14u32; // top aisle at y = 11, perimeter top row at 13
    let layout = SnakeLayout {
        width,
        height,
        aisle_ys: vec![1, 3, 5, 7, 9, 11],
        max_component_len: 90,
        orientation: wsp_traffic::RingOrientation::Forward,
    };

    let mut grid = GridMap::new(width, height)?;
    let mut chute_cells: Vec<Coord> = Vec::new();
    let mut remaining = 36u32;
    for &y in &[2u32, 4, 6, 8, 10] {
        // Uniformly spaced chutes: x = 3, 6, …, 24.
        for x in (3..=width - 5).step_by(3) {
            if remaining == 0 {
                break;
            }
            let at = Coord::new(x, y);
            grid.set(at, CellKind::Shelf)?;
            chute_cells.push(at);
            remaining -= 1;
        }
    }
    // Bins on the perimeter return, as in the paper's Fig. 5.
    for &(x, y) in &[(28u32, 10u32), (28, 4), (20, 0), (8, 0)] {
        grid.set(Coord::new(x, y), CellKind::Station)?;
    }

    let mut warehouse =
        Warehouse::from_grid_with_access(&grid, &[Direction::North, Direction::South])?;
    warehouse.set_catalog(ProductCatalog::with_len(chute_cells.len()));
    for (i, &cell) in chute_cells.iter().enumerate() {
        let access = cell
            .step(Direction::South)
            .and_then(|c| warehouse.graph().vertex_at(c))
            .expect("chute has a southern aisle by construction");
        warehouse.stock(access, ProductId(i as u32), SORTING_UNITS_PER_CHUTE)?;
    }

    let traffic = layout.build_traffic(&warehouse)?;
    Ok(MapInstance {
        name: "Sorting Center",
        products: chute_cells.len() as u32,
        station_bays: 4,
        shelves: warehouse.shelf_count(),
        warehouse,
        traffic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorting_center_matches_paper_stats() {
        let map = sorting_center().unwrap();
        assert_eq!(map.warehouse.grid().cell_count(), 406); // paper-exact
        assert_eq!(map.shelves, 36);
        assert_eq!(map.products, 36);
        assert_eq!(map.station_bays, 4);
        assert!(map.traffic.is_strongly_connected());
    }

    #[test]
    fn fulfillment_1_matches_paper_stats() {
        let map = fulfillment_center_1().unwrap();
        assert_eq!(map.shelves, 560);
        assert_eq!(map.products, 55);
        assert_eq!(map.station_bays, 4);
        assert_eq!(map.warehouse.grid().cell_count(), 1128); // paper: 1071
        assert!(map.traffic.is_strongly_connected());
    }

    #[test]
    fn fulfillment_2_matches_paper_stats() {
        let map = fulfillment_center_2().unwrap();
        assert_eq!(map.shelves, 240);
        assert_eq!(map.products, 120);
        assert_eq!(map.station_bays, 1);
        assert_eq!(map.warehouse.grid().cell_count(), 793); // paper-exact
        assert!(map.traffic.is_strongly_connected());
    }

    #[test]
    fn uniform_workloads_hit_totals() {
        let map = sorting_center().unwrap();
        for total in [160u64, 320, 480] {
            let w = map.uniform_workload(total);
            assert_eq!(w.total_units(), total);
            assert_eq!(w.demanded_products(), 36);
        }
    }

    #[test]
    fn every_product_is_stocked() {
        for map in [
            sorting_center().unwrap(),
            fulfillment_center_1().unwrap(),
            fulfillment_center_2().unwrap(),
        ] {
            for k in 0..map.products {
                assert!(
                    map.warehouse.location_matrix().total_units(ProductId(k)) > 0,
                    "{}: product {k} unstocked",
                    map.name
                );
            }
        }
    }

    #[test]
    fn stations_live_on_access_free_components() {
        for map in [
            sorting_center().unwrap(),
            fulfillment_center_1().unwrap(),
            fulfillment_center_2().unwrap(),
        ] {
            for q in map.traffic.station_queues() {
                for &v in map.traffic.component(q).path() {
                    assert!(!map.warehouse.is_shelf_access(v), "{}: mixed", map.name);
                }
            }
        }
    }

    #[test]
    fn renders_like_figure_4_and_5() {
        let map = sorting_center().unwrap();
        let art = wsp_traffic::render_traffic_system(&map.warehouse, &map.traffic);
        assert!(art.contains('!'));
        assert!(art.contains('#'));
        assert_eq!(art.lines().count(), 14);
    }
}
