//! The three §V evaluation instances: two fulfillment centers and the
//! sorting center, with inventories and uniform and Zipf workload helpers.
//!
//! All three use the [`SnakeLayout`](crate::SnakeLayout) designer (the
//! topology visible in the paper's Fig. 4); stations are spread across the
//! ring so agents can deliver several times per revolution (see the
//! throughput analysis atop `snake.rs`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wsp_model::{CellKind, Coord, Direction, GridMap, ProductCatalog, Warehouse, Workload};
use wsp_traffic::TrafficSystem;

use crate::snake::SnakeLayout;
use crate::variants::{build_sorting_center, SortingCenterParams};

/// Stock placed per (shelf cell, product) on fulfillment maps. The paper
/// reports no stock-outs on workloads of ≤ 1440 units, so stock is ample
/// and the §IV-D stock-rate bound `f_in ≤ UNITS_AT/q_c` stays slack.
const FULFILLMENT_UNITS_PER_SLOT: u64 = 100_000;

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

    /// A Zipf-skewed workload: `total_units` distributed over the catalog
    /// with popularity `∝ 1 / rank^exponent`, the product-to-rank
    /// assignment shuffled by `seed`. `exponent = 0` degenerates to (a
    /// permutation of) the uniform workload; real order streams are
    /// typically `0.5 ..= 1.5`.
    ///
    /// The result always sums to exactly `total_units` (rounding residue
    /// goes to the most popular ranks).
    pub fn zipf_workload(&self, total_units: u64, exponent: f64, seed: u64) -> Workload {
        let n = self.products as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        // Shuffle which product gets which popularity rank.
        let mut rank_to_product: Vec<usize> = (0..n).collect();
        rank_to_product.shuffle(&mut rng);

        let weights: Vec<f64> = (0..n)
            .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
            .collect();
        let total_weight: f64 = weights.iter().sum();

        let mut demands = vec![0u64; n];
        let mut assigned = 0u64;
        for (rank, &product) in rank_to_product.iter().enumerate() {
            let share = ((total_units as f64) * weights[rank] / total_weight).floor() as u64;
            demands[product] = share;
            assigned += share;
        }
        // Hand the rounding residue to the most popular ranks, one unit
        // each, so totals are exact.
        let mut residue = total_units - assigned;
        let mut rank = 0usize;
        while residue > 0 {
            demands[rank_to_product[rank % n]] += 1;
            residue -= 1;
            rank += 1;
        }
        Workload::from_demands(demands)
    }
}

/// Builds "Fulfillment 1": the real Kiva-style map of \[10\] — 560 shelves,
/// 4 station bays, 55 products, 47×24 = 1128 cells (paper: 1071).
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
/// Built by the [`sorting_center_variant`](crate::sorting_center_variant)
/// family's builder from [`SortingCenterParams::paper`], with the bins
/// where the paper map has them rather than at the family's rotated
/// slots.
///
/// # Errors
///
/// Propagates grid/traffic construction failures.
pub fn sorting_center() -> Result<MapInstance, Box<dyn std::error::Error>> {
    // Bins on the perimeter return, as in the paper's Fig. 5.
    build_sorting_center(
        &SortingCenterParams::paper(),
        &[(28, 10), (28, 4), (20, 0), (8, 0)],
        "Sorting Center",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::ProductId;

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
    fn zipf_workload_totals_are_exact() {
        let map = crate::scaled_warehouse(3, 10, 3, 1).unwrap();
        for total in [1u64, 37, 160, 999] {
            let w = map.zipf_workload(total, 1.0, 5);
            assert_eq!(w.total_units(), total);
            assert_eq!(w.len(), map.products as usize);
        }
    }

    #[test]
    fn zipf_workload_is_skewed_and_deterministic() {
        let map = sorting_center().unwrap();
        let w1 = map.zipf_workload(3_600, 1.0, 7);
        let w2 = map.zipf_workload(3_600, 1.0, 7);
        assert_eq!(w1.iter().collect::<Vec<_>>(), w2.iter().collect::<Vec<_>>());
        // The hottest product dominates the uniform share; the coldest is
        // well under it.
        let uniform_share = 3_600 / map.products as u64;
        let max = (0..map.products)
            .map(|k| w1.demand(ProductId(k)))
            .max()
            .unwrap();
        let min = (0..map.products)
            .map(|k| w1.demand(ProductId(k)))
            .min()
            .unwrap();
        assert!(max > 2 * uniform_share, "max {max} not skewed");
        assert!(min < uniform_share, "min {min} not skewed");
    }

    #[test]
    fn zipf_seed_changes_the_permutation() {
        let map = sorting_center().unwrap();
        let a = map.zipf_workload(1_000, 1.2, 1);
        let b = map.zipf_workload(1_000, 1.2, 2);
        assert_ne!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert_eq!(a.total_units(), b.total_units());
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
