//! Randomized scenario generation: parameterized block warehouses from a
//! few hundred to ~200k vertices, for stress-testing the pipeline beyond
//! the paper's three evaluation maps and exercising the MAPF/realize stack
//! at production scale.
//!
//! [`scaled_warehouse`] is a seeded block warehouse on two axes: the
//! shelf field grows with `rows × cols`, and `aisle_pitch` controls the
//! vertical distance between one-way aisles — pitch 3 reproduces the
//! paper's two-row Kiva blocks, larger pitches produce deep blocks whose
//! interior rows are solid storage (modeled as obstacles, since only
//! aisle-adjacent rows are reachable). The vertex count scales as
//! ~`rows × cols`, so `scaled_warehouse(101, 1000, 3, s)` is a ~105k-vertex
//! instance. The generator is deterministic in its `seed`, so a scenario
//! can be named in bug reports and benchmarks ("3×12 pitch 3 seed 7").
//! Pair with
//! [`MapInstance::zipf_workload`](crate::MapInstance::zipf_workload) for
//! skewed order streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsp_model::{CellKind, Coord, Direction, GridMap, ModelError, ProductCatalog, Warehouse};

use crate::util::stock_round_robin;
use crate::{MapInstance, SnakeLayout};

/// Stock placed per (shelf cell, product); ample, as on the paper maps.
const UNITS_PER_SLOT: u64 = 100_000;

/// Builds a seed-deterministic warehouse of roughly `rows × cols` vertices:
/// `rows` shelf blocks separated by one-way aisles every `aisle_pitch`
/// grid rows, `cols` shelf columns per row, with seed-dependent shelf
/// thinning, station placement, and product count — co-designed with a
/// snake traffic system exactly like the paper maps.
///
/// `rows` is rounded up to odd (the snake's perimeter return needs an even
/// aisle count) and clamped to at least 1; `cols` is clamped to at least 4;
/// `aisle_pitch` is clamped to `2..=9`. With pitch ≥ 4 each block keeps
/// only its two aisle-adjacent shelf rows reachable; the interior rows
/// become solid storage (obstacles).
///
/// The station count and product catalog scale with the shelf field, so
/// workloads built with
/// [`MapInstance::uniform_workload`](crate::MapInstance::uniform_workload)
/// or [`MapInstance::zipf_workload`](crate::MapInstance::zipf_workload)
/// stay meaningful at every size.
///
/// # Errors
///
/// Propagates grid or traffic construction failures (the generated layouts
/// satisfy the §IV-A composition rules by construction, so failures
/// indicate a bug rather than an unlucky seed).
///
/// # Examples
///
/// ```
/// use wsp_maps::scaled_warehouse;
///
/// // A small member of the family; grow rows/cols for 10k-200k vertices.
/// let map = scaled_warehouse(5, 40, 4, 7)?;
/// assert!(map.traffic.is_strongly_connected());
/// assert!(map.warehouse.graph().vertex_count() > 5 * 40);
/// let workload = map.zipf_workload(500, 1.0, 7);
/// assert_eq!(workload.total_units(), 500);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn scaled_warehouse(
    rows: u32,
    cols: u32,
    aisle_pitch: u32,
    seed: u64,
) -> Result<MapInstance, Box<dyn std::error::Error>> {
    let rows = rows.max(1) | 1; // odd => even aisle count for the snake
    let cols = cols.max(4);
    let pitch = aisle_pitch.clamp(2, 9);
    let width = cols + 6; // shelves span x = 3 ..= width - 4
    let height = pitch * rows + 3;
    let mut rng = StdRng::seed_from_u64(seed);

    let aisle_ys: Vec<u32> = (0..=rows).map(|k| pitch * k + 1).collect();
    let mut layout = SnakeLayout {
        width,
        height,
        aisle_ys: aisle_ys.clone(),
        max_component_len: 65,
        orientation: wsp_traffic::RingOrientation::Forward,
    };
    // Chop the ring into ~4 components: capacity ⌊len/2⌋ must admit one
    // loaded flow per demanded product (integer per-period rates), while
    // the cycle time t_c = 2·max_len still has to leave enough periods in
    // the horizon — ring/4 balances both on small maps; 65 matches the
    // paper maps once rings grow past ~260 cells.
    layout.max_component_len = (layout.ring_cells().len() / 4).clamp(12, 65);

    let mut grid = GridMap::new(width, height)?;
    // Shelf field: in every block, the aisle-adjacent rows hold thinned
    // shelves (~7/8 kept); interior rows (pitch >= 4) are solid storage.
    let mut shelf_cells: Vec<Coord> = Vec::new();
    for k in 0..rows {
        let below = aisle_ys[k as usize];
        let above = aisle_ys[k as usize + 1];
        for y in below + 1..above {
            let reachable = y == below + 1 || y == above - 1;
            for x in 3..=width - 4 {
                let at = Coord::new(x, y);
                if reachable && rng.gen_range(0..8) < 7 {
                    grid.set(at, CellKind::Shelf)?;
                    shelf_cells.push(at);
                } else {
                    grid.set(at, CellKind::Obstacle)?;
                }
            }
        }
    }

    // Stations on the perimeter return, their count scaling with the
    // shelf field.
    let n_stations = (2 + shelf_cells.len() / 2_000).clamp(2, 16);
    place_perimeter_stations(&mut grid, &mut rng, n_stations)?;

    let mut warehouse =
        Warehouse::from_grid_with_access(&grid, &[Direction::North, Direction::South])?;
    // Integer flow synthesis needs >= 1 delivery/period per demanded
    // product, so the catalog must stay small relative to the ring's agent
    // capacity: scale it with the shelf field instead of the paper maps'
    // 36-120 products.
    let max_products = (shelf_cells.len() as u64 / 8).clamp(4, 64);
    let products = rng.gen_range(4..max_products + 1) as u32;
    warehouse.set_catalog(ProductCatalog::with_len(products as usize));
    stock_round_robin(&mut warehouse, &shelf_cells, products, UNITS_PER_SLOT)?;

    let traffic = layout.build_traffic(&warehouse)?;
    Ok(MapInstance {
        name: "Scaled Warehouse",
        shelves: warehouse.shelf_count(),
        warehouse,
        traffic,
        products,
        station_bays: n_stations as u32,
    })
}

/// Places `n_stations` distinct station cells on the perimeter return —
/// right column and bottom row, which the snake covers with
/// shelf-access-free components — drawing positions from `rng` until the
/// count is met.
fn place_perimeter_stations(
    grid: &mut GridMap,
    rng: &mut StdRng,
    n_stations: usize,
) -> Result<(), ModelError> {
    let (width, height) = (grid.width(), grid.height());
    let mut station_cells: Vec<Coord> = Vec::new();
    while station_cells.len() < n_stations {
        let at = if rng.gen_range(0..2) == 0 {
            Coord::new(width - 1, rng.gen_range(2..height as u64 - 2) as u32)
        } else {
            Coord::new(rng.gen_range(3..width as u64 - 3) as u32, 0)
        };
        if !station_cells.contains(&at) {
            station_cells.push(at);
            grid.set(at, CellKind::Station)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::ProductId;

    #[test]
    fn pitch_three_matches_block_structure_and_validates() {
        for seed in 0..3u64 {
            let map = scaled_warehouse(3, 12, 3, seed).expect("builds");
            assert!(map.traffic.is_strongly_connected(), "seed {seed}");
            assert!(map.shelves > 0);
            assert!(map.traffic.station_queues().count() >= 1);
            for k in 0..map.products {
                assert!(
                    map.warehouse.location_matrix().total_units(ProductId(k)) > 0,
                    "seed {seed}: product {k} unstocked"
                );
            }
        }
    }

    #[test]
    fn deep_blocks_keep_only_aisle_adjacent_shelves() {
        let map = scaled_warehouse(3, 16, 6, 1).expect("builds");
        assert!(map.traffic.is_strongly_connected());
        // Interior block rows contribute no vertices: the graph must stay
        // connected around them, and every shelf is stockable.
        assert!(map.shelves > 0);
        // With pitch 6, each block holds 5 interior rows but only 2 shelf
        // rows; the 3 middle rows are obstacles.
        let grid = map.warehouse.grid();
        let interior_y = 1 + 3; // aisle at y=1, shelves at 2 and 6
        for x in 3..=grid.width() - 4 {
            assert!(map
                .warehouse
                .graph()
                .vertex_at(Coord::new(x, interior_y))
                .is_none());
        }
    }

    #[test]
    fn rows_normalized_to_snake_compatible_values() {
        // Even `rows` is rounded up; the traffic must still validate.
        let map = scaled_warehouse(2, 6, 3, 3).expect("builds");
        assert_eq!(map.warehouse.grid().height(), 3 * 3 + 3);
        assert!(map.traffic.is_strongly_connected());
    }

    #[test]
    fn deterministic_in_the_seed() {
        let a = scaled_warehouse(3, 10, 4, 9).unwrap();
        let b = scaled_warehouse(3, 10, 4, 9).unwrap();
        assert_eq!(a.warehouse.grid().to_ascii(), b.warehouse.grid().to_ascii());
        assert_eq!(a.products, b.products);
        assert_eq!(a.station_bays, b.station_bays);
    }

    #[test]
    fn vertex_count_scales_with_rows_times_cols() {
        let small = scaled_warehouse(5, 40, 3, 2).unwrap();
        let large = scaled_warehouse(11, 160, 3, 2).unwrap();
        let (s, l) = (
            small.warehouse.graph().vertex_count(),
            large.warehouse.graph().vertex_count(),
        );
        // ~rows*cols each: 200 -> 1760 expected ratio ~8.
        assert!(l > 5 * s, "small {s}, large {l}");
    }

    #[test]
    fn ten_thousand_vertex_instance_builds_and_validates() {
        let map = scaled_warehouse(31, 320, 3, 5).expect("builds");
        let n = map.warehouse.graph().vertex_count();
        assert!(n >= 10_000, "only {n} vertices");
        assert!(map.traffic.is_strongly_connected());
        assert!(map.warehouse.graph().is_connected());
        assert!((2..=16).contains(&(map.station_bays as usize)));
    }
}
