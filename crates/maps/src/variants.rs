//! Parameterized sorting-center topology variants — the candidate family
//! `wsp-explore` sweeps.
//!
//! [`sorting_center`](crate::sorting_center) reproduces the paper's one
//! fixed design through this module's builder, with the paper map's own
//! bins; [`sorting_center_variant`] generalizes it along the
//! co-design knobs the paper treats as free choices: the aisle pitch
//! (vertical distance between one-way aisles), the chute field shape
//! (rows × columns and horizontal spacing), the ring's travel
//! [`RingOrientation`], the number and placement of station bays on the
//! perimeter return, and the lane-chop granularity (which sets the cycle
//! time `t_c = 2m`). Every variant satisfies the §IV-A composition rules
//! by construction, so each one is a valid input to the full pipeline —
//! and the family is entirely deterministic: the same parameters always
//! produce the byte-identical instance, which is what lets the parallel
//! explorer promise thread-count-independent results.

use wsp_model::{CellKind, Coord, Direction, GridMap, ProductCatalog, ProductId, Warehouse};
use wsp_traffic::RingOrientation;

use crate::{MapInstance, SnakeLayout};

/// Stock per chute (the paper models chutes as holding "an arbitrary
/// amount").
const UNITS_PER_CHUTE: u64 = 1_000_000_000;

/// The co-design knobs of a sorting-center variant.
///
/// [`SortingCenterParams::paper`] is the starting point; the explorer
/// perturbs fields from there. [`validate`](SortingCenterParams::validate)
/// spells out the legal ranges.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortingCenterParams {
    /// Number of chute rows (one per shelf block). Must be odd — the
    /// snake's perimeter return needs an even aisle count, and a variant
    /// has `chute_rows + 1` aisles. The paper's design has 5.
    pub chute_rows: u32,
    /// Chutes per row (the paper's design has 8).
    pub chute_cols: u32,
    /// Horizontal spacing between chutes in cells, `2..=4` (paper: 3).
    /// Sets the grid width: `3 + (chute_cols - 1) · chute_step + 5`.
    pub chute_step: u32,
    /// Vertical distance between consecutive one-way aisles, `2..=4`
    /// (paper: 2). With pitch > 2 the extra block rows are solid storage
    /// (obstacles) and every chute keeps only its southern aisle access.
    pub aisle_pitch: u32,
    /// Number of station bays placed on the perimeter return, `1..=8`
    /// (paper: 4).
    pub stations: u32,
    /// Rotates the evenly spaced station placement along the perimeter
    /// slot list; any value is legal (taken modulo the slot count).
    pub station_offset: u32,
    /// Caps how many chutes are stocked/placed (the paper places 36 of the
    /// 40 uniform positions its grid admits). Placement stops once the cap
    /// is reached, scanning rows bottom to top.
    pub max_products: u32,
    /// Maximum component length for the ring chop (the lane-design
    /// granularity knob; the longest component sets `t_c = 2m`).
    pub max_component_len: usize,
    /// Travel direction of the snake ring.
    pub orientation: RingOrientation,
}

impl SortingCenterParams {
    /// The paper's sorting-center geometry expressed in this family
    /// (29-wide, 5×8 chutes, pitch 2, 4 stations, forward ring).
    ///
    /// Only the bins differ from [`sorting_center`](crate::sorting_center):
    /// [`sorting_center_variant`] puts these four at the family's evenly
    /// rotated perimeter slots `(28,11), (28,3), (19,0), (10,0)`, not at
    /// the paper map's `(28,10), (28,4), (20,0), (8,0)`.
    pub fn paper() -> Self {
        SortingCenterParams {
            chute_rows: 5,
            chute_cols: 8,
            chute_step: 3,
            aisle_pitch: 2,
            stations: 4,
            station_offset: 0,
            max_products: 36,
            max_component_len: 90,
            orientation: RingOrientation::Forward,
        }
    }

    /// Grid width implied by the chute field.
    pub fn width(&self) -> u32 {
        3 + (self.chute_cols - 1) * self.chute_step + 5
    }

    /// Grid height implied by the aisle ladder (top aisle + 3, like the
    /// paper map).
    pub fn height(&self) -> u32 {
        self.top_aisle_y() + 3
    }

    /// The aisle rows, ascending: `1, 1 + pitch, …`.
    pub fn aisle_ys(&self) -> Vec<u32> {
        (0..=self.chute_rows)
            .map(|k| 1 + k * self.aisle_pitch)
            .collect()
    }

    fn top_aisle_y(&self) -> u32 {
        1 + self.chute_rows * self.aisle_pitch
    }

    /// A short deterministic label for reports and benchmark output.
    pub fn label(&self) -> String {
        format!(
            "rows{}x{} p{} step{} pitch{} st{}+{} len{} {}",
            self.chute_rows,
            self.chute_cols,
            self.max_products,
            self.chute_step,
            self.aisle_pitch,
            self.stations,
            self.station_offset,
            self.max_component_len,
            match self.orientation {
                RingOrientation::Forward => "fwd",
                RingOrientation::Reversed => "rev",
            }
        )
    }

    /// Checks the knobs are inside the family's legal ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated range.
    pub fn validate(&self) -> Result<(), String> {
        if self.chute_rows == 0 || self.chute_rows % 2 == 0 {
            return Err(format!(
                "chute_rows must be odd and positive (got {}): the snake needs an even aisle count",
                self.chute_rows
            ));
        }
        if self.chute_cols < 2 {
            return Err(format!(
                "chute_cols must be at least 2 (got {})",
                self.chute_cols
            ));
        }
        if !(2..=4).contains(&self.chute_step) {
            return Err(format!(
                "chute_step must be in 2..=4 (got {})",
                self.chute_step
            ));
        }
        if !(2..=4).contains(&self.aisle_pitch) {
            return Err(format!(
                "aisle_pitch must be in 2..=4 (got {})",
                self.aisle_pitch
            ));
        }
        if !(1..=8).contains(&self.stations) {
            return Err(format!("stations must be in 1..=8 (got {})", self.stations));
        }
        if self.max_products == 0 {
            return Err("max_products must be positive".to_string());
        }
        if self.max_component_len < 4 {
            return Err(format!(
                "max_component_len must be at least 4 (got {})",
                self.max_component_len
            ));
        }
        Ok(())
    }

    /// The perimeter cells eligible to host station bays, in a fixed
    /// deterministic order (down the right column, then west along the
    /// bottom row), corners excluded: the stretch of the perimeter return
    /// where the paper's Fig. 5 puts its bins.
    fn station_slots(&self) -> Vec<(u32, u32)> {
        let (w, h) = (self.width(), self.height());
        let mut slots: Vec<(u32, u32)> = Vec::new();
        slots.extend((2..h - 2).rev().map(|y| (w - 1, y)));
        slots.extend((2..w - 2).rev().map(|x| (x, 0)));
        slots
    }
}

/// Builds a sorting-center variant: the chute grid, the inventory (chute
/// `i` stocks product `ρ_i`), the station bays, and the validated snake
/// traffic system.
///
/// # Errors
///
/// Returns the parameter-range violation from
/// [`SortingCenterParams::validate`], or propagates grid/traffic
/// construction failures (which indicate a builder bug, not a bad knob
/// setting — every in-range variant composes validly).
pub fn sorting_center_variant(
    params: &SortingCenterParams,
) -> Result<MapInstance, Box<dyn std::error::Error>> {
    params.validate()?;
    // Station bays, evenly rotated over the perimeter slots.
    let slots = params.station_slots();
    let n = params.stations as usize;
    let offset = params.station_offset as usize % slots.len();
    let stations: Vec<(u32, u32)> = (0..n)
        .map(|i| slots[(offset + i * slots.len() / n) % slots.len()])
        .collect();
    build_sorting_center(params, &stations, "Sorting Variant")
}

/// Builds the sorting center `params` describes with its station bays at
/// `stations`: the one builder behind both
/// [`sorting_center`](crate::sorting_center) and
/// [`sorting_center_variant`]. `params` must already be validated.
pub(crate) fn build_sorting_center(
    params: &SortingCenterParams,
    stations: &[(u32, u32)],
    name: &'static str,
) -> Result<MapInstance, Box<dyn std::error::Error>> {
    let (width, height) = (params.width(), params.height());
    let aisle_ys = params.aisle_ys();
    let layout = SnakeLayout {
        width,
        height,
        aisle_ys: aisle_ys.clone(),
        max_component_len: params.max_component_len,
        orientation: params.orientation,
    };

    let mut grid = GridMap::new(width, height)?;
    // Chute rows sit directly above each aisle except the top one; any
    // deeper block rows (pitch > 2) are solid storage.
    let mut chute_cells: Vec<Coord> = Vec::new();
    for k in 0..params.chute_rows {
        let below = aisle_ys[k as usize];
        let above = aisle_ys[k as usize + 1];
        for y in below + 1..above {
            if y == below + 1 {
                // The chute row: uniformly spaced chutes, walkable floor
                // between them (as on the paper map), capped at
                // `max_products`.
                for x in (3..)
                    .step_by(params.chute_step as usize)
                    .take_while(|&x| x <= width - 5)
                {
                    if (chute_cells.len() as u32) < params.max_products {
                        let at = Coord::new(x, y);
                        grid.set(at, CellKind::Shelf)?;
                        chute_cells.push(at);
                    }
                }
            } else {
                // Deeper block rows (pitch > 2) are solid storage across
                // the whole shelf span — no free-floor corridors.
                for x in 3..=width - 5 {
                    grid.set(Coord::new(x, y), CellKind::Obstacle)?;
                }
            }
        }
    }
    for &(x, y) in stations {
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
        warehouse.stock(access, ProductId(i as u32), UNITS_PER_CHUTE)?;
    }

    let traffic = layout.build_traffic(&warehouse)?;
    Ok(MapInstance {
        name,
        products: chute_cells.len() as u32,
        station_bays: stations.len() as u32,
        shelves: warehouse.shelf_count(),
        warehouse,
        traffic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_reproduce_the_paper_footprint() {
        let p = SortingCenterParams::paper();
        assert_eq!(p.width(), 29);
        assert_eq!(p.height(), 14);
        assert_eq!(p.aisle_ys(), vec![1, 3, 5, 7, 9, 11]);
        let map = sorting_center_variant(&p).unwrap();
        assert_eq!(map.warehouse.grid().cell_count(), 406);
        assert_eq!(map.products, 36); // the paper's chute count
        assert!(map.traffic.is_strongly_connected());
        // Identical component structure to the hand-built paper map.
        let paper = crate::sorting_center().unwrap();
        assert_eq!(
            map.traffic.component_count(),
            paper.traffic.component_count()
        );
        assert_eq!(map.traffic.cycle_time(), paper.traffic.cycle_time());
    }

    #[test]
    fn paper_params_differ_from_the_paper_map_only_in_the_bins() {
        let variant = sorting_center_variant(&SortingCenterParams::paper()).unwrap();
        let paper = crate::sorting_center().unwrap();
        let (a, b) = (variant.warehouse.grid(), paper.warehouse.grid());
        let mut differing: Vec<(u32, u32)> = Vec::new();
        for y in 0..a.height() {
            for x in 0..a.width() {
                let at = Coord::new(x, y);
                if a.get(at) != b.get(at) {
                    differing.push((x, y));
                }
            }
        }
        differing.sort_unstable();
        // The family's slots (28,11), (28,3), (19,0), (10,0) and the paper
        // map's bins (28,10), (28,4), (20,0), (8,0), in sorted order.
        let bins = [
            (8, 0),
            (10, 0),
            (19, 0),
            (20, 0),
            (28, 3),
            (28, 4),
            (28, 10),
            (28, 11),
        ];
        assert_eq!(differing, bins);
    }

    #[test]
    fn every_in_range_knob_combination_validates() {
        for chute_rows in [3u32, 5] {
            for aisle_pitch in [2u32, 3] {
                for stations in [1u32, 3, 6] {
                    for orientation in [RingOrientation::Forward, RingOrientation::Reversed] {
                        let p = SortingCenterParams {
                            chute_rows,
                            aisle_pitch,
                            stations,
                            orientation,
                            chute_cols: 6,
                            chute_step: 3,
                            station_offset: stations, // arbitrary rotation
                            max_products: 36,
                            max_component_len: 40,
                        };
                        let map = sorting_center_variant(&p)
                            .unwrap_or_else(|e| panic!("{}: {e}", p.label()));
                        assert!(map.traffic.is_strongly_connected(), "{}", p.label());
                        assert!(map.traffic.station_queues().count() >= 1, "{}", p.label());
                        assert_eq!(
                            map.products,
                            (chute_rows * 6).min(p.max_products),
                            "{}",
                            p.label()
                        );
                        for k in 0..map.products {
                            assert!(
                                map.warehouse.location_matrix().total_units(ProductId(k)) > 0,
                                "{}: product {k} unstocked",
                                p.label()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn variants_are_deterministic_in_their_parameters() {
        let p = SortingCenterParams {
            station_offset: 7,
            orientation: RingOrientation::Reversed,
            ..SortingCenterParams::paper()
        };
        let a = sorting_center_variant(&p).unwrap();
        let b = sorting_center_variant(&p).unwrap();
        assert_eq!(a.warehouse.grid().to_ascii(), b.warehouse.grid().to_ascii());
        assert_eq!(a.products, b.products);
    }

    #[test]
    fn out_of_range_knobs_are_rejected() {
        let even_rows = SortingCenterParams {
            chute_rows: 4,
            ..SortingCenterParams::paper()
        };
        assert!(sorting_center_variant(&even_rows).is_err());
        let wild_pitch = SortingCenterParams {
            aisle_pitch: 9,
            ..SortingCenterParams::paper()
        };
        assert!(wild_pitch.validate().is_err());
        let no_stations = SortingCenterParams {
            stations: 0,
            ..SortingCenterParams::paper()
        };
        assert!(no_stations.validate().is_err());
    }

    #[test]
    fn deep_pitch_keeps_only_southern_chute_access() {
        let p = SortingCenterParams {
            aisle_pitch: 3,
            ..SortingCenterParams::paper()
        };
        let map = sorting_center_variant(&p).unwrap();
        // Block interior rows contribute no vertices anywhere in the
        // shelf span — chute columns and the cells between them alike
        // (solid storage, no free-floor corridors).
        let grid = map.warehouse.grid();
        for x in 3..=grid.width() - 5 {
            assert!(
                map.warehouse.graph().vertex_at(Coord::new(x, 3)).is_none(),
                "interior cell ({x}, 3) is walkable"
            );
        }
        assert!(grid.cell_count() > 406); // taller map than the paper's
        assert!(map.traffic.is_strongly_connected());
    }
}
