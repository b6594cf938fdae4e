//! The *snake* topology designer: one boustrophedon ring through every
//! aisle, chopped into near-uniform components — the layout visible in the
//! paper's Fig. 4.
//!
//! Throughput analysis: under Property 4.1 a component of length `ℓ`
//! admits `⌊ℓ/2⌋` agents per cycle period `t_c = 2m`, so a chain's
//! steady-state throughput is `min ℓ / (4m)` agents per timestep —
//! maximized when all components share one length (`ℓ = m` → 1/4 per
//! step). The snake makes every component the same length, and spreading
//! the station cells across different components lets one agent deliver
//! several times per revolution, multiplying deliverable units per period
//! beyond the single-station bound.

use wsp_model::{Coord, VertexId, Warehouse};
use wsp_traffic::{
    chop_balanced, ComponentId, RingOrientation, TrafficError, TrafficSystem, TrafficSystemBuilder,
};

/// Geometry of a snake-designed warehouse.
#[derive(Debug, Clone)]
pub struct SnakeLayout {
    /// Total grid width.
    pub width: u32,
    /// Total grid height.
    pub height: u32,
    /// Aisle rows (ascending). Rows between consecutive aisles hold
    /// shelves; the ring traverses aisles alternately east/west.
    pub aisle_ys: Vec<u32>,
    /// Maximum (and target) component length; the chopper balances pieces.
    pub max_component_len: usize,
    /// Travel direction of the ring (a co-design knob; [`Forward`] is the
    /// paper's Fig. 4 direction).
    ///
    /// [`Forward`]: RingOrientation::Forward
    pub orientation: RingOrientation,
}

impl SnakeLayout {
    /// West end of every aisle.
    pub fn aisle_lo(&self) -> u32 {
        2
    }

    /// East end of every aisle.
    pub fn aisle_hi(&self) -> u32 {
        self.width - 3
    }

    /// The full ring, in travel order, plus the index where the
    /// perimeter-return section starts. The ring snakes east/west through
    /// every aisle (climbing at alternating sides), then returns around the
    /// full map perimeter — the stretch that hosts the station bays, since
    /// perimeter cells are never shelf-adjacent (no MixedKind conflicts).
    ///
    /// # Panics
    ///
    /// Panics on fewer than two aisles, an odd aisle count, or a first
    /// aisle at `y = 0` (the perimeter needs the bottom row).
    pub fn ring_sections(&self) -> (Vec<(u32, u32)>, usize) {
        let n = self.aisle_ys.len();
        assert!(n >= 2, "snake needs at least two aisles");
        assert!(
            n % 2 == 0,
            "snake perimeter return needs an even aisle count"
        );
        let a_first = self.aisle_ys[0];
        assert!(a_first >= 1, "first aisle must leave the bottom row free");
        let (lo, hi) = (self.aisle_lo(), self.aisle_hi());
        let (w, h) = (self.width, self.height);
        let mut cells: Vec<(u32, u32)> = Vec::new();

        for (i, &a) in self.aisle_ys.iter().enumerate() {
            let eastbound = i % 2 == 0;
            if eastbound {
                cells.extend((lo..=hi).map(|x| (x, a)));
            } else {
                cells.extend((lo..=hi).rev().map(|x| (x, a)));
            }
            if let Some(&next) = self.aisle_ys.get(i + 1) {
                let col = if eastbound { hi + 1 } else { lo - 1 };
                cells.extend((a..=next).map(|y| (col, y)));
            }
        }
        let perimeter_start = cells.len();

        // Perimeter return (last aisle ran westbound, ending at (lo, a_last)):
        // west to the left edge, up to the top row, east along it, down the
        // right edge, west along the bottom row, and up to close the ring.
        let a_last = *self.aisle_ys.last().expect("non-empty");
        cells.push((lo - 1, a_last));
        cells.extend((a_last..h).map(|y| (0u32, y)));
        cells.extend((1..w).map(|x| (x, h - 1)));
        cells.extend((0..h - 1).rev().map(|y| (w - 1, y)));
        cells.extend((1..w - 1).rev().map(|x| (x, 0)));
        cells.push((0, 0));
        cells.extend((1..=a_first).map(|y| (0u32, y)));
        cells.push((1, a_first));
        (cells, perimeter_start)
    }

    /// The ring without section information.
    pub fn ring_cells(&self) -> Vec<(u32, u32)> {
        self.ring_sections().0
    }

    /// Builds the ring as a cyclically connected chain of components of
    /// near-equal length `≤ max_component_len`, then validates it.
    ///
    /// # Errors
    ///
    /// Returns the first [`TrafficError`] on a layout/grid mismatch or rule
    /// violation.
    pub fn build_traffic(&self, warehouse: &Warehouse) -> Result<TrafficSystem, TrafficError> {
        let (ring, perimeter_start) = self.ring_sections();
        // Chop the aisle section and the perimeter section separately so
        // station-bearing perimeter components never contain shelf-access
        // cells (the MixedKind rule). Reversing flips both sections' travel
        // order (the cell set, and with it the kind classification, is
        // unchanged).
        let mut aisle = ring[..perimeter_start].to_vec();
        let mut perimeter = ring[perimeter_start..].to_vec();
        self.orientation.apply(&mut aisle);
        self.orientation.apply(&mut perimeter);

        let mut b = TrafficSystemBuilder::new();
        let mut ids: Vec<ComponentId> = Vec::new();
        for section in [&aisle, &perimeter] {
            let mut at = 0usize;
            for size in chop_balanced(section.len(), self.max_component_len) {
                let chunk = &section[at..at + size];
                at += size;
                let path: Result<Vec<VertexId>, TrafficError> = chunk
                    .iter()
                    .map(|&(x, y)| {
                        warehouse.graph().vertex_at(Coord::new(x, y)).ok_or(
                            TrafficError::BrokenPath {
                                component: ComponentId(u32::MAX),
                                at: ((x as usize) << 16) | y as usize,
                            },
                        )
                    })
                    .collect();
                ids.push(b.add_component(path?));
            }
        }
        for i in 0..ids.len() {
            b.connect(ids[i], ids[(i + 1) % ids.len()]);
        }
        b.build(warehouse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::{CellKind, Direction, GridMap};

    fn demo_layout() -> (Warehouse, SnakeLayout) {
        let layout = SnakeLayout {
            width: 12,
            height: 9,
            aisle_ys: vec![1, 3, 5, 7],
            max_component_len: 12,
            orientation: RingOrientation::Forward,
        };
        let mut grid = GridMap::new(layout.width, layout.height).unwrap();
        // Shelf rows between aisles.
        for &y in &[2u32, 4, 6] {
            for x in 3..=layout.width - 4 {
                grid.set(Coord::new(x, y), CellKind::Shelf).unwrap();
            }
        }
        // Stations on the perimeter return (right column / bottom row).
        grid.set(Coord::new(11, 4), CellKind::Station).unwrap();
        grid.set(Coord::new(6, 0), CellKind::Station).unwrap();
        let w =
            Warehouse::from_grid_with_access(&grid, &[Direction::North, Direction::South]).unwrap();
        (w, layout)
    }

    #[test]
    fn ring_is_a_simple_adjacent_cycle() {
        let (_, layout) = demo_layout();
        let ring = layout.ring_cells();
        let mut seen = std::collections::HashSet::new();
        for &c in &ring {
            assert!(seen.insert(c), "ring revisits {c:?}");
        }
        for i in 0..ring.len() {
            let a = ring[i];
            let b = ring[(i + 1) % ring.len()];
            assert_eq!(
                a.0.abs_diff(b.0) + a.1.abs_diff(b.1),
                1,
                "ring breaks adjacency {a:?} -> {b:?}"
            );
        }
    }

    #[test]
    fn snake_builds_valid_traffic() {
        let (w, layout) = demo_layout();
        let ts = layout.build_traffic(&w).expect("valid snake");
        assert!(ts.is_strongly_connected());
        assert_eq!(ts.station_queues().count(), 2);
        assert!(ts.shelving_rows().count() >= 2);
        for c in ts.components() {
            assert!(c.len() <= layout.max_component_len);
            assert!(ts.inlets(c.id()).len() == 1 && ts.outlets(c.id()).len() == 1);
        }
    }

    #[test]
    fn reversed_orientation_builds_an_equally_valid_ring() {
        let (w, mut layout) = demo_layout();
        layout.orientation = RingOrientation::Reversed;
        let ts = layout.build_traffic(&w).expect("valid reversed snake");
        assert!(ts.is_strongly_connected());
        assert_eq!(ts.station_queues().count(), 2);
        assert!(ts.shelving_rows().count() >= 2);
        // Same cell coverage, opposite arc directions: the reversed design
        // must differ from the forward one in at least one entry vertex.
        let forward = {
            let mut f = layout.clone();
            f.orientation = RingOrientation::Forward;
            f.build_traffic(&w).unwrap()
        };
        assert_eq!(ts.component_count(), forward.component_count());
        let entries: Vec<_> = ts.components().iter().map(|c| c.entry()).collect();
        let fwd_entries: Vec<_> = forward.components().iter().map(|c| c.entry()).collect();
        assert_ne!(entries, fwd_entries);
    }

    #[test]
    fn perimeter_components_hold_no_shelf_access() {
        let (w, layout) = demo_layout();
        let ts = layout.build_traffic(&w).unwrap();
        // Every station queue is access-free by the sectioned chop.
        for q in ts.station_queues() {
            for &v in ts.component(q).path() {
                assert!(!w.is_shelf_access(v));
            }
        }
    }

    #[test]
    fn sections_split_where_declared() {
        let (_, layout) = demo_layout();
        let (ring, perimeter_start) = layout.ring_sections();
        assert!(perimeter_start > 0 && perimeter_start < ring.len());
        // The perimeter section starts right after the last aisle cell.
        let (lo, _) = (layout.aisle_lo(), 0);
        assert_eq!(
            ring[perimeter_start],
            (lo - 1, *layout.aisle_ys.last().unwrap())
        );
    }
}
