//! The paper's evaluation maps: Kiva-style fulfillment centers and a
//! package sorting center, each co-generated with a validated traffic
//! system (§V, Figs. 4 and 5).
//!
//! Every map here, the three paper maps and the two generator families
//! ([`sorting_center_variant`] for the design explorer, [`scaled_warehouse`]
//! for production-scale floors), is designed by one traffic designer,
//! [`SnakeLayout`]: a ladder of shelf rows between one-way aisles, threaded
//! by one ring that runs east and west through every aisle and then returns
//! around the map perimeter, where the station bays sit. The ring is
//! chopped into near-equal components. Every generated design satisfies
//! all §IV-A composition rules by construction (and the test suite
//! re-validates each).
//!
//! Instance statistics versus the paper are pinned by the
//! `*_matches_paper_stats` tests in `instances.rs`: shelf, station-bay, and
//! product counts match the paper, and so do the cell counts of the
//! sorting center and Fulfillment 2; Fulfillment 1 has 47 × 24 = 1,128
//! cells against the paper's 1,071.
//!
//! # Examples
//!
//! ```
//! use wsp_maps::sorting_center;
//!
//! let map = sorting_center()?;
//! assert_eq!(map.warehouse.grid().cell_count(), 406); // paper-exact
//! assert_eq!(map.products, 36);
//! assert_eq!(map.station_bays, 4);
//! let workload = map.uniform_workload(160);
//! assert_eq!(workload.total_units(), 160);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod instances;
mod scaled;
mod snake;
mod util;
mod variants;

pub use instances::{fulfillment_center_1, fulfillment_center_2, sorting_center, MapInstance};
pub use scaled::scaled_warehouse;
pub use snake::SnakeLayout;
pub use variants::{sorting_center_variant, SortingCenterParams};
