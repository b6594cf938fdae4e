//! The paper's evaluation maps: Kiva-style fulfillment centers and a
//! package sorting center, each co-generated with a validated traffic
//! system (§V, Figs. 4 and 5).
//!
//! All three maps share one *zoned* layout (module [`zoned`]) consisting
//! of, bottom to top: a collector lane, a zone of serpentine station-queue
//! strips, a distributor lane, a ladder of shelf rows and one-way aisles,
//! and a top lane; one-way vertical lanes on the left and right edges close
//! the ring. Every generated design satisfies all §IV-A composition rules
//! by construction (and the test suite re-validates each).
//!
//! Instance statistics versus the paper are pinned by the
//! `*_matches_paper_stats` tests in `instances.rs`: shelf, station-bay, and
//! product counts match the paper, while total cell counts differ slightly
//! where Property 4.1 station-queue capacity forces a larger queue zone
//! (Fulfillment 1: 1,081 cells against the paper's 1,071).
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
mod random;
mod scaled;
mod snake;
mod util;
mod variants;
pub mod zoned;

pub use instances::{fulfillment_center_1, fulfillment_center_2, sorting_center, MapInstance};
pub use random::random_block_warehouse;
pub use scaled::scaled_warehouse;
pub use snake::SnakeLayout;
pub use variants::{sorting_center_variant, SortingCenterParams};
