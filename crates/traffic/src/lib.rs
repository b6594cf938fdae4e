//! Warehouse traffic systems: one-way road components, composition rules,
//! validation, and topology designers (§IV-A of the paper).
//!
//! A traffic system divides the traversable vertices of a warehouse
//! floorplan into disjoint simple paths called [`Component`]s. Agents enter
//! a component at its *entry* vertex, advance along the path, and exit from
//! its *exit* vertex into the entry of a successor component. Components are
//! classified by what they contain:
//!
//! * [`ComponentKind::ShelvingRow`] — contains shelf-access vertices;
//! * [`ComponentKind::StationQueue`] — contains station vertices;
//! * [`ComponentKind::Transport`] — contains neither.
//!
//! The paper's head/tail naming is inconsistent between §IV-A and
//! Algorithm 1; this crate uses the unambiguous `entry`/`exit` convention
//! throughout.
//!
//! # Examples
//!
//! ```
//! use wsp_model::{Direction, GridMap, Warehouse};
//! use wsp_traffic::TrafficSystemBuilder;
//!
//! // A shelf accessed from the east and a station, joined by a 2-component ring.
//! let grid = GridMap::from_ascii("#..\n.@.")?; // row y=1: shelf,empty,empty
//! let warehouse = Warehouse::from_grid_with_access(&grid, &[Direction::East])?;
//! let mut b = TrafficSystemBuilder::new();
//! let top = b.add_component_coords(&warehouse, [(1, 1), (2, 1)])?;
//! let bottom = b.add_component_coords(&warehouse, [(2, 0), (1, 0)])?;
//! b.connect(top, bottom);
//! b.connect(bottom, top);
//! let ts = b.build(&warehouse)?;
//! assert_eq!(ts.component_count(), 2);
//! assert!(ts.is_strongly_connected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod component;
mod design;
mod render;
mod scc;
mod system;

pub use component::{Component, ComponentId, ComponentKind};
pub use design::{
    chop_balanced, design_perimeter_loop, perimeter_is_open, LaneSpec, RingOrientation,
};
pub use render::{describe_traffic_system, render_traffic_system};
pub use system::{TrafficError, TrafficSystem, TrafficSystemBuilder};
