//! Search-based multi-agent path finding (MAPF): the baseline family the
//! paper compares against (§V, "Iterated EECBS").
//!
//! The authors benchmark their contract-based methodology against Iterated
//! EECBS [Li et al., AAAI'21], a state-of-the-art bounded-suboptimal
//! search-based planner, by asking it to route every agent through the same
//! sequence of shelves and stations that the synthesized plan visits. This
//! crate re-implements that baseline family from scratch:
//!
//! * [`SpaceTimeAstar`] — single-agent A* over (vertex, time) with
//!   reservation tables, wait moves, and an optional focal layer;
//! * [`PrioritizedPlanner`] — sequential (HCA*-style) planning for agent
//!   teams with multi-goal itineraries;
//! * [`CbsPlanner`] — Conflict-Based Search, optimal at `w = 1` and
//!   bounded-suboptimal focal ECBS(w) for `w > 1`;
//! * [`IteratedPlanner`] — the lifelong wrapper that feeds each agent its
//!   next waypoint and replans, mirroring "Iterated EECBS".
//!
//! All solvers emit [`MapfSolution`]s that can be validated for vertex and
//! edge conflicts with [`MapfSolution::validate`], and cross-checked
//! against the co-design pipeline through the shared `wsp-model` plan
//! checker.
//!
//! # Examples
//!
//! ```
//! use wsp_mapf::{MapfProblem, PrioritizedPlanner};
//! use wsp_model::{FloorplanGraph, GridMap};
//!
//! let grid = GridMap::from_ascii("....\n....")?;
//! let graph = FloorplanGraph::from_grid(&grid);
//! let a = graph.vertex_at((0, 0).into()).unwrap();
//! let b = graph.vertex_at((3, 0).into()).unwrap();
//! // Two agents swapping sides.
//! let problem = MapfProblem::new(&graph, vec![a, b], vec![vec![b], vec![a]]);
//! let solution = PrioritizedPlanner::default().solve(&problem)?;
//! assert!(solution.validate(&graph).is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod astar;
mod cbs;
mod iterated;
mod prioritized;
mod problem;
mod reservation;

pub use astar::{Constraints, PlanQuery, SearchScratch, SegmentPath, SpaceTimeAstar};
pub use cbs::CbsPlanner;
pub use iterated::{InnerSolver, IteratedPlanner};
pub use prioritized::PrioritizedPlanner;
pub use problem::{conflict_at, Conflict, MapfError, MapfProblem, MapfSolution};
pub use reservation::{ReservationTable, StoragePolicy};
