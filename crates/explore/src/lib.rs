//! Design-space exploration over warehouse traffic-system candidates —
//! the paper's outer co-design loop as a production subsystem.
//!
//! The paper evaluates one hand-picked traffic system per map; the real
//! contribution of co-design is *searching* that space. This crate closes
//! the loop:
//!
//! 1. [`DesignCandidate`] / [`sorting_center_sweep`] — parameterized
//!    candidates over the [`wsp_maps::SortingCenterParams`] family (aisle
//!    pitch, ring orientation, station placement, lane-chop granularity).
//! 2. [`evaluate_batch`] — a work-queue parallel batch evaluator built on
//!    `std::thread::scope`: one reusable [`wsp_core::Pipeline`] per worker
//!    thread, candidates pulled off a shared atomic counter. Thread count
//!    comes from an explicit override, the `WSP_THREADS` environment
//!    variable, or [`std::thread::available_parallelism`], in that order.
//! 3. [`pareto_front`] — a Pareto scorer over
//!    ([`agents`](CandidateEval::agents), [`makespan`](CandidateEval::makespan),
//!    [`synthesis_cost`](CandidateEval::synthesis_cost)).
//!
//! **Determinism invariant:** results are byte-identical at every thread
//! count. Candidate construction is deterministic in its parameters, each
//! evaluation runs single-threaded inside one worker, results land in a
//! slot indexed by candidate position (never by completion order), and the
//! third Pareto axis is the deterministic ILP-size proxy for synthesis
//! cost rather than wall-clock time (which is still reported, but never
//! scored). `tests/determinism.rs` holds the crate to this at 1, 2, and 4
//! threads.
//!
//! # Examples
//!
//! ```
//! use wsp_explore::{evaluate_batch, sorting_center_sweep, ExploreOptions};
//!
//! let candidates: Vec<_> = sorting_center_sweep().into_iter().take(2).collect();
//! let options = ExploreOptions {
//!     units: 40,
//!     threads: Some(2),
//!     ..ExploreOptions::default()
//! };
//! let outcome = evaluate_batch(&candidates, &options);
//! assert_eq!(outcome.reports.len(), 2);
//! assert!(!outcome.front.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod candidate;
mod evaluate;
mod pareto;

pub use candidate::{sorting_center_sweep, DesignCandidate};
pub use evaluate::{
    evaluate_batch, evaluate_batch_with, evaluate_candidate, CandidateEval, CandidateOutcome,
    CandidateReport, ExploreOptions, ExploreOutcome, SimScore, SimScoring,
};
pub use pareto::{pareto_front, Objective};
