//! Lifelong warehouse simulation (`wsp-sim`): executes synthesized
//! designs over time instead of only verifying them.
//!
//! The paper's pipeline answers "can this design service workload `w`
//! within `T` timesteps?" — a one-shot question. Its sorting-center
//! setting is inherently *lifelong*, though: packages arrive continuously
//! and robots loop between induct stations and chutes forever. This crate
//! turns the repo's one-shot solver into a warehouse that runs:
//!
//! * a seeded stochastic **task stream** ([`TaskStream`]) drives arrivals,
//!   typically from `MapInstance::zipf_workload` mixes;
//! * the engine ([`Simulation`]) executes the design **event-driven**:
//!   quiescent agents sleep on a time-ordered bucket queue, fully
//!   quiescent ticks are skipped outright, and each executed tick sweeps
//!   only the active set ([`SimEngine::Event`]; the original full sweep
//!   survives as the [`SimEngine::Reference`] oracle), **replanning
//!   rolling-horizon windows** by resuming the staged pipeline from its
//!   realize stage ([`wsp_core::Pipeline::realize_window`]) with
//!   per-pipeline scratch, so steady-state ticks cost O(active agents),
//!   independent of the map size;
//! * seeded **stall deviations** ([`DeviationSchedule`]) knock execution
//!   off plan; a conflict-free movement resolver absorbs them (blocked
//!   agents wait and lag, never collide), and **MAPF catch-up repair**
//!   splices space-time A* detours planned against a shared
//!   [`wsp_mapf::ReservationTable`];
//! * everything lands in an integer-only [`SimReport`] whose canonical
//!   JSON is byte-identical for identical `(instance, config)` at every
//!   repair thread count — the determinism contract property-tested in
//!   `tests/determinism.rs` and pinned by the golden files under the
//!   umbrella crate's `tests/golden/`.
//!
//! # Examples
//!
//! ```
//! use wsp_core::{PipelineOptions, WspInstance};
//! use wsp_maps::sorting_center;
//! use wsp_sim::{SimConfig, Simulation, StreamConfig};
//!
//! let map = sorting_center()?;
//! let mix = map.zipf_workload(120, 1.0, 7);
//! let workload = map.uniform_workload(40);
//! let instance = WspInstance::new(map.warehouse, map.traffic, workload, 3600);
//! let config = SimConfig {
//!     ticks: 400,
//!     stream: StreamConfig { mix, mean_gap: 3, seed: 7 },
//!     ..SimConfig::default()
//! };
//! let mut sim = Simulation::new(&instance, &PipelineOptions::default(), config)?;
//! let report = sim.run()?;
//! assert!(report.counters.conserved());
//! assert!(report.counters.completed > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod assign;
mod cycles;
mod deviation;
mod distfield;
mod engine;
mod event;
mod mission;
mod queue;
mod repair;
mod report;
mod stream;

pub use assign::{select_agent, AgentBid, AssignConfig, AssignPolicy};
pub use cycles::direct_cycle_set;
pub use deviation::{
    DeviationConfig, DeviationSchedule, FaultConfig, FaultEvent, FaultSchedule, Stall, NEVER,
};
pub use engine::{RepairConfig, SimConfig, SimEngine, SimError, Simulation};
pub use queue::BucketQueue;
pub use report::{SimCounters, SimReport, LATENCY_BUCKETS};
pub use stream::{StreamConfig, Task, TaskStream};

// Compile-time thread-safety audit for everything the repair fan-out
// shares across its scoped workers, plus the event-scheduler types that
// ride inside `Simulation` (mirrors `wsp_core::pipeline`'s block).
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<wsp_mapf::ReservationTable>();
    assert_send_sync::<AssignConfig>();
    assert_send_sync::<AssignPolicy>();
    assert_send_sync::<SimConfig>();
    assert_send_sync::<FaultConfig>();
    assert_send_sync::<SimEngine>();
    assert_send_sync::<SimReport>();
    assert_send_sync::<SimCounters>();
    assert_send_sync::<BucketQueue>();
    assert_send::<Simulation<'static>>();
};
