//! The end-to-end WSP co-design methodology (Fig. 2 of the paper): traffic
//! system → contracts → agent flows → agent cycles → discrete plan, with
//! per-phase timing and independent verification.
//!
//! [`solve`] runs the whole pipeline on a [`WspInstance`] and returns a
//! [`PipelineReport`] whose plan has already been checked — feasibility
//! conditions (1)–(3) of §III and workload servicing — by the
//! [`wsp_model::PlanChecker`], which shares no code with the planner.
//!
//! Underneath, the methodology is a staged engine ([`Pipeline`], module
//! [`pipeline`]): explicit `FlowArtifact → CycleArtifact →
//! RealizedArtifact → VerifiedReport` stages, each resumable from its
//! predecessor's artifact, sharing preallocated scratch tables so batch
//! evaluation over many candidate designs (`wsp-explore`) is
//! allocation-light and embarrassingly parallel (one `Pipeline` per
//! worker thread; every shared input is `Send + Sync`, enforced at
//! compile time).
//!
//! # Examples
//!
//! ```
//! use wsp_core::{solve, PipelineOptions, WspInstance};
//! use wsp_maps::sorting_center;
//!
//! let map = sorting_center()?;
//! let workload = map.uniform_workload(40);
//! let instance = WspInstance::new(map.warehouse, map.traffic, workload, 3600);
//! let report = solve(&instance, &PipelineOptions::default())?;
//! assert!(report.stats.total_delivered() >= 40);
//! println!("{}", report.summary());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod pipeline;

use std::fmt;
use std::time::Duration;

use wsp_flow::{AgentCycleSet, AgentFlowSet, FlowError, FlowSynthesisOptions};
use wsp_model::{PlanStats, Warehouse, Workload};
use wsp_realize::{RealizeError, RealizeOutcome};
use wsp_traffic::TrafficSystem;

pub use pipeline::{CycleArtifact, FlowArtifact, Pipeline, RealizedArtifact, VerifiedReport};
pub use wsp_flow::{synthesize_flow_relaxed, FlowEngine, RelaxedFlowSummary};

/// Parses a thread-count override (the `WSP_THREADS` format): a bare
/// base-10 integer, surrounding whitespace tolerated. `0` is accepted and
/// means "minimum", which [`resolve_threads`] clamps to 1.
///
/// Everything that routes an external thread budget into the workspace —
/// [`resolve_threads`]' environment path and `wsp-server`'s per-job
/// `threads` knob — validates through this one function, so garbage is
/// rejected with the same message everywhere instead of being silently
/// swallowed.
///
/// # Errors
///
/// A human-readable description of why `raw` is not a thread count
/// (empty, non-numeric, or out of range for `usize`).
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    let t = raw.trim();
    if t.is_empty() {
        return Err("empty thread count".to_string());
    }
    t.parse::<usize>()
        .map_err(|e| format!("invalid thread count {t:?}: {e}"))
}

/// Set once `resolve_threads` has warned about an unparsable
/// `WSP_THREADS`; the warning is emitted one time per process.
static WSP_THREADS_WARNED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Resolves a worker-thread count: explicit override, then the
/// `WSP_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]; always at least 1 (an explicit
/// or environment `0` is clamped to 1).
///
/// An unparsable `WSP_THREADS` (e.g. `WSP_THREADS=two`) is **not**
/// silently swallowed: the first time one is seen, a warning naming the
/// bad value is printed to stderr, and the variable is ignored in favor
/// of [`std::thread::available_parallelism`]. Callers that need a hard
/// error instead (e.g. a server validating a per-job thread budget)
/// should validate with [`parse_threads`] first.
///
/// Shared by every parallel driver in the workspace (`wsp-explore`'s
/// batch evaluator, `wsp-sim`'s repair fan-out, `wsp-server`'s job
/// engine) so one knob steers them all.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            let raw = std::env::var("WSP_THREADS").ok()?;
            match parse_threads(&raw) {
                Ok(n) => Some(n),
                Err(e) => {
                    if !WSP_THREADS_WARNED.swap(true, std::sync::atomic::Ordering::Relaxed) {
                        eprintln!(
                            "warning: ignoring WSP_THREADS={raw:?} ({e}); \
                             falling back to available parallelism"
                        );
                    }
                    None
                }
            }
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Shared cancellation + progress channel between a long-running
/// evaluation and whoever supervises it (a server job registry, a signal
/// handler, a test).
///
/// The two sides communicate only through atomics, so one `RunControl`
/// can be shared (`Arc` or plain reference) between the worker driving
/// `wsp_explore::evaluate_batch_with` / `wsp_sim::Simulation::run_controlled`
/// and any number of observers. Cancellation is a level, not an edge:
/// once [`cancel`](RunControl::cancel) is called the flag stays set, and
/// runners stop at their next check point (per candidate for the
/// explorer, per chunk for the simulator). Progress is a monotone
/// counter whose unit the runner defines (candidates evaluated,
/// simulated ticks); observers treat it as "work done so far".
#[derive(Debug, Default)]
pub struct RunControl {
    cancelled: std::sync::atomic::AtomicBool,
    progress: std::sync::atomic::AtomicU64,
}

impl RunControl {
    /// A fresh control: not cancelled, zero progress.
    pub fn new() -> Self {
        RunControl::default()
    }

    /// Requests cancellation (sticky; idempotent).
    pub fn cancel(&self) {
        self.cancelled
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Work units completed so far (runner-defined units).
    pub fn progress(&self) -> u64 {
        self.progress.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Adds `n` completed work units (called by the runner).
    pub fn add_progress(&self, n: u64) {
        self.progress
            .fetch_add(n, std::sync::atomic::Ordering::AcqRel);
    }
}

/// A warehouse servicing problem instance (Problem 3.1) together with its
/// co-designed traffic system.
#[derive(Debug, Clone)]
pub struct WspInstance {
    /// The warehouse `W`.
    pub warehouse: Warehouse,
    /// The traffic system designed over `W`.
    pub traffic: TrafficSystem,
    /// The workload `w`.
    pub workload: Workload,
    /// The timestep limit `T`.
    pub t_limit: usize,
}

impl WspInstance {
    /// Bundles an instance.
    pub fn new(
        warehouse: Warehouse,
        traffic: TrafficSystem,
        workload: Workload,
        t_limit: usize,
    ) -> Self {
        WspInstance {
            warehouse,
            traffic,
            workload,
            t_limit,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Flow-synthesis options (engine, ILP limits, period cap).
    pub flow: FlowSynthesisOptions,
    /// Run the realization for the full horizon even after the workload is
    /// serviced (default: stop at the last needed delivery).
    pub realize_full_horizon: bool,
}

/// Wall-clock duration of each pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    /// Contract compilation + flow synthesis (the paper's reported time).
    pub flow_synthesis: Duration,
    /// Flow → agent-cycle decomposition.
    pub decomposition: Duration,
    /// Algorithm 1 realization.
    pub realization: Duration,
    /// Independent plan checking.
    pub verification: Duration,
}

impl PhaseTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.flow_synthesis + self.decomposition + self.realization + self.verification
    }
}

/// Everything the pipeline produced, all independently verified.
///
/// Equality compares the full report including the wall-clock
/// [`PhaseTimings`]; for run-to-run reproducibility comparisons, compare
/// [`objective`](PipelineReport::objective) and the artifacts instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// The synthesized agent flow set (validated against §IV-D exactly).
    pub flow: AgentFlowSet,
    /// The agent cycle set (every cycle carry-consistent).
    pub cycles: AgentCycleSet,
    /// The realization outcome (plan + delivery counts).
    pub outcome: RealizeOutcome,
    /// Plan statistics from the independent checker.
    pub stats: PlanStats,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
}

impl PipelineReport {
    /// A one-line summary in the style of the paper's result reporting.
    pub fn summary(&self) -> String {
        format!(
            "{} agents, {} cycles, {} units delivered in {} timesteps \
             (flow {:.3}s, decomp {:.3}s, realize {:.3}s, verify {:.3}s)",
            self.outcome.agents,
            self.cycles.cycles().len(),
            self.stats.total_delivered(),
            self.outcome.timesteps,
            self.timings.flow_synthesis.as_secs_f64(),
            self.timings.decomposition.as_secs_f64(),
            self.timings.realization.as_secs_f64(),
            self.timings.verification.as_secs_f64(),
        )
    }

    /// The minimization objective pair `(agents, makespan)` used to score
    /// a design: the team size the plan employs and the timestep of the
    /// last needed delivery (falling back to the executed horizon for
    /// plans without deliveries). `wsp-explore`'s Pareto scorer and the
    /// benches both rank candidates with this helper, so the scoring
    /// expression lives in exactly one place.
    pub fn objective(&self) -> (usize, usize) {
        let makespan = self.stats.last_delivery.unwrap_or(self.outcome.timesteps);
        (self.outcome.agents, makespan)
    }
}

/// Pipeline failure, tagged by phase.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// Flow synthesis failed (infeasible workload, solver limit, …).
    Flow(FlowError),
    /// Realization failed (capacity precondition, inconsistent cycles, …).
    Realize(RealizeError),
    /// The realized plan failed independent checking, or serviced less
    /// than the workload within `T` (reports the checker's explanation).
    Verification(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Flow(e) => write!(f, "flow synthesis: {e}"),
            PipelineError::Realize(e) => write!(f, "realization: {e}"),
            PipelineError::Verification(e) => write!(f, "verification: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Flow(e) => Some(e),
            PipelineError::Realize(e) => Some(e),
            PipelineError::Verification(_) => None,
        }
    }
}

impl From<FlowError> for PipelineError {
    fn from(e: FlowError) -> Self {
        PipelineError::Flow(e)
    }
}

impl From<RealizeError> for PipelineError {
    fn from(e: RealizeError) -> Self {
        PipelineError::Realize(e)
    }
}

/// Runs the full methodology on an instance: synthesize flows, decompose
/// into cycles, realize into a discrete plan, and verify the plan
/// independently.
///
/// # Errors
///
/// Returns a [`PipelineError`] tagged with the failing phase.
pub fn solve(
    instance: &WspInstance,
    options: &PipelineOptions,
) -> Result<PipelineReport, PipelineError> {
    Pipeline::new().run(instance, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::{Direction, GridMap, ProductCatalog, ProductId};
    use wsp_traffic::design_perimeter_loop;

    fn tiny_instance(demand: u64) -> WspInstance {
        let grid = GridMap::from_ascii("...\n.#.\n.@.").unwrap();
        let mut w =
            Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West]).unwrap();
        w.set_catalog(ProductCatalog::with_len(1));
        let s = w.shelf_access()[0];
        w.stock(s, ProductId(0), 10_000).unwrap();
        let ts = design_perimeter_loop(&w, 3).unwrap();
        WspInstance::new(w, ts, Workload::from_demands(vec![demand]), 600)
    }

    #[test]
    fn end_to_end_tiny() {
        let instance = tiny_instance(12);
        let report = solve(&instance, &PipelineOptions::default()).unwrap();
        assert!(report.stats.total_delivered() >= 12);
        assert_eq!(report.outcome.missed_advances, 0);
        assert!(report.summary().contains("units delivered"));
    }

    #[test]
    fn full_horizon_option_runs_to_t() {
        let instance = tiny_instance(2);
        let report = solve(
            &instance,
            &PipelineOptions {
                realize_full_horizon: true,
                ..PipelineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.outcome.timesteps, 600);
        // Full horizon keeps delivering past the demand.
        assert!(report.stats.total_delivered() > 2);
    }

    #[test]
    fn infeasible_instance_reports_flow_phase() {
        let mut instance = tiny_instance(1);
        instance.workload = Workload::from_demands(vec![10_000_000]);
        let err = solve(&instance, &PipelineOptions::default()).unwrap_err();
        assert!(matches!(err, PipelineError::Flow(_)));
    }

    #[test]
    fn paper_engine_end_to_end() {
        let instance = tiny_instance(6);
        let report = solve(
            &instance,
            &PipelineOptions {
                flow: FlowSynthesisOptions {
                    engine: FlowEngine::PaperIlp,
                    ..FlowSynthesisOptions::default()
                },
                ..PipelineOptions::default()
            },
        )
        .unwrap();
        assert!(report.stats.total_delivered() >= 6);
    }

    #[test]
    fn timings_are_recorded() {
        let instance = tiny_instance(4);
        let report = solve(&instance, &PipelineOptions::default()).unwrap();
        assert!(report.timings.total() > Duration::ZERO);
    }

    #[test]
    fn parse_threads_accepts_integers_and_rejects_garbage() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 2 "), Ok(2));
        assert_eq!(parse_threads("0"), Ok(0));
        assert!(parse_threads("").is_err());
        assert!(parse_threads("  ").is_err());
        assert!(parse_threads("two").is_err());
        assert!(parse_threads("-1").is_err());
        assert!(parse_threads("3.5").is_err());
        assert!(parse_threads("4x").is_err());
        // Out of range for usize.
        assert!(parse_threads("99999999999999999999999999").is_err());
    }

    /// The `0` / garbage / unset / explicit-override resolution matrix.
    /// One test drives every environment case so the env mutation is
    /// serialized (tests in one binary run concurrently).
    #[test]
    fn resolve_threads_matrix() {
        // Explicit override wins regardless of the environment, and 0 is
        // clamped to 1.
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(1)), 1);
        assert_eq!(resolve_threads(Some(0)), 1);

        let saved = std::env::var("WSP_THREADS").ok();
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);

        // Unset: available parallelism.
        std::env::remove_var("WSP_THREADS");
        assert_eq!(resolve_threads(None), auto.max(1));

        // Parsable env values are honored; 0 clamps to 1.
        std::env::set_var("WSP_THREADS", "2");
        assert_eq!(resolve_threads(None), 2);
        std::env::set_var("WSP_THREADS", "0");
        assert_eq!(resolve_threads(None), 1);

        // Garbage is rejected loudly (a one-time stderr warning), never
        // silently parsed, and falls back to available parallelism.
        std::env::set_var("WSP_THREADS", "two");
        assert_eq!(resolve_threads(None), auto.max(1));
        assert!(
            WSP_THREADS_WARNED.load(std::sync::atomic::Ordering::Relaxed),
            "garbage WSP_THREADS must trip the one-time warning"
        );
        // Explicit override still bypasses the garbage env entirely.
        assert_eq!(resolve_threads(Some(5)), 5);

        match saved {
            Some(v) => std::env::set_var("WSP_THREADS", v),
            None => std::env::remove_var("WSP_THREADS"),
        }
    }

    #[test]
    fn run_control_is_sticky_and_monotone() {
        let c = RunControl::new();
        assert!(!c.is_cancelled());
        assert_eq!(c.progress(), 0);
        c.add_progress(3);
        c.add_progress(4);
        assert_eq!(c.progress(), 7);
        c.cancel();
        assert!(c.is_cancelled());
        c.cancel(); // idempotent
        assert!(c.is_cancelled());
    }
}
