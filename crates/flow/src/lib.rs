//! Agent-flow synthesis: compiling traffic-system and workload contracts,
//! solving them, and decomposing the resulting flow set into agent cycles
//! (§IV-B, §IV-D, §IV-E of the paper).
//!
//! Two interchangeable synthesis engines are provided:
//!
//! * [`FlowEngine::PaperIlp`] — the monolithic per-product encoding of
//!   §IV-D, with one flow variable `f_{i,j,k}` per traffic-system arc and
//!   product. Faithful to the paper; practical on small/medium instances.
//! * [`FlowEngine::LayeredIlp`] — an equivalent two-layer (loaded/unloaded)
//!   circulation encoding that is ~|ρ|× smaller (DESIGN.md §3.2 sketches
//!   the equivalence proof). This is the default engine and the one used
//!   for the paper-scale benchmarks.
//!
//! Both engines express their constraints as assume–guarantee contracts
//! ([`wsp_contracts`]), compose the component contracts into a
//! traffic-system contract, conjoin the workload contract, and hand the
//! consistency region to the ILP solver ([`wsp_lp`]) — exactly the Fig. 3
//! workflow with CHASE+Z3 replaced by this repository's own substrates.
//!
//! The synthesized [`AgentFlowSet`] is decomposed into an [`AgentCycleSet`]
//! via the *commodity-switching graph* (DESIGN.md §3.3), a constructive
//! strengthening of the paper's Properties 4.2/4.3.
//!
//! # Examples
//!
//! ```
//! use wsp_flow::{synthesize_flow, FlowSynthesisOptions};
//! use wsp_model::{Direction, GridMap, ProductCatalog, ProductId, Warehouse, Workload};
//! use wsp_traffic::design_perimeter_loop;
//!
//! let grid = GridMap::from_ascii("...\n.#.\n.@.")?;
//! let mut warehouse =
//!     Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West])?;
//! warehouse.set_catalog(ProductCatalog::with_len(1));
//! let access = warehouse.shelf_access()[0];
//! warehouse.stock(access, ProductId(0), 1000)?;
//! let ts = design_perimeter_loop(&warehouse, 3)?;
//!
//! let workload = Workload::from_demands(vec![10]);
//! let flow = synthesize_flow(&warehouse, &ts, &workload, 600, &FlowSynthesisOptions::default())?;
//! assert!(flow.total_deliveries_per_period() >= 1);
//! let cycles = flow.decompose()?;
//! assert!(!cycles.cycles().is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod contracts;
mod cycles;
mod decompose;
mod error;
mod flowset;
mod layered;
mod paper;
mod relaxed;

pub use contracts::{component_contracts, workload_contract, FlowVars};
pub use cycles::{AgentCycle, AgentCycleSet, CycleAction, CycleStep};
pub use error::FlowError;
pub use flowset::{AgentFlowSet, Commodity};
pub use relaxed::{synthesize_flow_relaxed, RelaxedFlowSummary};
// The solver scratch types are re-exported so downstream crates
// (`wsp-core`'s `Pipeline`, `wsp-explore`'s workers) can own one without
// depending on `wsp-lp` directly.
pub use wsp_lp::{IlpScratch, LpScratch};

use wsp_model::{Warehouse, Workload};
use wsp_traffic::TrafficSystem;

use layered::synthesize_layered_with_scratch;
#[cfg(test)]
use paper::synthesize_paper;
use paper::synthesize_paper_with_scratch;

/// Which constraint encoding the synthesizer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowEngine {
    /// Monolithic per-product encoding, exactly §IV-D.
    PaperIlp,
    /// Equivalent two-layer circulation encoding (default; scales to the
    /// paper's largest instances).
    #[default]
    LayeredIlp,
}

/// Options for flow synthesis.
#[derive(Debug, Clone, Default)]
pub struct FlowSynthesisOptions {
    /// The encoding to use.
    pub engine: FlowEngine,
    /// ILP solver configuration (node limit, exact mode, warm starts).
    pub ilp: wsp_lp::IlpOptions,
    /// Skip the Property 4.1 entry-capacity assumption
    /// `Σ f ≤ ⌊|Cᵢ|/2⌋` (default `false`: the bound is enforced).
    /// Skipping reproduces the paper's apparent solver configuration —
    /// its largest instances exceed the capacity bound (DESIGN.md §3.7) —
    /// but uncapacitated flow sets may not be realizable.
    pub skip_capacity: bool,
}

/// The cycle time `t_c` of `traffic` and the cycle periods
/// `q_c = ⌊T/t_c⌋` a synthesis call plans on.
///
/// # Errors
///
/// [`FlowError::HorizonTooShort`] when `t_limit` admits no complete
/// period.
pub(crate) fn horizon(traffic: &TrafficSystem, t_limit: usize) -> Result<(usize, u64), FlowError> {
    let cycle_time = traffic.cycle_time();
    if cycle_time == 0 || t_limit < cycle_time {
        return Err(FlowError::HorizonTooShort {
            t_limit,
            cycle_time,
        });
    }
    Ok((cycle_time, (t_limit / cycle_time) as u64))
}

/// Synthesizes an agent flow set servicing `workload` within `t_limit`
/// timesteps on the given traffic system (Fig. 2, "synthesize agent flows").
///
/// # Errors
///
/// Returns [`FlowError::HorizonTooShort`] if `t_limit` admits no complete
/// cycle period, [`FlowError::Infeasible`] if the contracts are
/// unsatisfiable, and solver errors otherwise.
pub fn synthesize_flow(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    workload: &Workload,
    t_limit: usize,
    options: &FlowSynthesisOptions,
) -> Result<AgentFlowSet, FlowError> {
    synthesize_flow_with_scratch(
        warehouse,
        traffic,
        workload,
        t_limit,
        options,
        &mut IlpScratch::new(),
    )
}

/// [`synthesize_flow`] with a caller-owned solver scratch
/// ([`IlpScratch`]): back-to-back syntheses reuse the simplex basis
/// factors and pricing workspace, and candidates that share a constraint
/// skeleton warm-start from the previous converged basis. This is the
/// entry point `wsp_core::Pipeline` threads its per-pipeline scratch
/// through.
///
/// # Errors
///
/// Same classes as [`synthesize_flow`].
pub fn synthesize_flow_with_scratch(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    workload: &Workload,
    t_limit: usize,
    options: &FlowSynthesisOptions,
    scratch: &mut IlpScratch,
) -> Result<AgentFlowSet, FlowError> {
    match options.engine {
        FlowEngine::PaperIlp => {
            synthesize_paper_with_scratch(warehouse, traffic, workload, t_limit, options, scratch)
        }
        FlowEngine::LayeredIlp => {
            synthesize_layered_with_scratch(warehouse, traffic, workload, t_limit, options, scratch)
        }
    }
}
