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
//!   circulation encoding that is ~|ρ|× smaller: after a pickup, product
//!   identity never constrains routing, because any station accepts any
//!   product and entry capacities count agents, not products. This is the
//!   default engine and the one used for the paper-scale benchmarks.
//!
//! Both engines express their constraints as assume–guarantee contracts
//! ([`wsp_contracts`]). The selected engine's encoding is compiled once:
//! the component contracts are composed into a traffic-system contract,
//! the workload contract is conjoined, and the consistency region becomes
//! one [`wsp_lp`] problem minimizing total edge flow — exactly the Fig. 3
//! workflow with CHASE+Z3 replaced by this repository's own substrates.
//! [`synthesize_flow`] solves that problem as an ILP;
//! [`synthesize_flow_relaxed`] solves the same problem as an LP.
//!
//! The synthesized [`AgentFlowSet`] is decomposed into an [`AgentCycleSet`]
//! via the *commodity-switching graph*, a constructive strengthening of
//! the paper's Properties 4.2/4.3 that needs no pairing of loaded with
//! unloaded paths.
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

pub use cycles::{AgentCycle, AgentCycleSet, CycleAction, CycleStep};
pub use error::FlowError;
pub use flowset::{AgentFlowSet, Commodity};
pub use relaxed::{synthesize_flow_relaxed, RelaxedFlowSummary};
// The solver scratch is re-exported so downstream crates (`wsp-core`'s
// `Pipeline`, `wsp-explore`'s workers) can own one without depending on
// `wsp-lp` directly.
pub use wsp_lp::LpScratch;

use wsp_contracts::{AgContract, VarRegistry};
use wsp_lp::{solve_ilp_with_scratch, IlpError, IlpOutcome, LinExpr, Problem, VarId};
use wsp_model::{Warehouse, Workload};
use wsp_traffic::TrafficSystem;

use contracts::{FlowVars, UnitsAt};
use layered::LayeredVars;

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
    /// under the bound, Table I's Fulfillment 1 row at 1,100 units and all
    /// three Fulfillment 2 rows are infeasible — but uncapacitated flow
    /// sets may not be realizable.
    pub skip_capacity: bool,
}

/// The engine's variables, kept with the compiled problem so an ILP
/// solution can be decoded through them.
enum EngineVars {
    Paper(FlowVars),
    Layered(LayeredVars),
}

/// The selected engine's encoding, compiled once (§IV-D, Fig. 3): the
/// component contracts composed into the traffic-system contract, the
/// workload contract conjoined, and the consistency region as one
/// [`Problem`] minimizing total edge flow. The ILP and its LP relaxation
/// are two solves of this same problem.
struct Encoding {
    /// The cycle time `t_c`.
    cycle_time: usize,
    /// The cycle periods `q_c = ⌊T/t_c⌋` the encoding plans on.
    periods: u64,
    problem: Problem,
    vars: EngineVars,
}

impl Encoding {
    /// Compiles `options.engine`'s encoding of `workload` on `traffic`
    /// within `t_limit` timesteps.
    ///
    /// # Errors
    ///
    /// [`FlowError::HorizonTooShort`] when `t_limit` admits no complete
    /// period.
    fn compile(
        warehouse: &Warehouse,
        traffic: &TrafficSystem,
        workload: &Workload,
        t_limit: usize,
        options: &FlowSynthesisOptions,
    ) -> Result<Self, FlowError> {
        let cycle_time = traffic.cycle_time();
        if cycle_time == 0 || t_limit < cycle_time {
            return Err(FlowError::HorizonTooShort {
                t_limit,
                cycle_time,
            });
        }
        let periods = (t_limit / cycle_time) as u64;
        let capacity = !options.skip_capacity;
        let units = UnitsAt::new(warehouse, traffic);
        let system = |registry: &VarRegistry,
                      components: Vec<AgContract>,
                      demand: AgContract,
                      objective: LinExpr| {
            AgContract::compose_all("traffic-system", components.iter())
                .conjoin(&demand)
                .synthesis_problem(registry, objective)
        };
        let (vars, problem) = match options.engine {
            FlowEngine::PaperIlp => {
                let vars = FlowVars::build(&units, traffic, workload);
                let problem = system(
                    vars.registry(),
                    contracts::component_contracts(&units, traffic, &vars, periods, capacity),
                    contracts::workload_contract(workload, &vars, periods),
                    vars.total_flow_objective(),
                );
                (EngineVars::Paper(vars), problem)
            }
            FlowEngine::LayeredIlp => {
                let vars = layered::build_vars(&units, traffic, workload);
                let problem = system(
                    &vars.registry,
                    layered::component_contracts(&units, traffic, &vars, periods, capacity),
                    layered::workload_contract(workload, &vars, periods),
                    layered::total_flow(&vars),
                );
                (EngineVars::Layered(vars), problem)
            }
        };
        Ok(Encoding {
            cycle_time,
            periods,
            problem,
            vars,
        })
    }
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
        &mut LpScratch::new(),
    )
}

/// [`synthesize_flow`] with a caller-owned solver scratch
/// ([`LpScratch`]): back-to-back syntheses reuse the simplex's buffers
/// (basis factors, pricing workspace) and nothing else, so every
/// synthesis solves from a cold root and its result never depends on
/// what the scratch solved before. This is the entry point
/// `wsp_core::Pipeline` threads its per-pipeline scratch through.
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
    scratch: &mut LpScratch,
) -> Result<AgentFlowSet, FlowError> {
    let Encoding {
        cycle_time,
        periods,
        problem,
        vars,
    } = Encoding::compile(warehouse, traffic, workload, t_limit, options)?;
    let solution = match solve_ilp_with_scratch(&problem, &options.ilp, scratch) {
        Ok(IlpOutcome::Optimal(s) | IlpOutcome::Feasible(s)) => s,
        Ok(IlpOutcome::Infeasible) => {
            let engine = match vars {
                EngineVars::Paper(_) => "paper",
                EngineVars::Layered(_) => "layered",
            };
            return Err(FlowError::Infeasible {
                detail: format!(
                    "{engine} encoding: {} demanded units on {} components within {} periods",
                    workload.total_units(),
                    traffic.component_count(),
                    periods
                ),
            });
        }
        // Cannot happen: the objective is a non-negative sum.
        Ok(IlpOutcome::Unbounded) => {
            return Err(FlowError::Infeasible {
                detail: "unbounded flow relaxation (encoder bug)".into(),
            })
        }
        Err(IlpError::Lp(source)) => return Err(FlowError::Solver { source }),
        Err(source) => return Err(FlowError::SolverLimit { source }),
    };
    let value = |v: VarId| -> u64 {
        let q = solution.values[v.index()];
        debug_assert!(q.is_integer() && !q.is_negative());
        q.numer().max(0) as u64
    };

    let mut flow = AgentFlowSet::new(cycle_time, periods);
    flow.set_problem_size(problem.var_count(), problem.constraint_count());
    match &vars {
        EngineVars::Paper(vars) => paper::decode(vars, value, &mut flow),
        EngineVars::Layered(vars) => layered::decode(vars, traffic, value, &mut flow)?,
    }
    let violations = flow.validate(warehouse, traffic, workload);
    if !violations.is_empty() {
        return Err(FlowError::InvalidFlowSet { violations });
    }
    Ok(flow)
}
