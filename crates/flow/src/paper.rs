//! The monolithic per-product synthesis engine: exactly the §IV-D encoding.

use wsp_contracts::AgContract;
use wsp_lp::{solve_ilp_with_scratch, IlpOutcome, IlpScratch};
use wsp_model::{Warehouse, Workload};
use wsp_traffic::TrafficSystem;

use crate::contracts::{component_contracts, workload_contract, FlowVars};
use crate::flowset::AgentFlowSet;
use crate::{FlowError, FlowSynthesisOptions};

/// [`synthesize_paper_with_scratch`] on a fresh scratch.
#[cfg(test)]
pub(crate) fn synthesize_paper(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    workload: &Workload,
    t_limit: usize,
    options: &FlowSynthesisOptions,
) -> Result<AgentFlowSet, FlowError> {
    synthesize_paper_with_scratch(
        warehouse,
        traffic,
        workload,
        t_limit,
        options,
        &mut IlpScratch::new(),
    )
}

/// The [`FlowEngine::PaperIlp`](crate::FlowEngine::PaperIlp) synthesizer:
/// compose all component contracts into the traffic-system contract,
/// conjoin the workload contract, and solve the consistency region as an
/// ILP (Fig. 3 with Z3 replaced by `wsp-lp`) on the caller's scratch.
///
/// # Errors
///
/// See [`synthesize_flow`](crate::synthesize_flow).
pub(crate) fn synthesize_paper_with_scratch(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    workload: &Workload,
    t_limit: usize,
    options: &FlowSynthesisOptions,
    scratch: &mut IlpScratch,
) -> Result<AgentFlowSet, FlowError> {
    let (cycle_time, periods) = crate::horizon(traffic, t_limit)?;

    let vars = FlowVars::build(warehouse, traffic, workload);
    let components =
        component_contracts(warehouse, traffic, &vars, periods, !options.skip_capacity);
    let system_contract = AgContract::compose_all("traffic-system", components.iter());
    let full = system_contract.conjoin(&workload_contract(workload, &vars, periods));

    let problem = full.synthesis_problem(vars.registry(), vars.total_flow_objective());
    let problem_dims = (problem.var_count(), problem.constraint_count());

    let outcome = solve_ilp_with_scratch(&problem, &options.ilp, scratch).map_err(|e| match e {
        wsp_lp::IlpError::Lp(lp) => FlowError::Solver { source: lp },
        other => FlowError::SolverLimit { source: other },
    })?;
    let solution = match outcome {
        IlpOutcome::Optimal(s) | IlpOutcome::Feasible(s) => s,
        IlpOutcome::Infeasible => {
            return Err(FlowError::Infeasible {
                detail: format!(
                    "paper encoding: {} demanded units on {} components within {} periods",
                    workload.total_units(),
                    traffic.component_count(),
                    periods
                ),
            })
        }
        IlpOutcome::Unbounded => {
            // Cannot happen: the objective is a non-negative sum.
            return Err(FlowError::Infeasible {
                detail: "unbounded flow relaxation (encoder bug)".into(),
            });
        }
    };

    // Read the model back into a flow set.
    let mut flow = AgentFlowSet::new(cycle_time, periods);
    flow.set_problem_size(problem_dims.0, problem_dims.1);
    let value = |v: wsp_lp::VarId| -> u64 {
        let q = solution.values[v.index()];
        debug_assert!(q.is_integer() && !q.is_negative());
        q.numer().max(0) as u64
    };
    for ((i, j, k), v) in vars.edge_entries() {
        flow.add_edge_flow(i, j, k, value(v));
    }
    for ((c, p), v) in vars.fin_entries() {
        flow.add_pickup(c, p, value(v));
    }
    for ((c, p), v) in vars.fout_entries() {
        flow.add_dropoff(c, p, value(v));
    }

    let violations = flow.validate(warehouse, traffic, workload);
    if !violations.is_empty() {
        return Err(FlowError::InvalidFlowSet { violations });
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowEngine;
    use wsp_model::{Direction, GridMap, ProductCatalog, ProductId};
    use wsp_traffic::design_perimeter_loop;

    fn tiny(stock: u64) -> (Warehouse, TrafficSystem) {
        let grid = GridMap::from_ascii("...\n.#.\n.@.").unwrap();
        let mut w =
            Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West]).unwrap();
        w.set_catalog(ProductCatalog::with_len(1));
        let s = w.shelf_access()[0];
        w.stock(s, ProductId(0), stock).unwrap();
        let ts = design_perimeter_loop(&w, 3).unwrap();
        (w, ts)
    }

    fn opts() -> FlowSynthesisOptions {
        FlowSynthesisOptions {
            engine: FlowEngine::PaperIlp,
            ..FlowSynthesisOptions::default()
        }
    }

    #[test]
    fn services_small_workload() {
        let (w, ts) = tiny(100);
        let workload = Workload::from_demands(vec![10]);
        let flow = synthesize_paper(&w, &ts, &workload, 600, &opts()).unwrap();
        assert!(flow.total_deliveries() >= 10);
        assert!(flow.validate(&w, &ts, &workload).is_empty());
        // Minimization: one delivery per period suffices (600 / t_c periods).
        assert_eq!(flow.total_deliveries_per_period(), 1);
    }

    #[test]
    fn horizon_too_short_rejected() {
        let (w, ts) = tiny(100);
        let workload = Workload::from_demands(vec![1]);
        let err = synthesize_paper(&w, &ts, &workload, ts.cycle_time() - 1, &opts()).unwrap_err();
        assert!(matches!(err, FlowError::HorizonTooShort { .. }));
    }

    #[test]
    fn undersupplied_workload_infeasible() {
        let (w, ts) = tiny(3);
        // Demand exceeds total stock: no flow set can service it.
        let workload = Workload::from_demands(vec![50]);
        let err = synthesize_paper(&w, &ts, &workload, 600, &opts()).unwrap_err();
        assert!(matches!(err, FlowError::Infeasible { .. }));
    }

    #[test]
    fn empty_workload_needs_no_flow() {
        let (w, ts) = tiny(10);
        let workload = Workload::zeros(1);
        let flow = synthesize_paper(&w, &ts, &workload, 600, &opts()).unwrap();
        assert_eq!(flow.total_edge_flow(), 0);
    }

    #[test]
    fn decomposes_into_consistent_cycles() {
        let (w, ts) = tiny(100);
        let workload = Workload::from_demands(vec![10]);
        let flow = synthesize_paper(&w, &ts, &workload, 600, &opts()).unwrap();
        let cycles = flow.decompose().unwrap();
        assert!(cycles.deliveries_per_period() >= 1);
        for c in cycles.cycles() {
            assert_eq!(c.carry_inconsistency(), None);
        }
        // Property 4.1 capacity: occupancy within ⌊|Cᵢ|/2⌋.
        for comp in ts.components() {
            assert!(cycles.occupancy(comp.id()) <= comp.capacity());
        }
    }
}
