//! Real-valued flow synthesis: the paper's exact solver configuration.
//!
//! §IV-D's closing paragraph states the contracts are compiled to "a
//! formula in propositional logic augmented with arithmetic constraints
//! over the *reals*" and solved with Z3 — i.e. the published Table I
//! runtimes are for real-valued agent flows. (Real-valued flows also
//! explain the feasibility of the Fulfillment 2 instances, whose integer
//! versions are provably over the single station bay's per-period
//! throughput; see DESIGN.md.) This module reproduces that configuration:
//! the same contract systems with continuous variables, solved by the LP
//! kernel.
//!
//! Real-valued flow sets cannot be decomposed into discrete agent cycles;
//! use the default integer mode for end-to-end planning.

use wsp_contracts::{AgContract, Predicate, VarRegistry};
use wsp_lp::{solve_lp, BoundOverrides, LinExpr, LpOutcome, Rational, Relation};
use wsp_model::{Warehouse, Workload};
use wsp_traffic::TrafficSystem;

use crate::{FlowEngine, FlowError, FlowSynthesisOptions};

/// Summary of a relaxed (real-valued) synthesis run.
#[derive(Debug, Clone)]
pub struct RelaxedFlowSummary {
    /// Minimized total edge flow (≈ fractional team size per period).
    pub objective: f64,
    /// Cycle time `t_c` used.
    pub cycle_time: usize,
    /// Cycle periods `q_c` used.
    pub periods: u64,
    /// Decision variables in the encoding.
    pub variables: usize,
    /// Constraints in the encoding.
    pub constraints: usize,
}

/// Synthesizes a real-valued agent flow set (the paper's solver setup) and
/// reports the optimum plus encoding statistics.
///
/// # Errors
///
/// Same classes as [`synthesize_flow`](crate::synthesize_flow).
pub fn synthesize_flow_relaxed(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    workload: &Workload,
    t_limit: usize,
    options: &FlowSynthesisOptions,
) -> Result<RelaxedFlowSummary, FlowError> {
    let (cycle_time, periods) = crate::horizon(traffic, t_limit)?;

    let (registry, contract, objective) = match options.engine {
        FlowEngine::LayeredIlp => crate::layered::relaxed_system(
            warehouse,
            traffic,
            workload,
            periods,
            !options.skip_capacity,
        ),
        FlowEngine::PaperIlp => paper_relaxed_parts(
            warehouse,
            traffic,
            workload,
            periods,
            !options.skip_capacity,
        ),
    };
    let problem = contract.synthesis_problem(&registry, objective);
    let (variables, constraints) = (problem.var_count(), problem.constraint_count());

    match solve_lp::<f64>(&problem, &BoundOverrides::none())? {
        LpOutcome::Optimal(sol) => Ok(RelaxedFlowSummary {
            objective: sol.objective,
            cycle_time,
            periods,
            variables,
            constraints,
        }),
        LpOutcome::Infeasible => Err(FlowError::Infeasible {
            detail: format!(
                "relaxed encoding: {} demanded units within {} periods",
                workload.total_units(),
                periods
            ),
        }),
        LpOutcome::Unbounded => Err(FlowError::Infeasible {
            detail: "unbounded relaxation (encoder bug)".into(),
        }),
    }
}

/// Builds the paper (per-product) encoding with continuous variables.
pub(crate) fn paper_relaxed_parts(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    workload: &Workload,
    periods: u64,
    enforce_capacity: bool,
) -> (VarRegistry, AgContract, LinExpr) {
    // Reuse the integer builder, then rebuild a continuous registry with
    // the same layout: simplest is to build contracts over a registry whose
    // variables are continuous. FlowVars always allocates integers, so we
    // lower them here by rebuilding the registry var-for-var.
    let vars = crate::contracts::FlowVars::build(warehouse, traffic, workload);
    let components =
        crate::contracts::component_contracts(warehouse, traffic, &vars, periods, enforce_capacity);
    let system = AgContract::compose_all("traffic-system", components.iter());
    let full = system.conjoin(&crate::contracts::workload_contract(
        workload, &vars, periods,
    ));
    let relaxed_registry = relax_registry(vars.registry());
    (relaxed_registry, full, vars.total_flow_objective())
}

/// Copies a registry with every variable made continuous (the relaxation).
pub(crate) fn relax_registry(registry: &VarRegistry) -> VarRegistry {
    let mut out = VarRegistry::new();
    for i in 0..registry.len() {
        let name = registry.name(wsp_lp::VarId(i as u32)).to_string();
        out.fresh(name);
    }
    out
}

/// Keeps the unused-predicate import honest for rustdoc links.
#[allow(unused)]
fn _doc(_: &Predicate, _: Rational, _: Relation) {}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::{Direction, GridMap, ProductCatalog, ProductId};
    use wsp_traffic::design_perimeter_loop;

    fn tiny() -> (Warehouse, TrafficSystem) {
        let grid = GridMap::from_ascii("...\n.#.\n.@.").unwrap();
        let mut w =
            Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West]).unwrap();
        w.set_catalog(ProductCatalog::with_len(1));
        let s = w.shelf_access()[0];
        w.stock(s, ProductId(0), 1000).unwrap();
        let ts = design_perimeter_loop(&w, 3).unwrap();
        (w, ts)
    }

    #[test]
    fn relaxed_at_most_integer_objective() {
        let (w, ts) = tiny();
        let workload = Workload::from_demands(vec![10]);
        let opts = FlowSynthesisOptions::default();
        let relaxed = synthesize_flow_relaxed(&w, &ts, &workload, 600, &opts).unwrap();
        let integer = crate::synthesize_flow(&w, &ts, &workload, 600, &opts).unwrap();
        assert!(
            relaxed.objective <= integer.total_edge_flow() as f64 + 1e-6,
            "LP relaxation must lower-bound the ILP"
        );
        assert!(relaxed.objective > 0.0);
    }

    #[test]
    fn relaxed_paper_engine_agrees_with_layered() {
        let (w, ts) = tiny();
        let workload = Workload::from_demands(vec![10]);
        let layered =
            synthesize_flow_relaxed(&w, &ts, &workload, 600, &FlowSynthesisOptions::default())
                .unwrap();
        let paper = synthesize_flow_relaxed(
            &w,
            &ts,
            &workload,
            600,
            &FlowSynthesisOptions {
                engine: FlowEngine::PaperIlp,
                ..FlowSynthesisOptions::default()
            },
        )
        .unwrap();
        assert!(
            (layered.objective - paper.objective).abs() < 1e-6,
            "equivalent encodings: {} vs {}",
            layered.objective,
            paper.objective
        );
        // The layered encoding is smaller.
        assert!(layered.variables <= paper.variables);
    }

    #[test]
    fn relaxed_infeasible_detected() {
        let (w, ts) = tiny();
        // Demand far beyond stock rate.
        let workload = Workload::from_demands(vec![1_000_000]);
        let err =
            synthesize_flow_relaxed(&w, &ts, &workload, 600, &FlowSynthesisOptions::default())
                .unwrap_err();
        assert!(matches!(err, FlowError::Infeasible { .. }));
    }
}
