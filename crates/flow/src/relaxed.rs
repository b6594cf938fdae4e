//! Real-valued flow synthesis: the paper's exact solver configuration.
//!
//! §IV-D's closing paragraph states the contracts are compiled to "a
//! formula in propositional logic augmented with arithmetic constraints
//! over the *reals*" and solved with Z3 — i.e. the published Table I
//! runtimes are for real-valued agent flows. This module reproduces that
//! configuration: the same compiled encoding that
//! [`synthesize_flow`](crate::synthesize_flow) solves as an ILP, solved
//! here as an LP. With the Property 4.1 entry-capacity assumption skipped
//! as well, the Fulfillment 2 workloads become feasible, as in the paper
//! (`tests/pipeline.rs` pins both sides of that boundary).
//!
//! Real-valued flow sets cannot be decomposed into discrete agent cycles;
//! use the default integer mode for end-to-end planning.

use wsp_lp::{solve_lp, BoundOverrides, LpOutcome};
use wsp_model::{Warehouse, Workload};
use wsp_traffic::TrafficSystem;

use crate::{Encoding, FlowError, FlowSynthesisOptions};

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
    let Encoding {
        cycle_time,
        periods,
        problem,
        ..
    } = Encoding::compile(warehouse, traffic, workload, t_limit, options)?;
    // The LP kernel never reads the integrality flags.
    match solve_lp::<f64>(&problem, &BoundOverrides::none())? {
        LpOutcome::Optimal(sol) => Ok(RelaxedFlowSummary {
            objective: sol.objective,
            cycle_time,
            periods,
            variables: problem.var_count(),
            constraints: problem.constraint_count(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowEngine;
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
    fn integer_and_relaxed_solves_share_one_problem() {
        let (w, ts) = tiny();
        let workload = Workload::from_demands(vec![10]);
        for engine in [FlowEngine::PaperIlp, FlowEngine::LayeredIlp] {
            for skip_capacity in [false, true] {
                let opts = FlowSynthesisOptions {
                    engine,
                    skip_capacity,
                    ..FlowSynthesisOptions::default()
                };
                let relaxed = synthesize_flow_relaxed(&w, &ts, &workload, 600, &opts).unwrap();
                let integer = crate::synthesize_flow(&w, &ts, &workload, 600, &opts).unwrap();
                assert_eq!(
                    (relaxed.variables, relaxed.constraints),
                    integer.problem_size(),
                    "{engine:?}, skip_capacity {skip_capacity}"
                );
            }
        }
    }

    #[test]
    fn infeasible_details_name_the_encoding() {
        let (w, ts) = tiny();
        let workload = Workload::from_demands(vec![1_000_000]);
        let detail = |err: FlowError| match err {
            FlowError::Infeasible { detail } => detail,
            other => panic!("expected Infeasible, got {other}"),
        };
        for (engine, prefix) in [
            (FlowEngine::PaperIlp, "paper encoding: "),
            (FlowEngine::LayeredIlp, "layered encoding: "),
        ] {
            let opts = FlowSynthesisOptions {
                engine,
                ..FlowSynthesisOptions::default()
            };
            let err = crate::synthesize_flow(&w, &ts, &workload, 600, &opts).unwrap_err();
            assert!(detail(err).starts_with(prefix), "{engine:?}");
            let err = synthesize_flow_relaxed(&w, &ts, &workload, 600, &opts).unwrap_err();
            assert!(detail(err).starts_with("relaxed encoding: "), "{engine:?}");
        }
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
