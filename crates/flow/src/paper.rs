//! The monolithic per-product engine's decoder. The §IV-D encoding's
//! variables ([`FlowVars`], built in `contracts.rs`) are the flow set's
//! own entries, so a solution reads straight back into a flow set.

use wsp_lp::VarId;

use crate::contracts::FlowVars;
use crate::flowset::AgentFlowSet;

/// Copies the solved `f`, `f_in` and `f_out` values into `flow`.
pub(crate) fn decode(vars: &FlowVars, value: impl Fn(VarId) -> u64, flow: &mut AgentFlowSet) {
    for ((i, j, k), v) in vars.edge_entries() {
        flow.add_edge_flow(i, j, k, value(v));
    }
    for ((c, p), v) in vars.fin_entries() {
        flow.add_pickup(c, p, value(v));
    }
    for ((c, p), v) in vars.fout_entries() {
        flow.add_dropoff(c, p, value(v));
    }
}

#[cfg(test)]
mod tests {
    use crate::{synthesize_flow, FlowEngine, FlowError, FlowSynthesisOptions};
    use wsp_model::{Direction, GridMap, ProductCatalog, ProductId, Warehouse, Workload};
    use wsp_traffic::{design_perimeter_loop, TrafficSystem};

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
        let flow = synthesize_flow(&w, &ts, &workload, 600, &opts()).unwrap();
        assert!(flow.total_deliveries() >= 10);
        assert!(flow.validate(&w, &ts, &workload).is_empty());
        // Minimization: one delivery per period suffices (600 / t_c periods).
        assert_eq!(flow.total_deliveries_per_period(), 1);
    }

    #[test]
    fn horizon_too_short_rejected() {
        let (w, ts) = tiny(100);
        let workload = Workload::from_demands(vec![1]);
        let err = synthesize_flow(&w, &ts, &workload, ts.cycle_time() - 1, &opts()).unwrap_err();
        assert!(matches!(err, FlowError::HorizonTooShort { .. }));
    }

    #[test]
    fn undersupplied_workload_infeasible() {
        let (w, ts) = tiny(3);
        // Demand exceeds total stock: no flow set can service it.
        let workload = Workload::from_demands(vec![50]);
        let err = synthesize_flow(&w, &ts, &workload, 600, &opts()).unwrap_err();
        assert!(matches!(err, FlowError::Infeasible { .. }));
    }

    #[test]
    fn empty_workload_needs_no_flow() {
        let (w, ts) = tiny(10);
        let workload = Workload::zeros(1);
        let flow = synthesize_flow(&w, &ts, &workload, 600, &opts()).unwrap();
        assert_eq!(flow.total_edge_flow(), 0);
    }

    #[test]
    fn decomposes_into_consistent_cycles() {
        let (w, ts) = tiny(100);
        let workload = Workload::from_demands(vec![10]);
        let flow = synthesize_flow(&w, &ts, &workload, 600, &opts()).unwrap();
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
