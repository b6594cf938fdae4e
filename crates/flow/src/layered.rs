//! The two-layer (loaded/unloaded) circulation engine — the default
//! synthesis path, workload-equivalent to the paper encoding with ~|ρ|×
//! fewer variables.
//!
//! Key observation: after pickup, product identity never constrains
//! routing — any station accepts any product and entry capacities count
//! agents, not products. The encoding therefore tracks one *loaded* flow
//! `L_{i,j}` and one *unloaded* flow `U_{i,j}` per arc, plus per-product
//! pickup rates `P_{i,k}` and per-queue drop-off totals `D_i`. A solution
//! is decoded back to per-product flows `f_{i,j,k}` by walking loaded paths
//! from each pickup and labelling them with the picked product.

use std::collections::BTreeMap;

use wsp_contracts::{AgContract, Predicate, VarRegistry};
use wsp_lp::{LinExpr, Rational, Relation, VarId};
use wsp_model::{ProductId, Workload};
use wsp_traffic::{ComponentId, ComponentKind, TrafficSystem};

use crate::contracts::UnitsAt;
use crate::flowset::{AgentFlowSet, Commodity};
use crate::FlowError;

/// The layered encoding's variables: `L_{i,j}`/`U_{i,j}` per arc,
/// `P_{i,k}` per stocked (shelving row, product), `D_i` per station queue.
pub(crate) struct LayeredVars {
    pub(crate) registry: VarRegistry,
    loaded: BTreeMap<(ComponentId, ComponentId), VarId>,
    unloaded: BTreeMap<(ComponentId, ComponentId), VarId>,
    pickups: BTreeMap<(ComponentId, ProductId), VarId>,
    dropoffs: BTreeMap<ComponentId, VarId>,
}

/// Allocates all layered variables for a traffic system and workload.
pub(crate) fn build_vars(
    units: &UnitsAt,
    traffic: &TrafficSystem,
    workload: &Workload,
) -> LayeredVars {
    let mut registry = VarRegistry::new();
    let mut loaded = BTreeMap::new();
    let mut unloaded = BTreeMap::new();
    for (i, j) in traffic.arcs() {
        loaded.insert((i, j), registry.fresh_int(format!("L_{}_{}", i.0, j.0)));
        unloaded.insert((i, j), registry.fresh_int(format!("U_{}_{}", i.0, j.0)));
    }
    let mut pickups = BTreeMap::new();
    let mut dropoffs = BTreeMap::new();
    for comp in traffic.components() {
        match comp.kind() {
            ComponentKind::ShelvingRow => {
                for (p, _) in workload.iter() {
                    if units.get(comp.id(), p) > 0 {
                        pickups.insert(
                            (comp.id(), p),
                            registry.fresh_int(format!("P_{}_p{}", comp.id().0, p.0)),
                        );
                    }
                }
            }
            ComponentKind::StationQueue => {
                dropoffs.insert(comp.id(), registry.fresh_int(format!("D_{}", comp.id().0)));
            }
            ComponentKind::Transport => {}
        }
    }
    LayeredVars {
        registry,
        loaded,
        unloaded,
        pickups,
        dropoffs,
    }
}

/// The layered component contract of every component: the entry-capacity
/// assumption over both layers; per-layer conservation, stock-rate and
/// pickup-coupling guarantees.
pub(crate) fn component_contracts(
    units: &UnitsAt,
    traffic: &TrafficSystem,
    vars: &LayeredVars,
    periods: u64,
    enforce_capacity: bool,
) -> Vec<AgContract> {
    let mut contracts = Vec::with_capacity(traffic.component_count());
    for comp in traffic.components() {
        let id = comp.id();
        let name = format!("C{}", id.0);

        // Assumption: entry capacity over both layers.
        let mut assume = Predicate::top();
        let mut entering = LinExpr::new();
        for &inl in traffic.inlets(id) {
            if let Some(&v) = vars.loaded.get(&(inl, id)) {
                entering.add_term(v, Rational::ONE);
            }
            if let Some(&v) = vars.unloaded.get(&(inl, id)) {
                entering.add_term(v, Rational::ONE);
            }
        }
        if enforce_capacity {
            assume.require(
                entering,
                Relation::Le,
                Rational::from(comp.capacity() as u64),
                format!("{name} entry capacity"),
            );
        }

        let mut guarantee = Predicate::top();
        let comp_pickups: Vec<((ComponentId, ProductId), VarId)> = vars
            .pickups
            .iter()
            .filter(|(&(c, _), _)| c == id)
            .map(|(&k, &v)| (k, v))
            .collect();

        // Loaded conservation: Σ_out L - Σ_in L - Σ_k P + D = 0.
        let mut loaded_cons = LinExpr::new();
        for &out in traffic.outlets(id) {
            if let Some(&v) = vars.loaded.get(&(id, out)) {
                loaded_cons.add_term(v, Rational::ONE);
            }
        }
        for &inl in traffic.inlets(id) {
            if let Some(&v) = vars.loaded.get(&(inl, id)) {
                loaded_cons.add_term(v, -Rational::ONE);
            }
        }
        for &(_, v) in &comp_pickups {
            loaded_cons.add_term(v, -Rational::ONE);
        }
        if let Some(&d) = vars.dropoffs.get(&id) {
            loaded_cons.add_term(d, Rational::ONE);
        }
        guarantee.require(
            loaded_cons,
            Relation::Eq,
            Rational::ZERO,
            format!("{name} loaded conservation"),
        );

        // Unloaded conservation: Σ_out U - Σ_in U + Σ_k P - D = 0.
        let mut unloaded_cons = LinExpr::new();
        for &out in traffic.outlets(id) {
            if let Some(&v) = vars.unloaded.get(&(id, out)) {
                unloaded_cons.add_term(v, Rational::ONE);
            }
        }
        for &inl in traffic.inlets(id) {
            if let Some(&v) = vars.unloaded.get(&(inl, id)) {
                unloaded_cons.add_term(v, -Rational::ONE);
            }
        }
        for &(_, v) in &comp_pickups {
            unloaded_cons.add_term(v, Rational::ONE);
        }
        if let Some(&d) = vars.dropoffs.get(&id) {
            unloaded_cons.add_term(d, -Rational::ONE);
        }
        guarantee.require(
            unloaded_cons,
            Relation::Eq,
            Rational::ZERO,
            format!("{name} unloaded conservation"),
        );

        // Pickup stock-rate bounds and coupling to unloaded inflow.
        for &((_, p), v) in &comp_pickups {
            guarantee.require(
                LinExpr::var(v),
                Relation::Le,
                Rational::from(units.get(id, p)) / Rational::from(periods.max(1)),
                format!("{name} pickup of {p} bounded by stock rate"),
            );
        }
        if !comp_pickups.is_empty() {
            let mut coupling = LinExpr::new();
            for &(_, v) in &comp_pickups {
                coupling.add_term(v, Rational::ONE);
            }
            for &inl in traffic.inlets(id) {
                if let Some(&v) = vars.unloaded.get(&(inl, id)) {
                    coupling.add_term(v, -Rational::ONE);
                }
            }
            guarantee.require(
                coupling,
                Relation::Le,
                Rational::ZERO,
                format!("{name} pickups bounded by unloaded inflow"),
            );
        }

        contracts.push(AgContract::new(name, assume, guarantee));
    }
    contracts
}

/// The layered workload contract: each product's total pickup rate covers
/// its demand rate.
pub(crate) fn workload_contract(
    workload: &Workload,
    vars: &LayeredVars,
    periods: u64,
) -> AgContract {
    let mut guarantee = Predicate::top();
    for (p, demand) in workload.iter() {
        let mut expr = LinExpr::new();
        for (&(_, prod), &v) in &vars.pickups {
            if prod == p {
                expr.add_term(v, Rational::ONE);
            }
        }
        // In a per-period circulation, deliveries equal pickups product by
        // product, so demanding the pickup rate demands the delivery rate.
        guarantee.require(
            expr,
            Relation::Ge,
            Rational::from(demand) / Rational::from(periods.max(1)),
            format!("workload demand for {p}"),
        );
    }
    AgContract::new("workload", Predicate::top(), guarantee)
}

/// Decodes a solution back to per-product flows: unloaded flow copies
/// over, loaded flow is labelled with products by walking from each
/// pickup.
///
/// # Errors
///
/// [`FlowError::DecompositionStuck`] when a loaded walk finds no way on,
/// [`FlowError::InvalidFlowSet`] when loaded flow is left over.
pub(crate) fn decode(
    vars: &LayeredVars,
    traffic: &TrafficSystem,
    value: impl Fn(VarId) -> u64,
    flow: &mut AgentFlowSet,
) -> Result<(), FlowError> {
    let mut rem_loaded: BTreeMap<(ComponentId, ComponentId), u64> = vars
        .loaded
        .iter()
        .map(|(&arc, &v)| (arc, value(v)))
        .collect();
    let mut rem_drop: BTreeMap<ComponentId, u64> =
        vars.dropoffs.iter().map(|(&c, &v)| (c, value(v))).collect();
    for (&(i, j), &v) in &vars.unloaded {
        flow.add_edge_flow(i, j, Commodity::Unloaded, value(v));
    }

    // Guard budget for the loaded walks: the total loaded flow bounds any
    // single walk's length (computed once, not per pickup unit).
    let total_loaded: u64 = rem_loaded.values().sum();
    for (&(start, product), &pvar) in &vars.pickups {
        let count = value(pvar);
        for _ in 0..count {
            flow.add_pickup(start, product, 1);
            let mut cur = start;
            let mut guard = 0u64;
            loop {
                if let Some(d) = rem_drop.get_mut(&cur) {
                    if *d > 0 {
                        *d -= 1;
                        flow.add_dropoff(cur, product, 1);
                        break;
                    }
                }
                // Take the first arc with remaining loaded flow.
                let next = traffic
                    .outlets(cur)
                    .iter()
                    .copied()
                    .find(|&out| rem_loaded.get(&(cur, out)).copied().unwrap_or(0) > 0);
                let Some(next) = next else {
                    return Err(FlowError::DecompositionStuck {
                        detail: format!(
                            "loaded walk from {start} stuck at {cur} (no drop-off, no arc)"
                        ),
                    });
                };
                *rem_loaded.get_mut(&(cur, next)).expect("arc exists") -= 1;
                flow.add_edge_flow(cur, next, Commodity::Loaded(product), 1);
                cur = next;
                guard += 1;
                if guard > total_loaded + 1 {
                    return Err(FlowError::DecompositionStuck {
                        detail: format!("loaded walk from {start} exceeded flow budget"),
                    });
                }
            }
        }
    }

    // Leftover loaded flow would be a loaded circulation (agents forever
    // carrying a product). Total-flow minimization removes them: any loaded
    // circulation can be deleted, strictly reducing the objective while
    // preserving every constraint. Their presence indicates an encoder bug.
    if rem_loaded.values().any(|&n| n > 0) {
        return Err(FlowError::InvalidFlowSet {
            violations: vec!["leftover loaded circulation after decoding".into()],
        });
    }
    Ok(())
}

/// The minimization objective: total edge flow over both layers.
pub(crate) fn total_flow(vars: &LayeredVars) -> LinExpr {
    let mut obj = LinExpr::new();
    for &v in vars.loaded.values().chain(vars.unloaded.values()) {
        obj.add_term(v, Rational::ONE);
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_flow, FlowEngine, FlowSynthesisOptions};
    use wsp_model::{Direction, GridMap, ProductCatalog, Warehouse};
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

    #[test]
    fn services_small_workload() {
        let (w, ts) = tiny(100);
        let workload = Workload::from_demands(vec![10]);
        let flow =
            synthesize_flow(&w, &ts, &workload, 600, &FlowSynthesisOptions::default()).unwrap();
        assert!(flow.total_deliveries() >= 10);
        assert!(flow.validate(&w, &ts, &workload).is_empty());
    }

    #[test]
    fn agrees_with_paper_encoding_on_team_size() {
        let (w, ts) = tiny(200);
        for demand in [5u64, 20, 40] {
            let workload = Workload::from_demands(vec![demand]);
            let opts = FlowSynthesisOptions::default();
            let layered = synthesize_flow(&w, &ts, &workload, 600, &opts).unwrap();
            let paper_opts = FlowSynthesisOptions {
                engine: FlowEngine::PaperIlp,
                ..opts.clone()
            };
            let paper = synthesize_flow(&w, &ts, &workload, 600, &paper_opts).unwrap();
            // Both minimize total edge flow; the encodings are equivalent,
            // so the optima must match exactly.
            assert_eq!(
                layered.total_edge_flow(),
                paper.total_edge_flow(),
                "demand {demand}"
            );
            assert_eq!(
                layered.total_deliveries_per_period(),
                paper.total_deliveries_per_period()
            );
        }
    }

    #[test]
    fn infeasible_demand_detected() {
        let (w, ts) = tiny(2);
        let workload = Workload::from_demands(vec![500]);
        let err =
            synthesize_flow(&w, &ts, &workload, 600, &FlowSynthesisOptions::default()).unwrap_err();
        assert!(matches!(err, FlowError::Infeasible { .. }));
    }

    #[test]
    fn horizon_too_short_rejected() {
        let (w, ts) = tiny(10);
        let workload = Workload::from_demands(vec![1]);
        let err =
            synthesize_flow(&w, &ts, &workload, 1, &FlowSynthesisOptions::default()).unwrap_err();
        assert!(matches!(err, FlowError::HorizonTooShort { .. }));
    }

    #[test]
    fn decodes_to_consistent_cycles() {
        let (w, ts) = tiny(100);
        let workload = Workload::from_demands(vec![30]);
        let flow =
            synthesize_flow(&w, &ts, &workload, 600, &FlowSynthesisOptions::default()).unwrap();
        let cycles = flow.decompose().unwrap();
        for c in cycles.cycles() {
            assert_eq!(c.carry_inconsistency(), None);
        }
        assert!(cycles.deliveries_per_period() * flow.periods() >= 30);
    }
}
