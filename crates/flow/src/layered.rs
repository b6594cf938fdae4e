//! The two-layer (loaded/unloaded) circulation engine — the default
//! synthesis path, provably workload-equivalent to the paper encoding with
//! ~|ρ|× fewer variables (DESIGN.md §3.2).
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
use wsp_lp::{solve_ilp_with_scratch, IlpOutcome, IlpScratch, LinExpr, Rational, Relation, VarId};
use wsp_model::{ProductId, Warehouse, Workload};
use wsp_traffic::{ComponentId, ComponentKind, TrafficSystem};

use crate::contracts::units_at;
use crate::flowset::{AgentFlowSet, Commodity};
use crate::{FlowError, FlowSynthesisOptions};

struct LayeredVars {
    registry: VarRegistry,
    loaded: BTreeMap<(ComponentId, ComponentId), VarId>,
    unloaded: BTreeMap<(ComponentId, ComponentId), VarId>,
    pickups: BTreeMap<(ComponentId, ProductId), VarId>,
    dropoffs: BTreeMap<ComponentId, VarId>,
}

fn build_vars(warehouse: &Warehouse, traffic: &TrafficSystem, workload: &Workload) -> LayeredVars {
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
                    if units_at(warehouse, traffic, comp.id(), p) > 0 {
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

fn layered_component_contracts(
    warehouse: &Warehouse,
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
                Rational::from(units_at(warehouse, traffic, id, p))
                    / Rational::from(periods.max(1)),
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

fn layered_workload_contract(workload: &Workload, vars: &LayeredVars, periods: u64) -> AgContract {
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

/// [`synthesize_layered_with_scratch`] on a fresh scratch.
#[cfg(test)]
pub(crate) fn synthesize_layered(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    workload: &Workload,
    t_limit: usize,
    options: &FlowSynthesisOptions,
) -> Result<AgentFlowSet, FlowError> {
    synthesize_layered_with_scratch(
        warehouse,
        traffic,
        workload,
        t_limit,
        options,
        &mut IlpScratch::new(),
    )
}

/// The [`FlowEngine::LayeredIlp`](crate::FlowEngine::LayeredIlp)
/// synthesizer: solves the two-layer circulation encoding on the caller's
/// scratch (for identical constraint skeletons, warm from the converged
/// basis) and decodes it back to per-product flows.
///
/// # Errors
///
/// See [`synthesize_flow`](crate::synthesize_flow).
pub(crate) fn synthesize_layered_with_scratch(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    workload: &Workload,
    t_limit: usize,
    options: &FlowSynthesisOptions,
    scratch: &mut IlpScratch,
) -> Result<AgentFlowSet, FlowError> {
    let (cycle_time, periods) = crate::horizon(traffic, t_limit)?;

    let vars = build_vars(warehouse, traffic, workload);
    let components =
        layered_component_contracts(warehouse, traffic, &vars, periods, !options.skip_capacity);
    let system_contract = AgContract::compose_all("traffic-system", components.iter());
    let full = system_contract.conjoin(&layered_workload_contract(workload, &vars, periods));

    let problem = full.synthesis_problem(&vars.registry, total_flow(&vars));
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
                    "layered encoding: {} demanded units on {} components within {} periods",
                    workload.total_units(),
                    traffic.component_count(),
                    periods
                ),
            })
        }
        IlpOutcome::Unbounded => {
            return Err(FlowError::Infeasible {
                detail: "unbounded flow relaxation (encoder bug)".into(),
            })
        }
    };

    let value = |v: VarId| -> u64 {
        let q = solution.values[v.index()];
        debug_assert!(q.is_integer() && !q.is_negative());
        q.numer().max(0) as u64
    };

    // Decode: label loaded flow with products by walking from each pickup.
    let mut rem_loaded: BTreeMap<(ComponentId, ComponentId), u64> = vars
        .loaded
        .iter()
        .map(|(&arc, &v)| (arc, value(v)))
        .collect();
    let mut rem_drop: BTreeMap<ComponentId, u64> =
        vars.dropoffs.iter().map(|(&c, &v)| (c, value(v))).collect();

    let mut flow = AgentFlowSet::new(cycle_time, periods);
    flow.set_problem_size(problem_dims.0, problem_dims.1);
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

    let violations = flow.validate(warehouse, traffic, workload);
    if !violations.is_empty() {
        return Err(FlowError::InvalidFlowSet { violations });
    }
    Ok(flow)
}

/// Builds the layered encoding with continuous variables (for the
/// real-valued mode of [`crate::synthesize_flow_relaxed`]).
pub(crate) fn relaxed_system(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    workload: &Workload,
    periods: u64,
    enforce_capacity: bool,
) -> (VarRegistry, AgContract, LinExpr) {
    let vars = build_vars(warehouse, traffic, workload);
    let components =
        layered_component_contracts(warehouse, traffic, &vars, periods, enforce_capacity);
    let system = AgContract::compose_all("traffic-system", components.iter());
    let full = system.conjoin(&layered_workload_contract(workload, &vars, periods));
    let objective = total_flow(&vars);
    (
        crate::relaxed::relax_registry(&vars.registry),
        full,
        objective,
    )
}

fn total_flow(vars: &LayeredVars) -> LinExpr {
    let mut obj = LinExpr::new();
    for &v in vars.loaded.values().chain(vars.unloaded.values()) {
        obj.add_term(v, Rational::ONE);
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_paper, FlowSynthesisOptions};
    use wsp_model::{Direction, GridMap, ProductCatalog};
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
            synthesize_layered(&w, &ts, &workload, 600, &FlowSynthesisOptions::default()).unwrap();
        assert!(flow.total_deliveries() >= 10);
        assert!(flow.validate(&w, &ts, &workload).is_empty());
    }

    #[test]
    fn agrees_with_paper_encoding_on_team_size() {
        let (w, ts) = tiny(200);
        for demand in [5u64, 20, 40] {
            let workload = Workload::from_demands(vec![demand]);
            let opts = FlowSynthesisOptions::default();
            let layered = synthesize_layered(&w, &ts, &workload, 600, &opts).unwrap();
            let paper = synthesize_paper(&w, &ts, &workload, 600, &opts).unwrap();
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
        let err = synthesize_layered(&w, &ts, &workload, 600, &FlowSynthesisOptions::default())
            .unwrap_err();
        assert!(matches!(err, FlowError::Infeasible { .. }));
    }

    #[test]
    fn horizon_too_short_rejected() {
        let (w, ts) = tiny(10);
        let workload = Workload::from_demands(vec![1]);
        let err = synthesize_layered(&w, &ts, &workload, 1, &FlowSynthesisOptions::default())
            .unwrap_err();
        assert!(matches!(err, FlowError::HorizonTooShort { .. }));
    }

    #[test]
    fn decodes_to_consistent_cycles() {
        let (w, ts) = tiny(100);
        let workload = Workload::from_demands(vec![30]);
        let flow =
            synthesize_layered(&w, &ts, &workload, 600, &FlowSynthesisOptions::default()).unwrap();
        let cycles = flow.decompose().unwrap();
        for c in cycles.cycles() {
            assert_eq!(c.carry_inconsistency(), None);
        }
        assert!(cycles.deliveries_per_period() * flow.periods() >= 30);
    }
}
