//! Compilation of the paper's component and workload contracts (§IV-D,
//! Fig. 3) into [`wsp_contracts`] objects over flow variables.
//!
//! This module implements the *paper encoding*: one variable `f_{i,j,k}`
//! per traffic-system arc `(Cᵢ, Cⱼ)` and commodity `k ∈ {ρ₀} ∪ ρ⁺`, where
//! `ρ⁺` is the set of demanded products (flows of undemanded products are
//! zero in some optimal solution, so their variables are pruned).

use std::collections::BTreeMap;

use wsp_contracts::{AgContract, Predicate, VarRegistry};
use wsp_lp::{LinExpr, Rational, Relation, VarId};
use wsp_model::{ProductId, Warehouse, Workload};
use wsp_traffic::{ComponentId, ComponentKind, TrafficSystem};

use crate::flowset::Commodity;

/// The flow-variable namespace of the paper encoding: `f_{i,j,k}` per arc
/// and commodity, `f_in_{i,k}` per stocked (shelving row, product), and
/// `f_out_{i,k}` per (station queue, product).
#[derive(Debug, Clone)]
pub struct FlowVars {
    registry: VarRegistry,
    products: Vec<ProductId>,
    edge: BTreeMap<(ComponentId, ComponentId, Commodity), VarId>,
    fin: BTreeMap<(ComponentId, ProductId), VarId>,
    fout: BTreeMap<(ComponentId, ProductId), VarId>,
}

impl FlowVars {
    /// Allocates all flow variables for a traffic system and workload.
    pub fn build(units: &UnitsAt, traffic: &TrafficSystem, workload: &Workload) -> Self {
        let mut registry = VarRegistry::new();
        let products: Vec<ProductId> = workload.iter().map(|(p, _)| p).collect();

        let mut edge = BTreeMap::new();
        for (i, j) in traffic.arcs() {
            let v = registry.fresh_int(format!("f_{}_{}_u", i.0, j.0));
            edge.insert((i, j, Commodity::Unloaded), v);
            for &p in &products {
                let v = registry.fresh_int(format!("f_{}_{}_p{}", i.0, j.0, p.0));
                edge.insert((i, j, Commodity::Loaded(p)), v);
            }
        }

        let mut fin = BTreeMap::new();
        let mut fout = BTreeMap::new();
        for comp in traffic.components() {
            match comp.kind() {
                ComponentKind::ShelvingRow => {
                    for &p in &products {
                        if units.get(comp.id(), p) > 0 {
                            let v = registry.fresh_int(format!("fin_{}_p{}", comp.id().0, p.0));
                            fin.insert((comp.id(), p), v);
                        }
                    }
                }
                ComponentKind::StationQueue => {
                    for &p in &products {
                        let v = registry.fresh_int(format!("fout_{}_p{}", comp.id().0, p.0));
                        fout.insert((comp.id(), p), v);
                    }
                }
                ComponentKind::Transport => {}
            }
        }

        FlowVars {
            registry,
            products,
            edge,
            fin,
            fout,
        }
    }

    /// The underlying variable registry (for building problems).
    pub fn registry(&self) -> &VarRegistry {
        &self.registry
    }

    /// The demanded products the encoding ranges over.
    pub fn products(&self) -> &[ProductId] {
        &self.products
    }

    /// The variable of flow `f_{i,j,k}`, if allocated.
    pub fn edge(&self, from: ComponentId, to: ComponentId, k: Commodity) -> Option<VarId> {
        self.edge.get(&(from, to, k)).copied()
    }

    /// The variable of `f_in_{i,k}`, if allocated (stocked shelving rows
    /// only).
    pub fn fin(&self, component: ComponentId, product: ProductId) -> Option<VarId> {
        self.fin.get(&(component, product)).copied()
    }

    /// The variable of `f_out_{i,k}`, if allocated (station queues only).
    pub fn fout(&self, component: ComponentId, product: ProductId) -> Option<VarId> {
        self.fout.get(&(component, product)).copied()
    }

    /// The minimization objective: total edge flow (≈ team size).
    pub fn total_flow_objective(&self) -> LinExpr {
        let mut obj = LinExpr::new();
        for &v in self.edge.values() {
            obj.add_term(v, Rational::ONE);
        }
        obj
    }

    /// All edge-variable entries (used to read solutions back).
    pub fn edge_entries(
        &self,
    ) -> impl Iterator<Item = ((ComponentId, ComponentId, Commodity), VarId)> + '_ {
        self.edge.iter().map(|(&k, &v)| (k, v))
    }

    /// All `f_in` entries.
    pub fn fin_entries(&self) -> impl Iterator<Item = ((ComponentId, ProductId), VarId)> + '_ {
        self.fin.iter().map(|(&k, &v)| (k, v))
    }

    /// All `f_out` entries.
    pub fn fout_entries(&self) -> impl Iterator<Item = ((ComponentId, ProductId), VarId)> + '_ {
        self.fout.iter().map(|(&k, &v)| (k, v))
    }
}

/// The paper's `UNITS_AT(Cᵢ, ρₖ)` for every component and product: the
/// units of a product stocked at the shelf-access vertices of a
/// component's path. Built once per compile from the location matrix's
/// entries, so the builders look a value up instead of walking a path.
pub(crate) struct UnitsAt {
    /// Row length: one past the largest stocked product id, so stock the
    /// catalog no longer lists still counts.
    products: usize,
    /// `units[component * products + product]`, saturating at
    /// [`u64::MAX`] like the location matrix.
    units: Vec<u64>,
}

impl UnitsAt {
    /// Sums each stocked `(vertex, product)` entry into the component that
    /// owns the vertex; stock off every component's path counts nowhere.
    pub(crate) fn new(warehouse: &Warehouse, traffic: &TrafficSystem) -> Self {
        let stock = warehouse.location_matrix();
        let products = stock
            .iter()
            .map(|(_, p, _)| p.index() + 1)
            .max()
            .unwrap_or(0);
        let mut units = vec![0u64; traffic.component_count() * products];
        for (v, p, n) in stock.iter() {
            if let Some(c) = traffic.component_of(v) {
                let cell = &mut units[c.index() * products + p.index()];
                *cell = cell.saturating_add(n);
            }
        }
        UnitsAt { products, units }
    }

    /// `UNITS_AT(component, product)`.
    pub(crate) fn get(&self, component: ComponentId, product: ProductId) -> u64 {
        if product.index() < self.products {
            self.units[component.index() * self.products + product.index()]
        } else {
            0
        }
    }
}

/// Builds the component contract `C̃ᵢ` of every component (§IV-D): the
/// assumption is the entry-capacity bound; the guarantees are the transfer
/// bounds and flow-conservation laws.
pub fn component_contracts(
    units: &UnitsAt,
    traffic: &TrafficSystem,
    vars: &FlowVars,
    periods: u64,
    enforce_capacity: bool,
) -> Vec<AgContract> {
    let mut contracts = Vec::with_capacity(traffic.component_count());
    let commodities: Vec<Commodity> = std::iter::once(Commodity::Unloaded)
        .chain(vars.products().iter().map(|&p| Commodity::Loaded(p)))
        .collect();

    for comp in traffic.components() {
        let id = comp.id();
        let name = format!("C{}", id.0);

        // Assumption: Σ_inlets Σ_k f_{j,i,k} <= ⌊|Cᵢ|/2⌋.
        let mut assume = Predicate::top();
        let mut entering = LinExpr::new();
        for &inl in traffic.inlets(id) {
            for &k in &commodities {
                if let Some(v) = vars.edge(inl, id, k) {
                    entering.add_term(v, Rational::ONE);
                }
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
        for &p in vars.products() {
            // f_out_{i,k} <= Σ_inlets f_{j,i,k} (station queues only).
            if let Some(fout) = vars.fout(id, p) {
                let mut expr = LinExpr::var(fout);
                for &inl in traffic.inlets(id) {
                    if let Some(v) = vars.edge(inl, id, Commodity::Loaded(p)) {
                        expr.add_term(v, -Rational::ONE);
                    }
                }
                guarantee.require(
                    expr,
                    Relation::Le,
                    Rational::ZERO,
                    format!("{name} drop-off of {p} bounded by loaded inflow"),
                );
            }
            // f_in_{i,k} <= UNITS_AT(Cᵢ, ρₖ) / q_c (stocked rows only).
            if let Some(fin) = vars.fin(id, p) {
                guarantee.require(
                    LinExpr::var(fin),
                    Relation::Le,
                    Rational::from(units.get(id, p)) / Rational::from(periods.max(1)),
                    format!("{name} pickup of {p} bounded by stock rate"),
                );
            }
            // Per-product conservation:
            // Σ_out f_{i,j,k} - Σ_in f_{j,i,k} - f_in + f_out = 0.
            let mut conserve = LinExpr::new();
            for &out in traffic.outlets(id) {
                if let Some(v) = vars.edge(id, out, Commodity::Loaded(p)) {
                    conserve.add_term(v, Rational::ONE);
                }
            }
            for &inl in traffic.inlets(id) {
                if let Some(v) = vars.edge(inl, id, Commodity::Loaded(p)) {
                    conserve.add_term(v, -Rational::ONE);
                }
            }
            if let Some(fin) = vars.fin(id, p) {
                conserve.add_term(fin, -Rational::ONE);
            }
            if let Some(fout) = vars.fout(id, p) {
                conserve.add_term(fout, Rational::ONE);
            }
            if !conserve.is_zero() {
                guarantee.require(
                    conserve,
                    Relation::Eq,
                    Rational::ZERO,
                    format!("{name} conservation of {p}"),
                );
            }
        }

        // Unloaded conservation:
        // Σ_out f_{i,j,0} - Σ_in f_{j,i,0} + Σ_k f_in - Σ_k f_out = 0.
        let mut conserve = LinExpr::new();
        for &out in traffic.outlets(id) {
            if let Some(v) = vars.edge(id, out, Commodity::Unloaded) {
                conserve.add_term(v, Rational::ONE);
            }
        }
        for &inl in traffic.inlets(id) {
            if let Some(v) = vars.edge(inl, id, Commodity::Unloaded) {
                conserve.add_term(v, -Rational::ONE);
            }
        }
        for &p in vars.products() {
            if let Some(fin) = vars.fin(id, p) {
                conserve.add_term(fin, Rational::ONE);
            }
            if let Some(fout) = vars.fout(id, p) {
                conserve.add_term(fout, -Rational::ONE);
            }
        }
        if !conserve.is_zero() {
            guarantee.require(
                conserve,
                Relation::Eq,
                Rational::ZERO,
                format!("{name} conservation of ρ0"),
            );
        }

        // Pickup coupling: Σ_k f_in_{i,k} <= Σ_inlets f_{j,i,0}.
        let fins: Vec<VarId> = vars
            .products()
            .iter()
            .filter_map(|&p| vars.fin(id, p))
            .collect();
        if !fins.is_empty() {
            let mut expr = LinExpr::new();
            for v in fins {
                expr.add_term(v, Rational::ONE);
            }
            for &inl in traffic.inlets(id) {
                if let Some(v) = vars.edge(inl, id, Commodity::Unloaded) {
                    expr.add_term(v, -Rational::ONE);
                }
            }
            guarantee.require(
                expr,
                Relation::Le,
                Rational::ZERO,
                format!("{name} pickups bounded by unloaded inflow"),
            );
        }

        contracts.push(AgContract::new(name, assume, guarantee));
    }
    contracts
}

/// Builds the workload contract `C̃_w` (§IV-D): no assumptions; guarantees
/// `Σᵢ f_out_{i,k} ≥ w_k / q_c` for every demanded product.
pub fn workload_contract(workload: &Workload, vars: &FlowVars, periods: u64) -> AgContract {
    let mut guarantee = Predicate::top();
    for (p, demand) in workload.iter() {
        let mut expr = LinExpr::new();
        for ((_, prod), var) in vars.fout_entries() {
            if prod == p {
                expr.add_term(var, Rational::ONE);
            }
        }
        // If no station queue can emit this product the expression is empty
        // and the constraint `0 >= w/q` correctly reads as infeasible.
        guarantee.require(
            expr,
            Relation::Ge,
            Rational::from(demand) / Rational::from(periods.max(1)),
            format!("workload demand for {p}"),
        );
    }
    AgContract::new("workload", Predicate::top(), guarantee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::{Direction, GridMap, ProductCatalog};
    use wsp_traffic::design_perimeter_loop;

    fn tiny() -> (Warehouse, TrafficSystem) {
        let grid = GridMap::from_ascii("...\n.#.\n.@.").unwrap();
        let mut w =
            Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West]).unwrap();
        w.set_catalog(ProductCatalog::with_len(2));
        let s = w.shelf_access()[0];
        w.stock(s, ProductId(0), 30).unwrap();
        let ts = design_perimeter_loop(&w, 3).unwrap();
        (w, ts)
    }

    #[test]
    fn vars_prune_to_demanded_products() {
        let (w, ts) = tiny();
        let demanded = Workload::from_demands(vec![5, 0]);
        let vars = FlowVars::build(&UnitsAt::new(&w, &ts), &ts, &demanded);
        assert_eq!(vars.products(), &[ProductId(0)]);
        // Unloaded + 1 product per arc.
        assert_eq!(vars.edge_entries().count(), ts.arc_count() * 2);
        // Only the stocked row gets an fin var.
        assert_eq!(vars.fin_entries().count(), 1);
        // Every queue gets an fout var for the demanded product.
        assert_eq!(vars.fout_entries().count(), ts.station_queues().count());
    }

    #[test]
    fn component_contracts_have_capacity_assumption() {
        let (w, ts) = tiny();
        let workload = Workload::from_demands(vec![5]);
        let units = UnitsAt::new(&w, &ts);
        let vars = FlowVars::build(&units, &ts, &workload);
        let contracts = component_contracts(&units, &ts, &vars, 10, true);
        assert_eq!(contracts.len(), ts.component_count());
        for c in &contracts {
            assert_eq!(c.assumptions().len(), 1);
            assert!(!c.guarantees().is_empty());
            assert!(c.is_consistent(vars.registry()).unwrap());
        }
    }

    #[test]
    fn workload_contract_has_one_demand_per_product() {
        let (w, ts) = tiny();
        let workload = Workload::from_demands(vec![5, 7]);
        let vars = FlowVars::build(&UnitsAt::new(&w, &ts), &ts, &workload);
        let contract = workload_contract(&workload, &vars, 10);
        assert!(contract.assumptions().is_empty());
        assert_eq!(contract.guarantees().len(), 2);
    }

    #[test]
    fn units_at_sums_component_stock() {
        let (w, ts) = tiny();
        let row = ts
            .shelving_rows()
            .find(|&r| {
                ts.component(r)
                    .path()
                    .iter()
                    .any(|&v| w.location_matrix().has_product(v, ProductId(0)))
            })
            .expect("stocked row exists");
        let units = UnitsAt::new(&w, &ts);
        assert_eq!(units.get(row, ProductId(0)), 30);
        assert_eq!(units.get(row, ProductId(1)), 0);
        assert_eq!(units.get(row, ProductId(2)), 0);

        // Stock the catalog no longer lists still counts, as it does on
        // the path walk.
        let mut w = w;
        w.stock(w.shelf_access()[0], ProductId(1), 4).unwrap();
        w.set_catalog(ProductCatalog::with_len(1));
        assert_eq!(UnitsAt::new(&w, &ts).get(row, ProductId(1)), 4);
    }

    /// The table answers exactly what walking a component's path through
    /// the location matrix answers, for every component and every product
    /// id up to one past the largest stocked one, on every sweep design
    /// and paper map.
    #[test]
    fn units_at_table_matches_the_path_walk() {
        let mut maps: Vec<(String, wsp_maps::MapInstance)> = wsp_explore::sorting_center_sweep()
            .iter()
            .map(|c| (c.label(), c.build().expect("sweep design builds")))
            .collect();
        for (label, map) in [
            ("sorting center", wsp_maps::sorting_center()),
            ("fulfillment 1", wsp_maps::fulfillment_center_1()),
            ("fulfillment 2", wsp_maps::fulfillment_center_2()),
        ] {
            maps.push((label.into(), map.expect("paper map builds")));
        }
        assert_eq!(maps.len(), 23);
        for (label, map) in &maps {
            let stock = map.warehouse.location_matrix();
            let units = UnitsAt::new(&map.warehouse, &map.traffic);
            let past_last = stock.iter().map(|(_, p, _)| p.0).max().expect("stocked") + 2;
            for comp in map.traffic.components() {
                for p in (0..past_last).map(ProductId) {
                    let walk = comp
                        .path()
                        .iter()
                        .map(|&v| stock.units_at(v, p))
                        .fold(0u64, u64::saturating_add);
                    assert_eq!(units.get(comp.id(), p), walk, "{label}: {} {p}", comp.id());
                }
            }
        }
    }
}
