//! Agent flow sets: the per-cycle-period flow of agents between components
//! (§IV-D), with exact integer validation against the contract constraints.

use std::collections::BTreeMap;
use std::fmt;

use wsp_model::{ProductId, Warehouse, Workload};
use wsp_traffic::{ComponentId, ComponentKind, TrafficSystem};

use crate::cycles::AgentCycleSet;
use crate::FlowError;

/// What an agent on a flow is carrying: the paper's index `k ∈ {0} ∪ ρ`,
/// with `Unloaded` playing the role of `ρ₀`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Commodity {
    /// Unburdened agents (`k = 0`).
    Unloaded,
    /// Agents carrying one unit of the product.
    Loaded(ProductId),
}

impl Commodity {
    /// The carried product, if any.
    pub fn product(self) -> Option<ProductId> {
        match self {
            Commodity::Unloaded => None,
            Commodity::Loaded(p) => Some(p),
        }
    }
}

impl fmt::Display for Commodity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Commodity::Unloaded => f.write_str("ρ0"),
            Commodity::Loaded(p) => write!(f, "{p}"),
        }
    }
}

/// An agent flow set `F := {f_{i,j,k}}` (§IV-D): for every traffic-system
/// arc and commodity, the number of agents crossing it each cycle period,
/// plus the per-component transfer rates `f_in` (shelf pickups) and `f_out`
/// (station drop-offs).
///
/// Produced by [`synthesize_flow`](crate::synthesize_flow); consumed by
/// [`AgentFlowSet::decompose`], which turns it into agent cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentFlowSet {
    cycle_time: usize,
    periods: u64,
    edges: BTreeMap<(ComponentId, ComponentId, Commodity), u64>,
    pickups: BTreeMap<(ComponentId, ProductId), u64>,
    dropoffs: BTreeMap<(ComponentId, ProductId), u64>,
    /// ILP dimensions of the synthesis problem that produced this set
    /// (variables, constraints); `(0, 0)` for hand-built sets.
    problem_size: (usize, usize),
}

impl AgentFlowSet {
    /// Creates an empty flow set for a system with the given cycle time
    /// `t_c` and number of executable cycle periods `q_c = ⌊T/t_c⌋`.
    pub fn new(cycle_time: usize, periods: u64) -> Self {
        AgentFlowSet {
            cycle_time,
            periods,
            edges: BTreeMap::new(),
            pickups: BTreeMap::new(),
            dropoffs: BTreeMap::new(),
            problem_size: (0, 0),
        }
    }

    /// The cycle time `t_c` (timesteps per cycle period).
    pub fn cycle_time(&self) -> usize {
        self.cycle_time
    }

    /// Records the ILP dimensions of the synthesis problem this set was
    /// decoded from (called by the synthesis engines).
    pub fn set_problem_size(&mut self, variables: usize, constraints: usize) {
        self.problem_size = (variables, constraints);
    }

    /// The `(variables, constraints)` dimensions of the synthesis ILP, or
    /// `(0, 0)` for hand-built sets.
    pub fn problem_size(&self) -> (usize, usize) {
        self.problem_size
    }

    /// A deterministic, machine-independent proxy for flow-synthesis cost:
    /// `variables + constraints` of the synthesis ILP. Unlike wall-clock
    /// time this is identical run to run (and thread count to thread
    /// count), which is what lets `wsp-explore` rank candidate designs on
    /// synthesis cost while keeping Pareto fronts byte-reproducible.
    pub fn synthesis_cost(&self) -> u64 {
        (self.problem_size.0 + self.problem_size.1) as u64
    }

    /// The number of cycle periods `q_c` executable within the plan horizon.
    pub fn periods(&self) -> u64 {
        self.periods
    }

    /// Adds `count` agents per period to the arc `(from, to)` carrying
    /// `commodity`.
    pub fn add_edge_flow(
        &mut self,
        from: ComponentId,
        to: ComponentId,
        commodity: Commodity,
        count: u64,
    ) {
        if count == 0 {
            return;
        }
        *self.edges.entry((from, to, commodity)).or_insert(0) += count;
    }

    /// Adds `count` per-period pickups of `product` at `component` (`f_in`).
    pub fn add_pickup(&mut self, component: ComponentId, product: ProductId, count: u64) {
        if count == 0 {
            return;
        }
        *self.pickups.entry((component, product)).or_insert(0) += count;
    }

    /// Adds `count` per-period drop-offs of `product` at `component`
    /// (`f_out`).
    pub fn add_dropoff(&mut self, component: ComponentId, product: ProductId, count: u64) {
        if count == 0 {
            return;
        }
        *self.dropoffs.entry((component, product)).or_insert(0) += count;
    }

    /// The flow `f_{i,j,k}` on an arc for one commodity.
    pub fn edge_flow(&self, from: ComponentId, to: ComponentId, commodity: Commodity) -> u64 {
        self.edges.get(&(from, to, commodity)).copied().unwrap_or(0)
    }

    /// The pickup rate `f_in_{i,k}`.
    pub fn pickup(&self, component: ComponentId, product: ProductId) -> u64 {
        self.pickups
            .get(&(component, product))
            .copied()
            .unwrap_or(0)
    }

    /// The drop-off rate `f_out_{i,k}`.
    pub fn dropoff(&self, component: ComponentId, product: ProductId) -> u64 {
        self.dropoffs
            .get(&(component, product))
            .copied()
            .unwrap_or(0)
    }

    /// All non-zero edge flows as `(from, to, commodity, count)`.
    pub fn edge_flows(
        &self,
    ) -> impl Iterator<Item = (ComponentId, ComponentId, Commodity, u64)> + '_ {
        self.edges.iter().map(|(&(i, j, k), &n)| (i, j, k, n))
    }

    /// All non-zero pickups as `(component, product, count)`.
    pub fn pickups(&self) -> impl Iterator<Item = (ComponentId, ProductId, u64)> + '_ {
        self.pickups.iter().map(|(&(c, p), &n)| (c, p, n))
    }

    /// All non-zero drop-offs as `(component, product, count)`.
    pub fn dropoffs(&self) -> impl Iterator<Item = (ComponentId, ProductId, u64)> + '_ {
        self.dropoffs.iter().map(|(&(c, p), &n)| (c, p, n))
    }

    /// Total agents crossing arcs per period. In a realized plan every unit
    /// of edge flow corresponds to one agent slot, so this equals the team
    /// size the plan will employ.
    pub fn total_edge_flow(&self) -> u64 {
        self.edges.values().sum()
    }

    /// Units of `product` delivered to stations per cycle period
    /// (`Σᵢ f_out_{i,k}`).
    pub fn deliveries_per_period(&self, product: ProductId) -> u64 {
        self.dropoffs
            .iter()
            .filter(|(&(_, p), _)| p == product)
            .map(|(_, &n)| n)
            .sum()
    }

    /// Total units (all products) delivered per cycle period.
    pub fn total_deliveries_per_period(&self) -> u64 {
        self.dropoffs.values().sum()
    }

    /// Total units deliverable within the plan horizon
    /// (`q_c · Σ f_out`).
    pub fn total_deliveries(&self) -> u64 {
        self.total_deliveries_per_period() * self.periods
    }

    /// Total agents entering component `to` per period, over all inlets and
    /// commodities.
    pub fn entering_flow(&self, to: ComponentId) -> u64 {
        self.edges
            .iter()
            .filter(|(&(_, j, _), _)| j == to)
            .map(|(_, &n)| n)
            .sum()
    }

    /// Exact integer validation of every §IV-D contract constraint.
    /// Returns a human-readable list of violations (empty = valid).
    pub fn validate(
        &self,
        warehouse: &Warehouse,
        traffic: &TrafficSystem,
        workload: &Workload,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let stock = warehouse.location_matrix();
        // Conservation is checked for every product a flow, pickup or
        // drop-off names.
        let products: std::collections::BTreeSet<ProductId> = self
            .edges
            .keys()
            .filter_map(|&(_, _, k)| k.product())
            .chain(self.pickups.keys().map(|&(_, p)| p))
            .chain(self.dropoffs.keys().map(|&(_, p)| p))
            .collect();

        // Flows only on traffic-system arcs (outlet slices are 1-2 long).
        for (i, j, k, n) in self.edge_flows() {
            let is_arc = i.index() < traffic.component_count() && traffic.outlets(i).contains(&j);
            if !is_arc {
                violations.push(format!("flow {n}x{k} on non-arc {i}->{j}"));
            }
        }

        for comp in traffic.components() {
            let id = comp.id();
            // Assumption: entry capacity.
            let entering = self.entering_flow(id);
            if entering > comp.capacity() as u64 {
                violations.push(format!(
                    "{id}: {entering} agents enter per period, capacity {}",
                    comp.capacity()
                ));
            }

            // Pickups only at shelving rows, within stock rate. UNITS_AT
            // is summed for every picked product by one walk of the path,
            // independent of the encoder's table.
            let picks: Vec<(ProductId, u64)> = self
                .pickups
                .range((id, ProductId(0))..=(id, ProductId(u32::MAX)))
                .map(|(&(_, p), &n)| (p, n))
                .collect();
            let mut units_at = vec![0u64; picks.len()];
            if !picks.is_empty() {
                for &v in comp.path() {
                    for (q, units) in stock.products_at(v) {
                        if let Ok(k) = picks.binary_search_by_key(&q, |&(p, _)| p) {
                            units_at[k] = units_at[k].saturating_add(units);
                        }
                    }
                }
            }
            for (&(p, n), &units) in picks.iter().zip(&units_at) {
                if comp.kind() != ComponentKind::ShelvingRow {
                    violations.push(format!("{id}: pickup of {p} outside a shelving row"));
                }
                // f_in <= UNITS_AT / q_c, i.e. q_c * f_in <= UNITS_AT.
                if n.saturating_mul(self.periods) > units {
                    violations.push(format!(
                        "{id}: picks {n}/{p} per period x {} periods exceeds stock {units}",
                        self.periods
                    ));
                }
            }
            // Drop-offs only at station queues, bounded by loaded inflow.
            for (&(c, p), &n) in &self.dropoffs {
                if c != id {
                    continue;
                }
                if comp.kind() != ComponentKind::StationQueue {
                    violations.push(format!("{id}: drop-off of {p} outside a station queue"));
                }
                let loaded_in: u64 = traffic
                    .inlets(id)
                    .iter()
                    .map(|&inl| self.edge_flow(inl, id, Commodity::Loaded(p)))
                    .sum();
                if n > loaded_in {
                    violations.push(format!(
                        "{id}: drops {n}/{p} but only {loaded_in} loaded agents enter"
                    ));
                }
            }

            // Pickup coupling: total pickups bounded by unloaded inflow.
            let total_pickups: u64 = picks.iter().map(|&(_, n)| n).sum();
            let unloaded_in: u64 = traffic
                .inlets(id)
                .iter()
                .map(|&inl| self.edge_flow(inl, id, Commodity::Unloaded))
                .sum();
            if total_pickups > unloaded_in {
                violations.push(format!(
                    "{id}: {total_pickups} pickups but only {unloaded_in} unloaded agents enter"
                ));
            }

            // Conservation per product and for unloaded agents.
            for &p in &products {
                let inflow: u64 = traffic
                    .inlets(id)
                    .iter()
                    .map(|&inl| self.edge_flow(inl, id, Commodity::Loaded(p)))
                    .sum();
                let outflow: u64 = traffic
                    .outlets(id)
                    .iter()
                    .map(|&out| self.edge_flow(id, out, Commodity::Loaded(p)))
                    .sum();
                let fin = self.pickup(id, p);
                let fout = self.dropoff(id, p);
                if outflow + fout != inflow + fin {
                    violations.push(format!(
                        "{id}/{p}: conservation broken (out {outflow} + drop {fout} != in {inflow} + pick {fin})"
                    ));
                }
            }
            let u_in: u64 = traffic
                .inlets(id)
                .iter()
                .map(|&inl| self.edge_flow(inl, id, Commodity::Unloaded))
                .sum();
            let u_out: u64 = traffic
                .outlets(id)
                .iter()
                .map(|&out| self.edge_flow(id, out, Commodity::Unloaded))
                .sum();
            let total_drops: u64 = self
                .dropoffs
                .iter()
                .filter(|(&(c, _), _)| c == id)
                .map(|(_, &n)| n)
                .sum();
            if u_out + total_pickups != u_in + total_drops {
                violations.push(format!(
                    "{id}/ρ0: conservation broken (out {u_out} + pick {total_pickups} != in {u_in} + drop {total_drops})"
                ));
            }
        }

        // Workload contract: q_c * Σᵢ f_out_{i,k} >= w_k.
        for (p, demand) in workload.iter() {
            let rate = self.deliveries_per_period(p);
            if rate.saturating_mul(self.periods) < demand {
                violations.push(format!(
                    "workload: {p} delivers {rate}/period x {} periods < demand {demand}",
                    self.periods
                ));
            }
        }

        violations
    }

    /// Decomposes the flow set into an agent cycle set via the
    /// commodity-switching graph (§IV-E, strengthened so that no pairing
    /// of loaded with unloaded paths is needed).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::DecompositionStuck`] if the flow set is not
    /// balanced (cannot happen for flow sets that pass [`validate`]).
    ///
    /// [`validate`]: AgentFlowSet::validate
    pub fn decompose(&self) -> Result<AgentCycleSet, FlowError> {
        crate::decompose::decompose(self)
    }
}

impl fmt::Display for AgentFlowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flow set: {} edge flows, {} agents/period, {} deliveries/period over {} periods (t_c = {})",
            self.edges.len(),
            self.total_edge_flow(),
            self.total_deliveries_per_period(),
            self.periods,
            self.cycle_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ComponentId {
        ComponentId(i)
    }
    fn p(i: u32) -> ProductId {
        ProductId(i)
    }

    #[test]
    fn accessors_and_totals() {
        let mut fs = AgentFlowSet::new(10, 6);
        fs.add_edge_flow(c(0), c(1), Commodity::Loaded(p(0)), 2);
        fs.add_edge_flow(c(1), c(0), Commodity::Unloaded, 2);
        fs.add_pickup(c(0), p(0), 2);
        fs.add_dropoff(c(1), p(0), 2);
        assert_eq!(fs.edge_flow(c(0), c(1), Commodity::Loaded(p(0))), 2);
        assert_eq!(fs.edge_flow(c(0), c(1), Commodity::Unloaded), 0);
        assert_eq!(fs.total_edge_flow(), 4);
        assert_eq!(fs.deliveries_per_period(p(0)), 2);
        assert_eq!(fs.total_deliveries(), 12);
        assert_eq!(fs.entering_flow(c(1)), 2);
        assert_eq!(fs.cycle_time(), 10);
        assert_eq!(fs.periods(), 6);
    }

    #[test]
    fn zero_adds_are_noops() {
        let mut fs = AgentFlowSet::new(4, 1);
        fs.add_edge_flow(c(0), c(1), Commodity::Unloaded, 0);
        fs.add_pickup(c(0), p(0), 0);
        fs.add_dropoff(c(0), p(0), 0);
        assert_eq!(fs.edge_flows().count(), 0);
        assert_eq!(fs.pickups().count(), 0);
        assert_eq!(fs.dropoffs().count(), 0);
    }

    /// A 3×3 ring around one shelf: `C0` is the station-side bottom row
    /// (a station queue of capacity 1), `C1` the rest of the ring (a
    /// shelving row of capacity 2 whose west access cell stocks 100 units
    /// of `ρ1`).
    fn ring() -> (Warehouse, TrafficSystem) {
        use wsp_model::{Coord, Direction, GridMap, ProductCatalog};
        let grid = GridMap::from_ascii("...\n.#.\n.@.").unwrap();
        let mut w =
            Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West]).unwrap();
        w.set_catalog(ProductCatalog::with_len(1));
        let west_access = w.graph().vertex_at(Coord::new(0, 1)).unwrap();
        w.stock(west_access, p(0), 100).unwrap();
        let mut b = wsp_traffic::TrafficSystemBuilder::new();
        let queue = b
            .add_component_coords(&w, [(0, 0), (1, 0), (2, 0)])
            .unwrap();
        let row = b
            .add_component_coords(&w, [(2, 1), (2, 2), (1, 2), (0, 2), (0, 1)])
            .unwrap();
        b.connect(queue, row).connect(row, queue);
        let ts = b.build(&w).unwrap();
        (w, ts)
    }

    /// One agent per period picks `ρ1` on `C1`, carries it to `C0`, drops
    /// it and returns unloaded: valid for a demand of up to `periods`.
    fn one_agent_loop(periods: u64) -> AgentFlowSet {
        let mut fs = AgentFlowSet::new(10, periods);
        fs.add_edge_flow(c(1), c(0), Commodity::Loaded(p(0)), 1);
        fs.add_edge_flow(c(0), c(1), Commodity::Unloaded, 1);
        fs.add_pickup(c(1), p(0), 1);
        fs.add_dropoff(c(0), p(0), 1);
        fs
    }

    #[test]
    fn validate_reports_every_rule_violation() {
        let (w, ts) = ring();
        let demand = Workload::from_demands(vec![6]);
        assert_eq!(
            one_agent_loop(6).validate(&w, &ts, &demand),
            Vec::<String>::new()
        );
        type Mutation = fn(&mut AgentFlowSet);
        let cases: [(&str, u64, u64, Mutation, &[&str]); 10] = [
            (
                "off-arc flow",
                6,
                6,
                |fs| fs.add_edge_flow(c(7), c(1), Commodity::Unloaded, 1),
                &["flow 1xρ0 on non-arc C7->C1"],
            ),
            (
                "entry capacity",
                6,
                6,
                |fs| {
                    fs.add_edge_flow(c(1), c(0), Commodity::Loaded(p(0)), 1);
                    fs.add_edge_flow(c(0), c(1), Commodity::Unloaded, 1);
                    fs.add_pickup(c(1), p(0), 1);
                    fs.add_dropoff(c(0), p(0), 1);
                },
                &["C0: 2 agents enter per period, capacity 1"],
            ),
            (
                "pickup outside a shelving row",
                6,
                6,
                |fs| fs.add_pickup(c(0), p(0), 1),
                &[
                    "C0: pickup of ρ1 outside a shelving row",
                    "C0: picks 1/ρ1 per period x 6 periods exceeds stock 0",
                    "C0: 1 pickups but only 0 unloaded agents enter",
                    "C0/ρ1: conservation broken (out 0 + drop 1 != in 1 + pick 1)",
                    "C0/ρ0: conservation broken (out 1 + pick 1 != in 0 + drop 1)",
                ],
            ),
            (
                "pickup over stock",
                200,
                6,
                |_| {},
                &["C1: picks 1/ρ1 per period x 200 periods exceeds stock 100"],
            ),
            (
                "drop-off outside a station queue",
                6,
                6,
                |fs| fs.add_dropoff(c(1), p(0), 1),
                &[
                    "C1: drop-off of ρ1 outside a station queue",
                    "C1: drops 1/ρ1 but only 0 loaded agents enter",
                    "C1/ρ1: conservation broken (out 1 + drop 1 != in 0 + pick 1)",
                    "C1/ρ0: conservation broken (out 0 + pick 1 != in 1 + drop 1)",
                ],
            ),
            (
                "drop-off over loaded inflow",
                6,
                6,
                |fs| fs.add_dropoff(c(0), p(0), 1),
                &[
                    "C0: drops 2/ρ1 but only 1 loaded agents enter",
                    "C0/ρ1: conservation broken (out 0 + drop 2 != in 1 + pick 0)",
                    "C0/ρ0: conservation broken (out 1 + pick 0 != in 0 + drop 2)",
                ],
            ),
            (
                "pickups over unloaded inflow",
                6,
                6,
                |fs| fs.add_pickup(c(1), p(0), 1),
                &[
                    "C1: 2 pickups but only 1 unloaded agents enter",
                    "C1/ρ1: conservation broken (out 1 + drop 0 != in 0 + pick 2)",
                    "C1/ρ0: conservation broken (out 0 + pick 2 != in 1 + drop 0)",
                ],
            ),
            (
                "per-product conservation",
                6,
                6,
                |fs| fs.add_edge_flow(c(0), c(1), Commodity::Loaded(p(0)), 1),
                &[
                    "C0/ρ1: conservation broken (out 1 + drop 1 != in 1 + pick 0)",
                    "C1/ρ1: conservation broken (out 1 + drop 0 != in 1 + pick 1)",
                ],
            ),
            (
                "ρ0 conservation",
                6,
                6,
                |fs| fs.add_edge_flow(c(0), c(1), Commodity::Unloaded, 1),
                &[
                    "C0/ρ0: conservation broken (out 2 + pick 0 != in 0 + drop 1)",
                    "C1/ρ0: conservation broken (out 0 + pick 1 != in 2 + drop 0)",
                ],
            ),
            (
                "workload shortfall",
                6,
                7,
                |_| {},
                &["workload: ρ1 delivers 1/period x 6 periods < demand 7"],
            ),
        ];
        for (rule, periods, demand, mutate, want) in cases {
            let mut fs = one_agent_loop(periods);
            mutate(&mut fs);
            let got = fs.validate(&w, &ts, &Workload::from_demands(vec![demand]));
            assert_eq!(got, want, "{rule}");
        }
    }

    #[test]
    fn display_mentions_sizes() {
        let fs = AgentFlowSet::new(8, 3);
        let s = fs.to_string();
        assert!(s.contains("t_c = 8"));
        assert!(s.contains("3 periods"));
    }
}
