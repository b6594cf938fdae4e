//! The component-timestep realization algorithm (Algorithm 1).

use std::collections::VecDeque;

use wsp_flow::{AgentCycleSet, CycleAction};
use wsp_model::{AgentState, Carry, Plan, ProductId, VertexId, Warehouse, Workload};
use wsp_traffic::{ComponentId, TrafficSystem};

use crate::RealizeError;

/// The result of realizing an agent cycle set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealizeOutcome {
    /// The realized plan (initial placement at `t = 0`).
    pub plan: Plan,
    /// Units of each product delivered, indexed by product id.
    pub delivered: Vec<u64>,
    /// Timesteps actually executed (≤ the requested limit; realization
    /// stops as soon as the workload is serviced).
    pub timesteps: usize,
    /// Number of agents in the plan.
    pub agents: usize,
    /// First-revolution pickup opportunities that were skipped because the
    /// agent was initially placed past its component's stocked shelf cell.
    /// Always zero from the second revolution on.
    pub pickup_misses: u64,
    /// Period/agent pairs where an agent failed to advance a component
    /// within one cycle period. Property 4.1 promises zero for cycle sets
    /// within component capacities.
    pub missed_advances: u64,
}

#[derive(Debug)]
struct AgentRt {
    cycle: usize,
    step: usize,
    /// The current step's component and action, refreshed at each hop so
    /// the stepping loop never re-reads the cycle set.
    component: ComponentId,
    action: CycleAction,
    pos: VertexId,
    /// Offset of `pos` on the current component's path (0 = entry),
    /// maintained incrementally (+1 on internal moves, 0 on hops) so the
    /// stepping loop never pays a path scan; meaningless for strays.
    path_off: u32,
    /// Timestep at which the agent entered its current component
    /// (`ADVANCE_T`); `-1` lets every agent hop in the very first period.
    advance_t: i64,
    carry: Option<ProductId>,
    /// Off its component's path (a window-resume snapshot of an agent in
    /// repair transit): stays parked as a static obstacle for the whole
    /// window — it neither moves, acts, nor counts toward diagnostics.
    stray: bool,
}

/// A resumable per-agent runtime snapshot: everything the realization
/// stepping needs to continue an agent mid-execution. Produced by
/// [`initial_snapshots`] and [`WindowOutcome::final_states`], consumed by
/// [`realize_window`] — the rolling-horizon entry point `wsp-sim` replans
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentSnapshot {
    /// Index of the agent's cycle in the [`AgentCycleSet`].
    pub cycle: usize,
    /// Current step within that cycle.
    pub step: usize,
    /// Current vertex.
    pub pos: VertexId,
    /// Carried product, if any.
    pub carry: Option<ProductId>,
    /// Absolute timestep at which the agent last entered a component
    /// (`-1` allows a hop in the very first period).
    pub advance_t: i64,
}

/// The result of realizing one rolling-horizon window from a set of
/// [`AgentSnapshot`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowOutcome {
    /// The window-local plan: state `0` is the snapshot configuration,
    /// state `k` the configuration `k` ticks later.
    pub plan: Plan,
    /// Units of each product delivered within the window, by product id.
    pub delivered: Vec<u64>,
    /// Ticks realized (always the requested window length).
    pub timesteps: usize,
    /// Agent states at the end of the window, ready to seed the next one.
    pub final_states: Vec<AgentSnapshot>,
    /// Period/agent pairs that failed to advance a component within one
    /// cycle period during this window (strays excluded).
    pub missed_advances: u64,
    /// Pickup steps hopped out of empty-handed during this window.
    pub pickup_misses: u64,
}

/// Reusable scratch for [`realize`]: the per-component conveyor queues,
/// the agent runtime states, the dense stray and stock flags, and the
/// remaining-stock ledger, kept across calls so repeated realizations (the
/// staged pipeline evaluating one design candidate after another) are
/// allocation-light — after the first call on a warehouse of a given size,
/// a realization allocates only its outputs (the plan, the delivery counts
/// and a window's final states).
///
/// Between calls the per-vertex flags need no clearing pass: stray flags
/// are cleared from the previous call's strays on entry (strays never
/// move), and stock flags are call-stamped, so one scratch can be reused
/// across warehouses of different sizes; the tables grow on entry.
#[derive(Debug, Default)]
pub struct RealizeScratch {
    agents: Vec<AgentRt>,
    stock: wsp_model::LocationMatrix,
    /// Per component, its non-stray residents exit-first (descending path
    /// offset): a conveyor that pops hoppers at the front and pushes
    /// arrivals at the back.
    queues: Vec<VecDeque<u32>>,
    /// Per component, the tail's path offset at the current tick's time
    /// `t` ([`NO_TAIL`] when empty).
    tails: Vec<u32>,
    /// Per component, the tick stamp (`local_t + 1`) of the last hop that
    /// claimed its entry.
    entry_claims: Vec<u32>,
    /// Per component, whether a stray is parked on its path.
    has_stray: Vec<bool>,
    /// Per vertex, whether a stray is parked there.
    stray_at: Vec<bool>,
    /// Per vertex, the stamp of the last call whose ledger stocked it when
    /// the call started; a cell stamped otherwise holds nothing to pick.
    stocked: Vec<u32>,
    /// Stamp of the current call in `stocked`.
    call: u32,
    /// This tick's hops: the agent and the component it left.
    hops: Vec<(u32, ComponentId)>,
}

/// [`RealizeScratch::tails`] entry of an empty component.
const NO_TAIL: u32 = u32::MAX;

impl RealizeScratch {
    /// A fresh, empty scratch (tables grow on first use).
    pub fn new() -> Self {
        RealizeScratch::default()
    }

    /// Clears the previous call's stray flags, sizes every table and
    /// starts a new stock stamp.
    fn prepare(&mut self, n_vertices: usize, n_components: usize) {
        for a in self.agents.iter().filter(|a| a.stray) {
            self.stray_at[a.pos.index()] = false;
        }
        if self.stray_at.len() < n_vertices {
            self.stray_at.resize(n_vertices, false);
            self.stocked.resize(n_vertices, 0);
        }
        if self.queues.len() < n_components {
            self.queues.resize_with(n_components, VecDeque::new);
            self.tails.resize(n_components, NO_TAIL);
            self.entry_claims.resize(n_components, 0);
            self.has_stray.resize(n_components, false);
        }
        if self.call == u32::MAX {
            self.stocked.fill(0);
            self.call = 0;
        }
        self.call += 1;
        self.agents.clear();
        self.hops.clear();
    }
}

/// Realizes an agent cycle set into a discrete plan, stepping all
/// components for up to `t_limit` timesteps (stopping early once
/// `workload`, if given, is fully delivered).
///
/// # Errors
///
/// Returns [`RealizeError`] if the cycle set violates the Property 4.1
/// capacity precondition, references unknown components or missing arcs, or
/// is internally inconsistent.
pub fn realize(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    cycles: &AgentCycleSet,
    workload: Option<&Workload>,
    t_limit: usize,
) -> Result<RealizeOutcome, RealizeError> {
    realize_with_scratch(
        warehouse,
        traffic,
        cycles,
        workload,
        t_limit,
        &mut RealizeScratch::new(),
    )
}

/// [`realize`] reusing caller-owned [`RealizeScratch`] tables, for batch
/// evaluation loops that realize many cycle sets back to back.
///
/// # Errors
///
/// As for [`realize`].
pub fn realize_with_scratch(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    cycles: &AgentCycleSet,
    workload: Option<&Workload>,
    t_limit: usize,
    scratch: &mut RealizeScratch,
) -> Result<RealizeOutcome, RealizeError> {
    validate_cycles(traffic, cycles)?;
    let states = place(traffic, cycles);
    let mut plan = load_snapshots(warehouse, traffic, cycles, &states, scratch);

    // Remaining stock ledger for pickup accounting (`clone_from` reuses the
    // ledger's nodes across calls).
    let mut stock = std::mem::take(&mut scratch.stock);
    stock.clone_from(warehouse.location_matrix());
    let mut delivered = vec![0u64; warehouse.catalog().len()];
    let run = run_ticks(
        warehouse,
        traffic,
        cycles,
        workload,
        0,
        t_limit,
        &mut stock,
        &mut delivered,
        &mut plan,
        scratch,
    );
    scratch.stock = stock;

    Ok(RealizeOutcome {
        plan,
        delivered,
        timesteps: run.executed,
        agents: states.len(),
        pickup_misses: run.pickup_misses,
        missed_advances: run.missed_advances,
    })
}

/// The initial agent placement of [`realize`], as resumable snapshots:
/// every agent parked on the entry-side cells of its first component,
/// unburdened, free to hop in the first period. Seed state for a
/// [`realize_window`] rolling horizon.
///
/// # Errors
///
/// As for [`realize`] (the cycle set is validated the same way).
pub fn initial_snapshots(
    traffic: &TrafficSystem,
    cycles: &AgentCycleSet,
) -> Result<Vec<AgentSnapshot>, RealizeError> {
    validate_cycles(traffic, cycles)?;
    Ok(place(traffic, cycles))
}

/// The placement behind [`initial_snapshots`] for a validated cycle set:
/// each component's residents, in (cycle, step) order, fill its path from
/// the entry (capacity was validated, so they fit).
fn place(traffic: &TrafficSystem, cycles: &AgentCycleSet) -> Vec<AgentSnapshot> {
    let mut residents: Vec<Vec<(usize, usize)>> = vec![Vec::new(); traffic.component_count()];
    for (ci, cycle) in cycles.cycles().iter().enumerate() {
        for (si, step) in cycle.steps().iter().enumerate() {
            residents[step.component.index()].push((ci, si));
        }
    }
    let mut snapshots = Vec::with_capacity(cycles.total_agents());
    for comp in traffic.components() {
        for (j, &(ci, si)) in residents[comp.id().index()].iter().enumerate() {
            snapshots.push(AgentSnapshot {
                cycle: ci,
                step: si,
                pos: comp.path()[j],
                carry: None,
                advance_t: -1,
            });
        }
    }
    snapshots
}

/// Realizes one rolling-horizon window of exactly `window` ticks starting
/// at absolute timestep `start_t` from per-agent [`AgentSnapshot`]s,
/// debiting executed pickups from the caller-owned `stock` ledger.
///
/// Windowing is exact: realizing `[0, a)` and then `[a, b)` from the
/// first window's [`final_states`](WindowOutcome::final_states) produces
/// the same trajectories as one `realize` call over `[0, b)` (the cycle
/// stepping depends only on the snapshot state, the ledger, and absolute
/// time). Snapshots whose position is off their component's path (agents
/// in repair transit) are realized as parked obstacles.
///
/// # Errors
///
/// As for [`realize`], plus [`RealizeError::BadSnapshot`] for snapshots
/// with out-of-range indices, duplicate positions, or a wrong team size.
pub fn realize_window(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    cycles: &AgentCycleSet,
    start_t: usize,
    window: usize,
    states: &[AgentSnapshot],
    stock: &mut wsp_model::LocationMatrix,
) -> Result<WindowOutcome, RealizeError> {
    realize_window_with_scratch(
        warehouse,
        traffic,
        cycles,
        start_t,
        window,
        states,
        stock,
        &mut RealizeScratch::new(),
    )
}

/// [`realize_window`] reusing caller-owned [`RealizeScratch`] tables, so a
/// steady-state replanning loop (one window after another, as `wsp-sim`
/// runs) allocates only the window plans it emits.
///
/// # Errors
///
/// As for [`realize_window`].
#[allow(clippy::too_many_arguments)]
pub fn realize_window_with_scratch(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    cycles: &AgentCycleSet,
    start_t: usize,
    window: usize,
    states: &[AgentSnapshot],
    stock: &mut wsp_model::LocationMatrix,
    scratch: &mut RealizeScratch,
) -> Result<WindowOutcome, RealizeError> {
    validate_cycles(traffic, cycles)?;
    validate_snapshots(warehouse, cycles, states)?;
    let mut plan = load_snapshots(warehouse, traffic, cycles, states, scratch);

    let mut delivered = vec![0u64; warehouse.catalog().len()];
    let run = run_ticks(
        warehouse,
        traffic,
        cycles,
        None,
        start_t,
        window,
        stock,
        &mut delivered,
        &mut plan,
        scratch,
    );
    let final_states = scratch
        .agents
        .iter()
        .map(|a| AgentSnapshot {
            cycle: a.cycle,
            step: a.step,
            pos: a.pos,
            carry: a.carry,
            advance_t: a.advance_t,
        })
        .collect();

    Ok(WindowOutcome {
        plan,
        delivered,
        timesteps: run.executed,
        final_states,
        missed_advances: run.missed_advances,
        pickup_misses: run.pickup_misses,
    })
}

/// Sizes the scratch for this warehouse and loads `states` as its agent
/// runtimes; returns a plan whose state 0 is their configuration.
fn load_snapshots(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    cycles: &AgentCycleSet,
    states: &[AgentSnapshot],
    scratch: &mut RealizeScratch,
) -> Plan {
    scratch.prepare(warehouse.graph().vertex_count(), traffic.component_count());
    let mut plan = Plan::new();
    for s in states {
        let step = &cycles.cycles()[s.cycle].steps()[s.step];
        // O(1) stray detection + path offset via the dense locate table
        // (components are disjoint, so owning component ⇒ on its path).
        let located = traffic
            .locate(s.pos)
            .filter(|&(owner, _)| owner == step.component);
        scratch.agents.push(AgentRt {
            cycle: s.cycle,
            step: s.step,
            component: step.component,
            action: step.action,
            pos: s.pos,
            path_off: located.map_or(0, |(_, off)| off),
            advance_t: s.advance_t,
            carry: s.carry,
            stray: located.is_none(),
        });
        plan.add_agent(AgentState {
            at: s.pos,
            carry: s.carry.map_or(Carry::Empty, Carry::Product),
        });
    }
    plan
}

/// Snapshot well-formedness: right team size, in-range indices, distinct
/// positions (execution keeps positions distinct, so duplicates always
/// mean a caller bug rather than a legal configuration).
fn validate_snapshots(
    warehouse: &Warehouse,
    cycles: &AgentCycleSet,
    states: &[AgentSnapshot],
) -> Result<(), RealizeError> {
    if states.len() != cycles.total_agents() {
        return Err(RealizeError::BadSnapshot {
            agent: 0,
            detail: format!(
                "{} snapshots for a {}-agent cycle set",
                states.len(),
                cycles.total_agents()
            ),
        });
    }
    let n_vertices = warehouse.graph().vertex_count();
    let mut seen: Vec<(VertexId, usize)> = Vec::with_capacity(states.len());
    for (i, s) in states.iter().enumerate() {
        if s.cycle >= cycles.cycles().len() {
            return Err(RealizeError::BadSnapshot {
                agent: i,
                detail: format!("cycle index {} out of range", s.cycle),
            });
        }
        if s.step >= cycles.cycles()[s.cycle].steps().len() {
            return Err(RealizeError::BadSnapshot {
                agent: i,
                detail: format!("step index {} out of range", s.step),
            });
        }
        if s.pos.index() >= n_vertices {
            return Err(RealizeError::BadSnapshot {
                agent: i,
                detail: format!("position {} outside the floorplan graph", s.pos),
            });
        }
        seen.push((s.pos, i));
    }
    seen.sort_unstable_by_key(|&(v, _)| v);
    for w in seen.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(RealizeError::BadSnapshot {
                agent: w[1].1,
                detail: format!("agents {} and {} share {}", w[0].1, w[1].1, w[0].0),
            });
        }
    }
    Ok(())
}

/// Bookkeeping returned by the shared tick loop.
struct TickRun {
    executed: usize,
    pickup_misses: u64,
    missed_advances: u64,
}

/// The shared component-timestep loop: steps `scratch.agents` for up to
/// `ticks` ticks starting at absolute time `start_t` (stopping early once
/// `workload`, if given, is fully delivered), recording each tick's states
/// into `plan` and debiting executed pickups from `stock`.
///
/// Each component is a conveyor: a queue of its residents, exit-first.
/// Agents on one path move exit-first and never overtake, so a tick walks
/// each queue once, front to back, keeping `limit`, the lowest path offset
/// already taken at `t + 1`: an agent at offset `o` advances iff
/// `o + 1 < limit` and no stray is parked on `path[o + 1]`. The exit agent
/// instead hops to the next component's entry, at most once per cycle
/// period, when that entry is free at time `t` (the next component's
/// time-`t` tail is not at offset 0 and no stray is parked there) and no
/// earlier hopper in traffic order claimed it this tick. Pickups and
/// drop-offs run in the same walk at each agent's time-`t` cell (a cell
/// holds one agent, so no two actions share a ledger entry). Hoppers
/// change queues only after every component is walked, so none is
/// stepped twice in one tick.
///
/// Strays (agents off their own component's path) are the only per-vertex
/// input; they sit in no queue, never move and never act.
/// The loop body is O(agents + components) per tick, independent of the
/// vertex count, and allocation-free after the first period.
#[allow(clippy::too_many_arguments)]
fn run_ticks(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    cycles: &AgentCycleSet,
    workload: Option<&Workload>,
    start_t: usize,
    ticks: usize,
    stock: &mut wsp_model::LocationMatrix,
    delivered: &mut [u64],
    plan: &mut Plan,
    scratch: &mut RealizeScratch,
) -> TickRun {
    let tc = cycles.cycle_time().max(1);
    let n_components = traffic.component_count();
    let RealizeScratch {
        agents,
        stock: _,
        queues,
        tails,
        entry_claims,
        has_stray,
        stray_at,
        stocked,
        call,
        hops,
    } = scratch;
    let (queues, tails, entry_claims, has_stray) = (
        &mut queues[..n_components],
        &mut tails[..n_components],
        &mut entry_claims[..n_components],
        &mut has_stray[..n_components],
    );
    entry_claims.fill(0);
    has_stray.fill(false);
    for (v, _, _) in stock.iter() {
        if let Some(stamp) = stocked.get_mut(v.index()) {
            *stamp = *call;
        }
    }

    let mut pickup_misses = 0u64;
    let mut missed_advances = 0u64;

    // Build the queues once; the walk and the hop pass keep them sorted.
    for queue in queues.iter_mut() {
        queue.clear();
    }
    for (idx, a) in agents.iter().enumerate() {
        if a.stray {
            stray_at[a.pos.index()] = true;
            if let Some((owner, _)) = traffic.locate(a.pos) {
                has_stray[owner.index()] = true;
            }
        } else {
            queues[a.component.index()].push_back(idx as u32);
        }
    }
    for queue in queues.iter_mut() {
        // Offsets are distinct (one agent per cell), so this order is
        // unique.
        queue
            .make_contiguous()
            .sort_unstable_by_key(|&idx| std::cmp::Reverse(agents[idx as usize].path_off));
    }

    let mut executed = 0usize;
    for local_t in 0..ticks {
        let t = start_t + local_t;
        if workload.is_some_and(|w| w.is_satisfied_by(delivered)) {
            break;
        }
        executed = local_t + 1;
        let period_start = ((t / tc) * tc) as i64;
        // This tick's entry-claim stamp (never 0, the tables' reset value).
        let stamp = local_t as u32 + 1;

        for (tail, queue) in tails.iter_mut().zip(queues.iter()) {
            *tail = queue
                .back()
                .map_or(NO_TAIL, |&idx| agents[idx as usize].path_off);
        }

        for (comp, queue) in traffic.components().iter().zip(queues.iter()) {
            let path = comp.path();
            let strays_here = has_stray[comp.id().index()];
            let mut limit = path.len() as u32;
            for &idx in queue.iter() {
                let a = &mut agents[idx as usize];
                // Actions at the time-`t` cell, recorded in the `t + 1`
                // state (feasibility condition (3)).
                match a.action {
                    CycleAction::Pickup(p) => {
                        if a.carry.is_none()
                            && stocked[a.pos.index()] == *call
                            && stock.remove_units(a.pos, p, 1) == 1
                        {
                            a.carry = Some(p);
                        }
                    }
                    CycleAction::Dropoff(p) => {
                        if a.carry == Some(p) && warehouse.is_station(a.pos) {
                            a.carry = None;
                            if p.index() < delivered.len() {
                                delivered[p.index()] += 1;
                            }
                        }
                    }
                    CycleAction::Travel => {}
                }
                let off = a.path_off;
                // Hop to the next component of the agent cycle: only from
                // the exit, at most once per cycle period (ADVANCE_T < ts).
                if off as usize + 1 == path.len() && a.advance_t < period_start {
                    let steps = cycles.cycles()[a.cycle].steps();
                    let next_step = (a.step + 1) % steps.len();
                    let next = steps[next_step].component;
                    let entry = traffic.component(next).entry();
                    let n = next.index();
                    if tails[n] != 0
                        && entry_claims[n] != stamp
                        && !(has_stray[n] && stray_at[entry.index()])
                    {
                        entry_claims[n] = stamp;
                        // First-revolution diagnostics: hopping out of a
                        // pickup step still empty-handed.
                        if matches!(a.action, CycleAction::Pickup(_)) && a.carry.is_none() {
                            pickup_misses += 1;
                        }
                        a.step = next_step;
                        a.component = next;
                        a.action = steps[next_step].action;
                        a.advance_t = (t + 1) as i64;
                        a.path_off = 0;
                        a.pos = entry;
                        hops.push((idx, comp.id()));
                        continue;
                    }
                }
                // Internal move along the path.
                if off + 1 < limit && !(strays_here && stray_at[path[off as usize + 1].index()]) {
                    a.path_off = off + 1;
                    a.pos = path[off as usize + 1];
                    limit = off + 1;
                } else {
                    limit = off;
                }
            }
        }

        // Hoppers leave the front of their old queue (they held its
        // maximum offset) and join the back of their new one (offset 0,
        // its unique minimum: the time-`t` tail was not at the entry).
        for &(idx, from) in hops.iter() {
            let left = queues[from.index()].pop_front();
            debug_assert_eq!(left, Some(idx));
            queues[agents[idx as usize].component.index()].push_back(idx);
        }
        hops.clear();

        // Period-boundary diagnostic: every agent should have advanced one
        // component during the period that just ended.
        if (t + 1) % tc == 0 {
            for a in agents.iter() {
                if !a.stray && a.advance_t <= period_start && t as i64 >= tc as i64 {
                    missed_advances += 1;
                }
            }
        }

        // Record the t+1 configuration.
        plan.push_row(agents.iter().map(|a| AgentState {
            at: a.pos,
            carry: a.carry.map_or(Carry::Empty, Carry::Product),
        }));
    }

    TickRun {
        executed,
        pickup_misses,
        missed_advances,
    }
}

/// Validates the Property 4.1 preconditions and cycle well-formedness.
///
/// Occupancy is counted in one pass over every cycle step, then compared
/// in component order, so the first over-capacity component is reported.
fn validate_cycles(traffic: &TrafficSystem, cycles: &AgentCycleSet) -> Result<(), RealizeError> {
    let mut occupancy = vec![0usize; traffic.component_count()];
    for cycle in cycles.cycles() {
        if let Some(detail) = cycle.carry_inconsistency() {
            return Err(RealizeError::InconsistentCycle { detail });
        }
        let steps = cycle.steps();
        for (i, s) in steps.iter().enumerate() {
            if s.component.index() >= traffic.component_count() {
                return Err(RealizeError::UnknownComponent {
                    component: s.component,
                });
            }
            occupancy[s.component.index()] += 1;
            // Every step hops to the next one's component, a repeated
            // component included, so every step needs its arc.
            let next = steps[(i + 1) % steps.len()].component;
            if !traffic.outlets(s.component).contains(&next) {
                return Err(RealizeError::MissingArc {
                    from: s.component,
                    to: next,
                });
            }
        }
    }
    for (comp, &occupancy) in traffic.components().iter().zip(&occupancy) {
        if occupancy > comp.capacity() {
            return Err(RealizeError::CapacityExceeded {
                component: comp.id(),
                occupancy,
                capacity: comp.capacity(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_flow::{synthesize_flow, AgentCycle, CycleStep, FlowSynthesisOptions};
    use wsp_model::{Direction, GridMap, PlanChecker, ProductCatalog};

    fn pipeline_fixture(
        stock: u64,
        demand: u64,
    ) -> (Warehouse, TrafficSystem, AgentCycleSet, Workload) {
        let grid = GridMap::from_ascii("...\n.#.\n.@.").unwrap();
        let mut w =
            Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West]).unwrap();
        w.set_catalog(ProductCatalog::with_len(1));
        let s = w.shelf_access()[0];
        w.stock(s, ProductId(0), stock).unwrap();
        let ts = wsp_traffic::design_perimeter_loop(&w, 3).unwrap();
        let workload = Workload::from_demands(vec![demand]);
        let flow =
            synthesize_flow(&w, &ts, &workload, 600, &FlowSynthesisOptions::default()).unwrap();
        let cycles = flow.decompose().unwrap();
        (w, ts, cycles, workload)
    }

    #[test]
    fn realized_plan_is_feasible_and_services_workload() {
        let (w, ts, cycles, workload) = pipeline_fixture(1000, 8);
        let out = realize(&w, &ts, &cycles, Some(&workload), 600).unwrap();
        assert!(out.delivered[0] >= 8);
        assert_eq!(out.missed_advances, 0, "Property 4.1 violated");
        let checker = PlanChecker::new(&w);
        let stats = checker.check_services(&out.plan, &workload).unwrap();
        assert_eq!(stats.delivered[0], out.delivered[0]);
        assert_eq!(stats.agents, out.agents);
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_calls() {
        let (w, ts, cycles, workload) = pipeline_fixture(1000, 8);
        let fresh = realize(&w, &ts, &cycles, Some(&workload), 600).unwrap();
        let mut scratch = RealizeScratch::new();
        for _ in 0..3 {
            let again =
                realize_with_scratch(&w, &ts, &cycles, Some(&workload), 600, &mut scratch).unwrap();
            assert_eq!(again.delivered, fresh.delivered);
            assert_eq!(again.timesteps, fresh.timesteps);
            assert_eq!(again.agents, fresh.agents);
            assert_eq!(again.missed_advances, fresh.missed_advances);
            for a in 0..fresh.agents {
                assert_eq!(again.plan.trajectory(a), fresh.plan.trajectory(a));
            }
        }
        // The same scratch serves a different (larger) instance afterwards.
        let (w2, ts2, cycles2, workload2) = pipeline_fixture(1000, 3);
        let out2 =
            realize_with_scratch(&w2, &ts2, &cycles2, Some(&workload2), 600, &mut scratch).unwrap();
        assert!(out2.delivered[0] >= 3);
    }

    #[test]
    fn stops_early_once_serviced() {
        let (w, ts, cycles, workload) = pipeline_fixture(1000, 3);
        let out = realize(&w, &ts, &cycles, Some(&workload), 600).unwrap();
        assert!(out.timesteps < 600);
    }

    #[test]
    fn runs_full_horizon_without_workload() {
        let (w, ts, cycles, _) = pipeline_fixture(1000, 3);
        let out = realize(&w, &ts, &cycles, None, 97).unwrap();
        assert_eq!(out.timesteps, 97);
        assert_eq!(out.plan.horizon(), 97);
        // Still collision-free.
        let checker = PlanChecker::new(&w);
        checker.check(&out.plan).unwrap();
    }

    #[test]
    fn capacity_precondition_enforced() {
        let (w, ts, _, _) = pipeline_fixture(1000, 3);
        // Overload every component by stacking full-ring travel cycles one
        // past the smallest capacity.
        let ring: Vec<ComponentId> = {
            let mut ids = vec![ts.components()[0].id()];
            loop {
                let next = ts.outlets(*ids.last().unwrap())[0];
                if next == ids[0] {
                    break;
                }
                ids.push(next);
            }
            ids
        };
        let min_cap = ts.components().iter().map(|c| c.capacity()).min().unwrap();
        let make_cycle = || {
            AgentCycle::new(
                ring.iter()
                    .map(|&c| CycleStep {
                        component: c,
                        action: CycleAction::Travel,
                    })
                    .collect(),
            )
        };
        let cycles: Vec<AgentCycle> = (0..=min_cap).map(|_| make_cycle()).collect();
        let overloaded = AgentCycleSet::new(cycles, ts.cycle_time());
        let err = realize(&w, &ts, &overloaded, None, 10).unwrap_err();
        assert!(matches!(err, RealizeError::CapacityExceeded { .. }));
    }

    #[test]
    fn first_over_capacity_component_is_reported() {
        let (w, ts, _, _) = pipeline_fixture(1000, 3);
        // Full-ring travel cycles that start at the last component, so the
        // first over-capacity component in id order is not the first one
        // the cycle steps name.
        let last = ts.components().last().unwrap().id();
        let mut ring = vec![last];
        loop {
            let next = ts.outlets(*ring.last().unwrap())[0];
            if next == last {
                break;
            }
            ring.push(next);
        }
        let over = ts.components().iter().map(|c| c.capacity()).max().unwrap() + 1;
        let cycle = AgentCycle::new(
            ring.iter()
                .map(|&c| CycleStep {
                    component: c,
                    action: CycleAction::Travel,
                })
                .collect(),
        );
        let overloaded = AgentCycleSet::new(vec![cycle; over], ts.cycle_time());
        assert!(ts.components().len() >= 2);
        assert_ne!(ring[0], ts.components()[0].id());
        let err = realize(&w, &ts, &overloaded, None, 10).unwrap_err();
        let first = &ts.components()[0];
        assert_eq!(
            err,
            RealizeError::CapacityExceeded {
                component: first.id(),
                occupancy: over,
                capacity: first.capacity(),
            }
        );
    }

    #[test]
    fn missing_arc_detected() {
        let (w, ts, _, _) = pipeline_fixture(1000, 3);
        // A 2-cycle between non-adjacent components (0 and 2 in a 3-ring).
        let c0 = ts.components()[0].id();
        let c2 = ts.outlets(ts.outlets(c0)[0])[0];
        assert!(!ts.outlets(c0).contains(&c2));
        let step = |c: ComponentId| CycleStep {
            component: c,
            action: CycleAction::Travel,
        };
        let bad = AgentCycleSet::new(
            vec![AgentCycle::new(vec![step(c0), step(c2)])],
            ts.cycle_time(),
        );
        let err = realize(&w, &ts, &bad, None, 10).unwrap_err();
        assert!(matches!(err, RealizeError::MissingArc { .. }));
    }

    #[test]
    fn inconsistent_cycle_detected() {
        let (w, ts, _, _) = pipeline_fixture(1000, 3);
        let c0 = ts.components()[0].id();
        let c1 = ts.outlets(c0)[0];
        let bad = AgentCycleSet::new(
            vec![AgentCycle::new(vec![
                CycleStep {
                    component: c0,
                    action: CycleAction::Dropoff(ProductId(0)),
                },
                CycleStep {
                    component: c1,
                    action: CycleAction::Travel,
                },
            ])],
            ts.cycle_time(),
        );
        let err = realize(&w, &ts, &bad, None, 10).unwrap_err();
        assert!(matches!(err, RealizeError::InconsistentCycle { .. }));
    }

    #[test]
    fn travel_only_cycles_circulate_without_deliveries() {
        let (w, ts, _, _) = pipeline_fixture(1000, 3);
        let ids: Vec<ComponentId> = {
            // Follow outlets around the ring.
            let mut ids = vec![ts.components()[0].id()];
            loop {
                let next = ts.outlets(*ids.last().unwrap())[0];
                if next == ids[0] {
                    break;
                }
                ids.push(next);
            }
            ids
        };
        let cycle = AgentCycle::new(
            ids.iter()
                .map(|&c| CycleStep {
                    component: c,
                    action: CycleAction::Travel,
                })
                .collect(),
        );
        let set = AgentCycleSet::new(vec![cycle], ts.cycle_time());
        let out = realize(&w, &ts, &set, None, 3 * ts.cycle_time()).unwrap();
        assert_eq!(out.delivered.iter().sum::<u64>(), 0);
        assert_eq!(out.missed_advances, 0);
        let checker = PlanChecker::new(&w);
        checker.check(&out.plan).unwrap();
    }

    #[test]
    fn windowed_realization_matches_one_shot() {
        let (w, ts, cycles, _) = pipeline_fixture(1000, 8);
        let full = realize(&w, &ts, &cycles, None, 60).unwrap();

        // The same 60 ticks as windows of 7 (uneven on purpose), resumed
        // from each window's final snapshots.
        let mut states = initial_snapshots(&ts, &cycles).unwrap();
        let mut stock = w.location_matrix().clone();
        let mut scratch = RealizeScratch::new();
        let mut t = 0usize;
        let mut delivered = vec![0u64; w.catalog().len()];
        let mut stitched: Vec<Vec<AgentState>> = (0..full.agents)
            .map(|a| vec![full.plan.state(a, 0).unwrap()])
            .collect();
        while t < 60 {
            let window = (60 - t).min(7);
            let out = realize_window_with_scratch(
                &w,
                &ts,
                &cycles,
                t,
                window,
                &states,
                &mut stock,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(out.timesteps, window);
            for (i, &d) in out.delivered.iter().enumerate() {
                delivered[i] += d;
            }
            for (a, traj) in stitched.iter_mut().enumerate() {
                for k in 1..=window {
                    traj.push(out.plan.state(a, k).unwrap());
                }
            }
            states = out.final_states;
            t += window;
        }
        assert_eq!(delivered, full.delivered);
        for (a, traj) in stitched.iter().enumerate() {
            assert_eq!(traj.as_slice(), full.plan.trajectory(a), "agent {a}");
        }
        // Stock ledgers agree: windowed picks debit the caller's ledger.
        for (v, p, units) in w.location_matrix().iter() {
            assert_eq!(
                stock.units_at(v, p),
                scratch_free_units(&w, &ts, &cycles, 60, v, p),
                "ledger diverged at {v}/{p} ({units} stocked)"
            );
        }
    }

    /// Remaining units per the one-shot realization (reference for the
    /// ledger comparison above).
    fn scratch_free_units(
        w: &Warehouse,
        ts: &TrafficSystem,
        cycles: &AgentCycleSet,
        t_limit: usize,
        v: VertexId,
        p: ProductId,
    ) -> u64 {
        // Re-run and count executed pickups at (v, p) from the plan.
        let full = realize(w, ts, cycles, None, t_limit).unwrap();
        let mut picked = 0u64;
        for a in 0..full.agents {
            let traj = full.plan.trajectory(a);
            for k in 1..traj.len() {
                if traj[k - 1].carry == Carry::Empty
                    && traj[k].carry == Carry::Product(p)
                    && traj[k - 1].at == v
                {
                    picked += 1;
                }
            }
        }
        w.location_matrix().units_at(v, p) - picked
    }

    #[test]
    fn stray_snapshots_park_as_obstacles() {
        let (w, ts, cycles, _) = pipeline_fixture(1000, 8);
        let mut states = initial_snapshots(&ts, &cycles).unwrap();
        // Move agent 0 off its component onto a free non-component cell if
        // one exists; otherwise onto another component's cell — either way
        // it is off *its* component's path.
        let comp = cycles.cycles()[states[0].cycle].steps()[states[0].step].component;
        let on_path = |v: VertexId| ts.component(comp).position(v).is_some();
        let taken: Vec<VertexId> = states.iter().map(|s| s.pos).collect();
        let stray_pos = w
            .graph()
            .vertices()
            .find(|&v| !on_path(v) && !taken.contains(&v))
            .expect("a free off-path cell exists");
        states[0].pos = stray_pos;
        let mut stock = w.location_matrix().clone();
        let out = realize_window(&w, &ts, &cycles, 0, 20, &states, &mut stock).unwrap();
        // The stray never moves and never carries.
        for k in 0..=20 {
            let s = out.plan.state(0, k).unwrap();
            assert_eq!(s.at, stray_pos);
            assert_eq!(s.carry, Carry::Empty);
        }
        assert_eq!(out.final_states[0].pos, stray_pos);
        // The emitted window is still collision-free.
        wsp_model::PlanChecker::new(&w).check(&out.plan).unwrap();
    }

    #[test]
    fn bad_snapshots_are_rejected() {
        let (w, ts, cycles, _) = pipeline_fixture(1000, 8);
        let states = initial_snapshots(&ts, &cycles).unwrap();
        let mut stock = w.location_matrix().clone();

        let short = &states[..states.len() - 1];
        assert!(matches!(
            realize_window(&w, &ts, &cycles, 0, 5, short, &mut stock),
            Err(RealizeError::BadSnapshot { .. })
        ));

        let mut dup = states.clone();
        if dup.len() >= 2 {
            dup[1].pos = dup[0].pos;
            assert!(matches!(
                realize_window(&w, &ts, &cycles, 0, 5, &dup, &mut stock),
                Err(RealizeError::BadSnapshot { .. })
            ));
        }

        let mut oob = states.clone();
        oob[0].pos = VertexId(u32::MAX - 1);
        assert!(matches!(
            realize_window(&w, &ts, &cycles, 0, 5, &oob, &mut stock),
            Err(RealizeError::BadSnapshot { .. })
        ));
    }

    #[test]
    fn delivery_rate_matches_cycle_count_after_warmup() {
        let (w, ts, cycles, _) = pipeline_fixture(1000, 60);
        // Run with no early stop for several periods.
        let periods = 10;
        let out = realize(&w, &ts, &cycles, None, periods * ts.cycle_time()).unwrap();
        let per_period = cycles.deliveries_per_period();
        // After a one-revolution warmup, each period delivers `per_period`
        // units; allow the warmup to cost up to two revolutions' worth.
        let revolution_periods = cycles.cycles().iter().map(|c| c.len()).max().unwrap_or(1) as u64;
        let expected_min = per_period * (periods as u64).saturating_sub(2 * revolution_periods);
        assert!(
            out.delivered.iter().sum::<u64>() >= expected_min,
            "delivered {} < expected {expected_min}",
            out.delivered.iter().sum::<u64>()
        );
    }
}
