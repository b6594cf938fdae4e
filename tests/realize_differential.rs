//! Realization's conveyor stepping against the per-vertex table stepping
//! it replaced, which this file keeps as the reference.
//!
//! The reference is Algorithm 1 as the tables settle it: every tick, each
//! component's residents (exit-first) claim their next cell in dense
//! `claimed`/`vacated` tables against a time-`t` `occupant` table; actions
//! run afterwards at the time-`t` cells, then all moves apply at once. It
//! is rebuilt here over public types only (snapshots, `traffic.locate`,
//! cycle steps, the stock ledger), and every library output must equal it
//! field by field: plan rows, deliveries, final states, diagnostics and the
//! caller's ledger.

use proptest::prelude::*;
use wsp_flow::{
    synthesize_flow, AgentCycle, AgentCycleSet, CycleAction, CycleStep, FlowSynthesisOptions,
};
use wsp_model::{
    AgentState, Carry, Direction, GridMap, LocationMatrix, Plan, PlanChecker, ProductCatalog,
    ProductId, VertexId, Warehouse, Workload,
};
use wsp_realize::{initial_snapshots, realize, realize_window, AgentSnapshot, RealizeError};
use wsp_traffic::{ComponentId, TrafficSystem, TrafficSystemBuilder};

/// What the reference stepping produced.
struct Reference {
    plan: Plan,
    delivered: Vec<u64>,
    executed: usize,
    final_states: Vec<AgentSnapshot>,
    missed_advances: u64,
    pickup_misses: u64,
}

struct RefAgent {
    snap: AgentSnapshot,
    path_off: u32,
    stray: bool,
}

fn state_of(s: &AgentSnapshot) -> AgentState {
    AgentState {
        at: s.pos,
        carry: s.carry.map_or(Carry::Empty, Carry::Product),
    }
}

/// The table-settled stepping: `ticks` ticks from `states` at absolute
/// time `start_t`, stopping early once `workload` (if any) is delivered,
/// debiting pickups from `stock`.
#[allow(clippy::too_many_arguments)]
fn reference(
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    cycles: &AgentCycleSet,
    workload: Option<&Workload>,
    start_t: usize,
    ticks: usize,
    states: &[AgentSnapshot],
    stock: &mut LocationMatrix,
) -> Reference {
    const NONE: u32 = u32::MAX;
    let tc = cycles.cycle_time().max(1);
    let n = warehouse.graph().vertex_count();
    let step_of = |s: &AgentSnapshot| cycles.cycles()[s.cycle].steps()[s.step];
    let mut agents: Vec<RefAgent> = states
        .iter()
        .map(|s| {
            let located = traffic
                .locate(s.pos)
                .filter(|&(owner, _)| owner == step_of(s).component);
            RefAgent {
                snap: *s,
                path_off: located.map_or(0, |(_, off)| off),
                stray: located.is_none(),
            }
        })
        .collect();
    let mut plan = Plan::new();
    for s in states {
        plan.add_agent(state_of(s));
    }

    let mut occupant = vec![NONE; n];
    let mut residents: Vec<Vec<usize>> = vec![Vec::new(); traffic.component_count()];
    for (idx, a) in agents.iter().enumerate() {
        occupant[a.snap.pos.index()] = idx as u32;
        if !a.stray {
            residents[step_of(&a.snap).component.index()].push(idx);
        }
    }
    for list in &mut residents {
        list.sort_by_key(|&idx| std::cmp::Reverse(agents[idx].path_off));
    }

    let mut delivered = vec![0u64; warehouse.catalog().len()];
    let (mut pickup_misses, mut missed_advances, mut executed) = (0u64, 0u64, 0usize);
    let mut claimed = vec![false; n];
    let mut vacated = vec![false; n];
    for local_t in 0..ticks {
        let t = start_t + local_t;
        if workload.is_some_and(|w| w.is_satisfied_by(&delivered)) {
            break;
        }
        executed = local_t + 1;
        let period_start = ((t / tc) * tc) as i64;
        claimed.fill(false);
        vacated.fill(false);

        // Movement decisions, component by component, exit-first.
        let mut moves: Vec<(usize, VertexId, bool)> = Vec::new();
        for comp in traffic.components() {
            for &idx in &residents[comp.id().index()] {
                let a = &agents[idx];
                let pos = a.snap.pos;
                if a.path_off as usize + 1 == comp.len() && a.snap.advance_t < period_start {
                    let steps = cycles.cycles()[a.snap.cycle].steps();
                    let next = steps[(a.snap.step + 1) % steps.len()].component;
                    let entry = traffic.component(next).entry();
                    if !claimed[entry.index()] && occupant[entry.index()] == NONE {
                        claimed[entry.index()] = true;
                        vacated[pos.index()] = true;
                        moves.push((idx, entry, true));
                        continue;
                    }
                }
                if let Some(&v) = comp.path().get(a.path_off as usize + 1) {
                    let blocked =
                        claimed[v.index()] || (occupant[v.index()] != NONE && !vacated[v.index()]);
                    if !blocked {
                        claimed[v.index()] = true;
                        vacated[pos.index()] = true;
                        moves.push((idx, v, false));
                        continue;
                    }
                }
                claimed[pos.index()] = true;
            }
        }

        // Actions at the time-t cells.
        let mut hopped = vec![false; agents.len()];
        for &(idx, _, hop) in &moves {
            hopped[idx] = hop;
        }
        for (idx, a) in agents.iter_mut().enumerate() {
            if a.stray {
                continue;
            }
            let action = step_of(&a.snap).action;
            let pos = a.snap.pos;
            match action {
                CycleAction::Pickup(p) => {
                    if a.snap.carry.is_none() && stock.units_at(pos, p) > 0 {
                        stock.remove_units(pos, p, 1);
                        a.snap.carry = Some(p);
                    }
                }
                CycleAction::Dropoff(p) => {
                    if a.snap.carry == Some(p) && warehouse.is_station(pos) {
                        a.snap.carry = None;
                        if p.index() < delivered.len() {
                            delivered[p.index()] += 1;
                        }
                    }
                }
                CycleAction::Travel => {}
            }
            if hopped[idx] && matches!(action, CycleAction::Pickup(_)) && a.snap.carry.is_none() {
                pickup_misses += 1;
            }
        }

        // Apply every move at once.
        for &(idx, _, _) in &moves {
            occupant[agents[idx].snap.pos.index()] = NONE;
        }
        for &(idx, v, hop) in &moves {
            let a = &mut agents[idx];
            if hop {
                let from = step_of(&a.snap).component.index();
                assert_eq!(residents[from].remove(0), idx, "hopper left from the front");
                let steps = cycles.cycles()[a.snap.cycle].steps();
                a.snap.step = (a.snap.step + 1) % steps.len();
                a.snap.advance_t = (t + 1) as i64;
                a.path_off = 0;
                residents[steps[a.snap.step].component.index()].push(idx);
            } else {
                a.path_off += 1;
            }
            a.snap.pos = v;
            occupant[v.index()] = idx as u32;
        }

        if (t + 1) % tc == 0 {
            for a in &agents {
                if !a.stray && a.snap.advance_t <= period_start && t as i64 >= tc as i64 {
                    missed_advances += 1;
                }
            }
        }
        plan.push_row(agents.iter().map(|a| state_of(&a.snap)));
    }

    Reference {
        plan,
        delivered,
        executed,
        final_states: agents.iter().map(|a| a.snap).collect(),
        missed_advances,
        pickup_misses,
    }
}

/// Asserts two plans hold the same rows, naming the first differing tick.
fn assert_same_rows(label: &str, got: &Plan, want: &Plan) {
    assert_eq!(got.horizon(), want.horizon(), "{label}: horizon");
    assert_eq!(got.agent_count(), want.agent_count(), "{label}: agents");
    for t in 0..=want.horizon() {
        assert_eq!(got.row(t), want.row(t), "{label}: row {t}");
    }
}

/// Realizes one window through the library on `stock` and through the
/// reference on a copy of it, asserts every output and both ledgers agree,
/// and returns the window's final states.
#[allow(clippy::too_many_arguments)]
fn assert_window_matches(
    label: &str,
    warehouse: &Warehouse,
    traffic: &TrafficSystem,
    cycles: &AgentCycleSet,
    start_t: usize,
    window: usize,
    states: &[AgentSnapshot],
    stock: &mut LocationMatrix,
) -> Vec<AgentSnapshot> {
    let mut want_stock = stock.clone();
    let got = realize_window(warehouse, traffic, cycles, start_t, window, states, stock)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let want = reference(
        warehouse,
        traffic,
        cycles,
        None,
        start_t,
        window,
        states,
        &mut want_stock,
    );
    assert_same_rows(label, &got.plan, &want.plan);
    assert_eq!(got.delivered, want.delivered, "{label}: delivered");
    assert_eq!(got.timesteps, want.executed, "{label}: timesteps");
    assert_eq!(got.final_states, want.final_states, "{label}: final states");
    assert_eq!(got.missed_advances, want.missed_advances, "{label}: missed");
    assert_eq!(
        got.pickup_misses, want.pickup_misses,
        "{label}: pickup misses"
    );
    assert_eq!(*stock, want_stock, "{label}: ledger");
    PlanChecker::new(warehouse)
        .check(&got.plan)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    got.final_states
}

#[test]
fn sorting_center_designs_match_the_reference() {
    let mut compared = 0;
    for candidate in wsp_explore::sorting_center_sweep() {
        let map = candidate.build().unwrap();
        let (w, ts) = (&map.warehouse, &map.traffic);
        for units in [80, 320] {
            let label = format!("{} at {units} units", candidate.label());
            let workload = map.uniform_workload(units);
            let Ok(flow) =
                synthesize_flow(w, ts, &workload, 3_600, &FlowSynthesisOptions::default())
            else {
                continue;
            };
            let cycles = flow.decompose().unwrap();

            // One-shot with the workload stop.
            let got = realize(w, ts, &cycles, Some(&workload), 3_600).unwrap();
            let states = initial_snapshots(ts, &cycles).unwrap();
            let mut ledger = w.location_matrix().clone();
            let want = reference(
                w,
                ts,
                &cycles,
                Some(&workload),
                0,
                3_600,
                &states,
                &mut ledger,
            );
            assert_same_rows(&label, &got.plan, &want.plan);
            assert_eq!(got.delivered, want.delivered, "{label}: delivered");
            assert_eq!(got.timesteps, want.executed, "{label}: timesteps");
            assert_eq!(got.agents, states.len(), "{label}: agents");
            assert_eq!(got.missed_advances, want.missed_advances, "{label}: missed");
            assert_eq!(got.pickup_misses, want.pickup_misses, "{label}");

            // The same ticks as one window expose the final states and
            // ledger the one-shot call keeps to itself.
            let mut window_stock = w.location_matrix().clone();
            let window =
                realize_window(w, ts, &cycles, 0, want.executed, &states, &mut window_stock)
                    .unwrap();
            assert_same_rows(&label, &window.plan, &want.plan);
            assert_eq!(window.final_states, want.final_states, "{label}");
            assert_eq!(window_stock, ledger, "{label}: ledger");
            compared += 1;
        }
    }
    // Every design of the sweep solves at both sizes.
    assert_eq!(compared, 40);
}

/// A splitmix64 stream for the perturbations below.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn perturbed_windows_match_the_reference(
        rows in 1u32..=3,
        cols in 4u32..=14,
        pitch in 2u32..=4,
        map_seed in 0u64..1_000,
        max_agents in 1usize..=40,
        warmup in 0usize..=150,
        seed in 0u64..u64::MAX,
    ) {
        let map = wsp_maps::scaled_warehouse(rows, cols, pitch, map_seed).unwrap();
        let (w, ts) = (&map.warehouse, &map.traffic);
        let cycles = wsp_sim::direct_cycle_set(w, ts, max_agents);
        prop_assume!(cycles.total_agents() > 0);
        let tc = cycles.cycle_time().max(1);
        let mut mix = Mix(seed);

        // Warm up from the initial placement, itself checked.
        let label = format!("{rows}x{cols}/{pitch} map {map_seed}, seed {seed}");
        let states = initial_snapshots(ts, &cycles).unwrap();
        let mut stock = w.location_matrix().clone();
        let mut states =
            assert_window_matches(&label, w, ts, &cycles, 0, warmup, &states, &mut stock);

        // Move some agents off their path onto free cells and empty some
        // stocked cells.
        let mut taken: Vec<bool> = vec![false; w.graph().vertex_count()];
        for s in &states {
            taken[s.pos.index()] = true;
        }
        for s in states.iter_mut() {
            if mix.below(6) == 0 {
                let own = cycles.cycles()[s.cycle].steps()[s.step].component;
                let v = VertexId(mix.below(taken.len()) as u32);
                let off_path = ts.locate(v).is_none_or(|(owner, _)| owner != own);
                if !taken[v.index()] && off_path {
                    taken[s.pos.index()] = false;
                    taken[v.index()] = true;
                    s.pos = v;
                }
            }
        }
        let stocked: Vec<(VertexId, ProductId, u64)> = stock.iter().collect();
        for (v, p, units) in stocked {
            if mix.below(4) == 0 {
                stock.remove_units(v, p, units);
            }
        }

        // Resume mid-period with a window of random length.
        let mut start_t = warmup + mix.below(tc);
        if start_t % tc == 0 && tc > 1 {
            start_t += 1;
        }
        let window = 1 + mix.below(3 * tc);
        let label = format!("{label}: window {start_t}+{window}");
        assert_window_matches(&label, w, ts, &cycles, start_t, window, &states, &mut stock);
    }
}

/// A warehouse from `ascii` whose shelves are accessed from the north,
/// stocking `stock` units of product 0 at every access cell.
fn hand_warehouse(ascii: &str, stock: u64) -> Warehouse {
    let grid = GridMap::from_ascii(ascii).unwrap();
    let mut w = Warehouse::from_grid_with_access(&grid, &[Direction::North]).unwrap();
    w.set_catalog(ProductCatalog::with_len(1));
    for v in w.shelf_access().to_vec() {
        w.stock(v, ProductId(0), stock).unwrap();
    }
    w
}

fn hand_traffic(w: &Warehouse, paths: &[&[(u32, u32)]], arcs: &[(usize, usize)]) -> TrafficSystem {
    let mut builder = TrafficSystemBuilder::new();
    let ids: Vec<ComponentId> = paths
        .iter()
        .map(|path| {
            builder
                .add_component_coords(w, path.iter().copied())
                .unwrap()
        })
        .collect();
    for &(from, to) in arcs {
        builder.connect(ids[from], ids[to]);
    }
    builder.build(w).unwrap()
}

fn cycle(steps: &[(usize, CycleAction)]) -> AgentCycle {
    AgentCycle::new(
        steps
            .iter()
            .map(|&(c, action)| CycleStep {
                component: ComponentId(c as u32),
                action,
            })
            .collect(),
    )
}

fn at(w: &Warehouse, x: u32, y: u32) -> VertexId {
    w.graph().vertex_at(wsp_model::Coord::new(x, y)).unwrap()
}

fn snapshot(w: &Warehouse, cycle: usize, step: usize, cell: (u32, u32)) -> AgentSnapshot {
    AgentSnapshot {
        cycle,
        step,
        pos: at(w, cell.0, cell.1),
        carry: None,
        advance_t: -1,
    }
}

#[test]
fn self_loop_single_step_cycle_hops_into_its_own_entry() {
    // Component 0 is the 2x2 ring (1,1) -> (2,1) -> (2,2) -> (1,2), whose
    // exit is adjacent to its own entry; component 1 runs (0,2) down to
    // (1,0) past the station at (0,0). The shelf at (2,0) is accessed
    // from (2,1).
    let w = hand_warehouse("...\n...\n@.#", 1_000);
    let ts = hand_traffic(
        &w,
        &[
            &[(1, 1), (2, 1), (2, 2), (1, 2)],
            &[(0, 2), (0, 1), (0, 0), (1, 0)],
        ],
        &[(0, 0), (0, 1), (1, 0)],
    );
    let p0 = ProductId(0);
    let cycles = AgentCycleSet::new(
        vec![
            cycle(&[(0, CycleAction::Travel)]),
            cycle(&[(0, CycleAction::Pickup(p0)), (1, CycleAction::Dropoff(p0))]),
        ],
        ts.cycle_time(),
    );
    let stock = w.location_matrix().clone();
    let states = initial_snapshots(&ts, &cycles).unwrap();
    assert_window_matches(
        "self-loop",
        &w,
        &ts,
        &cycles,
        0,
        80,
        &states,
        &mut stock.clone(),
    );

    // The single-step agent at the exit with the entry free: it hops into
    // its own entry in the first tick.
    let states = vec![
        snapshot(&w, 0, 0, (1, 2)),
        snapshot(&w, 1, 0, (2, 2)),
        snapshot(&w, 1, 1, (0, 0)),
    ];
    let out = realize_window(&w, &ts, &cycles, 0, 1, &states, &mut stock.clone()).unwrap();
    assert_eq!(out.plan.state(0, 1).unwrap().at, at(&w, 1, 1));
    for start_t in [0, 3, 9] {
        let label = format!("self-loop from the exit at {start_t}");
        assert_window_matches(
            &label,
            &w,
            &ts,
            &cycles,
            start_t,
            40,
            &states,
            &mut stock.clone(),
        );
    }
}

/// Components A = (0,2) -> (0,1) and B = (4,0) -> .. -> (1,0) both feed
/// the entry (1,1) of C = (1,1) -> .. -> (4,1), which feeds B and
/// E = (4,2) -> .. -> (1,2), which feeds A. The shelf at (0,0) is accessed
/// from (0,1); the station is (2,2). `a_first` puts A before B in traffic
/// order.
fn merge_fixture(a_first: bool) -> (Warehouse, TrafficSystem, AgentCycleSet) {
    let w = hand_warehouse("..@..\n.....\n#....", 1_000);
    let a: &[(u32, u32)] = &[(0, 2), (0, 1)];
    let b: &[(u32, u32)] = &[(4, 0), (3, 0), (2, 0), (1, 0)];
    let c: &[(u32, u32)] = &[(1, 1), (2, 1), (3, 1), (4, 1)];
    let e: &[(u32, u32)] = &[(4, 2), (3, 2), (2, 2), (1, 2)];
    let (ia, ib) = if a_first { (0, 1) } else { (1, 0) };
    let mut paths = [&[][..]; 4];
    paths[ia] = a;
    paths[ib] = b;
    paths[2] = c;
    paths[3] = e;
    let ts = hand_traffic(&w, &paths, &[(ia, 2), (ib, 2), (2, ib), (2, 3), (3, ia)]);
    let p0 = ProductId(0);
    let cycles = AgentCycleSet::new(
        vec![
            cycle(&[
                (ia, CycleAction::Pickup(p0)),
                (2, CycleAction::Travel),
                (3, CycleAction::Dropoff(p0)),
            ]),
            cycle(&[(ib, CycleAction::Travel), (2, CycleAction::Travel)]),
        ],
        ts.cycle_time(),
    );
    (w, ts, cycles)
}

#[test]
fn two_exits_feeding_one_entry_resolve_in_traffic_order() {
    for a_first in [true, false] {
        let (w, ts, cycles) = merge_fixture(a_first);
        let stock = w.location_matrix().clone();
        // Both exits are ready in the first tick and C's entry is free.
        let states = vec![
            snapshot(&w, 0, 0, (0, 1)),
            snapshot(&w, 0, 1, (4, 1)),
            snapshot(&w, 0, 2, (2, 2)),
            snapshot(&w, 1, 0, (1, 0)),
            snapshot(&w, 1, 1, (3, 1)),
        ];
        let out = realize_window(&w, &ts, &cycles, 0, 1, &states, &mut stock.clone()).unwrap();
        let entry = at(&w, 1, 1);
        let winner = if a_first { 0 } else { 3 };
        let loser = 3 - winner;
        assert_eq!(out.plan.state(winner, 1).unwrap().at, entry);
        assert_eq!(out.plan.state(loser, 1).unwrap().at, states[loser].pos);
        let label = format!("merge, A first: {a_first}");
        assert_window_matches(&label, &w, &ts, &cycles, 0, 60, &states, &mut stock.clone());
        let states = initial_snapshots(&ts, &cycles).unwrap();
        assert_window_matches(&label, &w, &ts, &cycles, 5, 60, &states, &mut stock.clone());
    }
}

#[test]
fn strays_block_an_entry_and_a_mid_path_cell() {
    let (w, ts, cycles) = merge_fixture(true);
    let stock = w.location_matrix().clone();
    // An agent of E strays onto C's entry, so neither exit can hop; an
    // agent of C strays onto B's offset 1, so B's entry agent cannot
    // advance.
    let states = vec![
        snapshot(&w, 0, 0, (0, 1)),
        snapshot(&w, 0, 1, (4, 1)),
        snapshot(&w, 0, 2, (1, 1)),
        snapshot(&w, 1, 0, (4, 0)),
        snapshot(&w, 1, 1, (3, 0)),
    ];
    let out = realize_window(&w, &ts, &cycles, 0, 30, &states, &mut stock.clone()).unwrap();
    for k in 0..=30 {
        let row = out.plan.row(k);
        assert_eq!(row[0].at, at(&w, 0, 1), "A's exit agent waits at k={k}");
        assert_eq!(row[3].at, at(&w, 4, 0), "B's entry agent waits at k={k}");
    }
    assert_window_matches(
        "strays",
        &w,
        &ts,
        &cycles,
        0,
        60,
        &states,
        &mut stock.clone(),
    );
    assert_window_matches(
        "strays mid-period",
        &w,
        &ts,
        &cycles,
        7,
        60,
        &states,
        &mut stock.clone(),
    );
}

#[test]
fn repeated_component_without_a_self_arc_is_a_missing_arc() {
    // C has no C -> C arc, so a cycle that stays on C for two steps would
    // have its agent jump from C's exit straight to C's entry.
    let (w, ts, _) = merge_fixture(true);
    let c = ComponentId(2);
    assert!(!ts.outlets(c).contains(&c));
    let cycles = AgentCycleSet::new(
        vec![cycle(&[(2, CycleAction::Travel), (2, CycleAction::Travel)])],
        ts.cycle_time(),
    );
    let missing = RealizeError::MissingArc { from: c, to: c };
    assert_eq!(realize(&w, &ts, &cycles, None, 10).unwrap_err(), missing);
    assert_eq!(initial_snapshots(&ts, &cycles).unwrap_err(), missing);
}
