//! Property tests for the time-major [`Plan`] layout: a plan built agent
//! by agent (`add_agent` + `push_state`, in several orders) and the same
//! plan built row by row (`push_row`) are equal, answer `state`,
//! `trajectory`, `row` and `horizon` alike, and get the same
//! [`PlanChecker`] result — across horizons that span several row blocks,
//! partial last blocks, a single agent and a row wider than a block.
//!
//! Blocks hold at most 64 KiB of 12-byte states (5,461), a power-of-two
//! number of rows each: 32 rows at 100 agents, 4,096 rows for one agent,
//! and one row per block once a row holds more than 5,461 agents.

use proptest::prelude::*;
use wsp_model::{
    AgentState, Carry, GridMap, ModelError, Plan, PlanChecker, ProductCatalog, ProductId, VertexId,
    Warehouse,
};

/// Shelves on top, stations on the bottom row, two products stocked on
/// every shelf-access vertex.
fn warehouse() -> Warehouse {
    let grid = GridMap::from_ascii(".#.#.#.#.\n.........\n.........\n@.@.@.@.@").unwrap();
    let mut w = Warehouse::from_grid(&grid).unwrap();
    w.set_catalog(ProductCatalog::with_len(2));
    for v in w.shelf_access().to_vec() {
        w.stock(v, ProductId(0), 3).unwrap();
        w.stock(v, ProductId(1), 3).unwrap();
    }
    w
}

/// A small deterministic generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) % n
    }
}

/// `agents` trajectories of `horizon + 1` states each. Mode 0 parks every
/// agent on its own vertex (a feasible plan), mode 1 takes random walks
/// along graph edges with random pickups and drop-offs, mode 2 draws every
/// state at random, including vertex ids outside the graph.
fn trajectories(
    w: &Warehouse,
    agents: usize,
    horizon: usize,
    seed: u64,
    mode: u8,
) -> Vec<Vec<AgentState>> {
    let graph = w.graph();
    let n = graph.vertex_count() as u64;
    let mut rng = Rng(seed | 1);
    let carry = |rng: &mut Rng| match rng.below(3) {
        0 => Carry::Empty,
        p => Carry::Product(ProductId(p as u32 - 1)),
    };
    (0..agents)
        .map(|a| {
            let start = VertexId((a as u64 % n) as u32);
            let mut traj = vec![AgentState::idle(start)];
            for _ in 0..horizon {
                let last = *traj.last().unwrap();
                let next = match mode {
                    0 => last,
                    1 => {
                        let nbrs = graph.neighbors(last.at);
                        let at = match rng.below(nbrs.len() as u64 + 1) as usize {
                            0 => last.at,
                            i => nbrs[i - 1],
                        };
                        let carry = if rng.below(8) == 0 {
                            carry(&mut rng)
                        } else {
                            last.carry
                        };
                        AgentState { at, carry }
                    }
                    _ => AgentState {
                        at: VertexId(rng.below(n + 2) as u32),
                        carry: carry(&mut rng),
                    },
                };
                traj.push(next);
            }
            traj
        })
        .collect()
}

/// Orders in which to build a plan agent by agent.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Every agent first, then each agent's whole trajectory in turn.
    AddThenFill,
    /// Add an agent and push its whole trajectory before the next agent
    /// joins (every join widens the stored rows).
    Interleaved,
    /// Every agent first, then timestep by timestep through `push_state`.
    RoundRobin,
}

fn by_agents(traj: &[Vec<AgentState>], order: Order) -> Plan {
    let mut plan = Plan::new();
    match order {
        Order::AddThenFill => {
            for t in traj {
                plan.add_agent(t[0]);
            }
            for (a, t) in traj.iter().enumerate() {
                for &s in &t[1..] {
                    plan.push_state(a, s);
                }
            }
        }
        Order::Interleaved => {
            for t in traj {
                let a = plan.add_agent(t[0]);
                for &s in &t[1..] {
                    plan.push_state(a, s);
                }
            }
        }
        Order::RoundRobin => {
            for t in traj {
                plan.add_agent(t[0]);
            }
            for k in 1..traj.first().map_or(0, Vec::len) {
                for (a, t) in traj.iter().enumerate() {
                    plan.push_state(a, t[k]);
                }
            }
        }
    }
    plan
}

fn by_rows(traj: &[Vec<AgentState>]) -> Plan {
    let mut plan = Plan::new();
    for t in traj {
        plan.add_agent(t[0]);
    }
    for k in 1..traj.first().map_or(0, Vec::len) {
        plan.push_row(traj.iter().map(|t| t[k]));
    }
    plan
}

/// Builds `traj` every way and checks each build against the reference
/// trajectories and against the row-by-row build.
fn assert_builds_agree(w: &Warehouse, traj: &[Vec<AgentState>], orders: &[Order]) {
    let checker = PlanChecker::new(w);
    let rows = by_rows(traj);
    let horizon = traj.first().map_or(0, |t| t.len() - 1);
    assert_eq!(rows.agent_count(), traj.len());
    assert_eq!(rows.horizon(), horizon);
    for (a, t) in traj.iter().enumerate() {
        assert_eq!(rows.trajectory(a), *t, "agent {a}");
        assert_eq!(rows.state(a, horizon + 1), None);
    }
    assert_eq!(rows.state(traj.len(), 0), None);
    for k in 0..=horizon {
        let expected: Vec<AgentState> = traj.iter().map(|t| t[k]).collect();
        assert_eq!(rows.row(k), expected.as_slice(), "row {k}");
    }
    let expected_check = checker.check(&rows);
    for &order in orders {
        let agents = by_agents(traj, order);
        assert_eq!(agents, rows, "{order:?}");
        assert_eq!(format!("{agents:?}"), format!("{rows:?}"), "{order:?}");
        assert_eq!(agents.agent_count(), rows.agent_count());
        assert_eq!(agents.horizon(), rows.horizon());
        assert!(agents.validate_shape().is_ok());
        for a in 0..=traj.len() {
            for k in 0..=horizon + 1 {
                assert_eq!(agents.state(a, k), rows.state(a, k), "{order:?} ({a}, {k})");
            }
        }
        for k in 0..=horizon {
            assert_eq!(agents.row(k), rows.row(k), "{order:?} row {k}");
        }
        assert_eq!(checker.check(&agents), expected_check, "{order:?}");
    }
}

const ALL_ORDERS: [Order; 3] = [Order::AddThenFill, Order::Interleaved, Order::RoundRobin];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Up to 100 agents (32 rows per block) and 120 timesteps: zero to four
    /// full blocks plus a partial last one.
    #[test]
    fn agent_and_row_builds_agree(
        agents in 1usize..=100,
        horizon in 0usize..=120,
        seed in 0u64..u64::MAX,
        mode in 0u8..3,
    ) {
        let w = warehouse();
        let traj = trajectories(&w, agents, horizon, seed, mode);
        assert_builds_agree(&w, &traj, &ALL_ORDERS);
    }
}

#[test]
fn single_agent_spanning_several_blocks() {
    // 4,096 rows per block: blocks of 4,096, 4,096 and 1,809 rows.
    let w = warehouse();
    for mode in 0..3 {
        let traj = trajectories(&w, 1, 10_000, 7, mode);
        assert_builds_agree(&w, &traj, &ALL_ORDERS);
    }
}

#[test]
fn rows_wider_than_a_block() {
    // 6,000 agents exceed a 5,461-state block: one row per block. Widening
    // one agent at a time would rewrite every row 6,000 times, so the
    // agent-by-agent builds add every agent first.
    let w = warehouse();
    for mode in 0..3 {
        let traj = trajectories(&w, 6_000, 3, 11, mode);
        assert_builds_agree(&w, &traj, &[Order::AddThenFill, Order::RoundRobin]);
    }
}

#[test]
fn agentless_plan_checks_ok_with_horizon_zero() {
    let w = warehouse();
    let checker = PlanChecker::new(&w);
    let mut plan = Plan::new();
    assert_eq!(plan.horizon(), 0);
    assert_eq!(plan.agent_count(), 0);
    assert!(plan.row(0).is_empty());
    assert_eq!(plan.state(0, 0), None);
    let stats = checker
        .check(&plan)
        .expect("an agent-less plan is feasible");
    assert_eq!((stats.agents, stats.horizon), (0, 0));
    // A row of no agents adds nothing.
    plan.push_row(std::iter::empty());
    assert_eq!(plan.horizon(), 0);
    assert_eq!(plan, Plan::new());
    assert!(checker.check(&plan).is_ok());
}

#[test]
fn ragged_plans_fail_with_malformed_plan() {
    let w = warehouse();
    let checker = PlanChecker::new(&w);
    let s = |v: u32| AgentState::idle(VertexId(v));
    let assert_ragged = |plan: &Plan, detail: &str| {
        let Err(ModelError::MalformedPlan { detail: got }) = plan.validate_shape() else {
            panic!("ragged plan passed validate_shape: {plan:?}");
        };
        assert_eq!(got, detail);
        let err = checker.check(plan).unwrap_err();
        assert!(err.violations.is_empty());
        assert!(matches!(
            err.malformed,
            Some(ModelError::MalformedPlan { .. })
        ));
    };

    // A later agent never pushed.
    let mut plan = Plan::new();
    let a = plan.add_agent(s(0));
    plan.add_agent(s(2));
    plan.push_state(a, s(0));
    assert_ragged(&plan, "agent 0 has 2 states but agent 1 has 1");
    assert_eq!(plan.horizon(), 1);
    assert_eq!(plan.state(1, 1), None);

    // An agent joining a plan that already has rows.
    let mut plan = Plan::new();
    let a = plan.add_agent(s(0));
    plan.push_state(a, s(0));
    plan.push_state(a, s(0));
    let b = plan.add_agent(s(2));
    assert_ragged(&plan, "agent 0 has 3 states but agent 1 has 1");
    assert_eq!(plan.trajectory(b), [s(2)]);
    // Filling the short trajectory makes the plan well formed again.
    plan.push_state(b, s(2));
    plan.push_state(b, s(2));
    assert!(plan.validate_shape().is_ok());
    assert!(checker.check(&plan).is_ok());
    plan.push_row([s(1), s(2)]);
    assert_eq!(plan.horizon(), 3);

    // A later agent running ahead.
    let mut plan = Plan::new();
    plan.add_agent(s(0));
    let b = plan.add_agent(s(2));
    plan.push_state(b, s(2));
    assert_ragged(&plan, "agent 0 has 1 states but agent 1 has 2");
}

#[test]
fn equality_and_debug_see_only_trajectories() {
    let s = |v: u32| AgentState::idle(VertexId(v));
    // The same ragged trajectories, built so the cell past agent 1's
    // trajectory holds different placeholders.
    let mut first = Plan::new();
    let a = first.add_agent(s(0));
    first.add_agent(s(2));
    first.push_state(a, s(1));
    let mut second = Plan::new();
    let a = second.add_agent(s(0));
    second.push_state(a, s(1));
    second.add_agent(s(2));
    assert_eq!(first, second);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert_eq!(
        format!("{first:?}"),
        format!(
            "Plan {{ trajectories: [{:?}, {:?}] }}",
            [s(0), s(1)],
            [s(2)]
        )
    );

    // A clone (its blocks hold no spare capacity) equals its original.
    let traj = trajectories(&warehouse(), 40, 70, 3, 1);
    let rows = by_rows(&traj);
    let clone = rows.clone();
    assert_eq!(clone, rows);
    assert_eq!(format!("{clone:?}"), format!("{rows:?}"));

    // One differing state or one extra state breaks equality.
    let mut changed = traj.clone();
    changed[39][70] = s(5);
    assert_ne!(by_rows(&changed), rows);
    let mut longer = rows.clone();
    longer.push_state(0, traj[0][70]);
    assert_ne!(longer, rows);
}

#[test]
#[should_panic(expected = "push_row got 1 states for 2 agents")]
fn push_row_of_the_wrong_width_panics() {
    let mut plan = Plan::new();
    plan.add_agent(AgentState::idle(VertexId(0)));
    plan.add_agent(AgentState::idle(VertexId(1)));
    plan.push_row([AgentState::idle(VertexId(0))]);
}
