//! The auction policy's tick phases — assignment, mission stepping,
//! yield-nudges and fault sheds — as [`AuctionState`] methods borrowing
//! only the engine parts they touch (see [`crate::engine`]). Every
//! decision is a pure index-deterministic function of the pending queue,
//! the agent states and the tick.

use std::collections::VecDeque;

use wsp_model::{FloorplanGraph, LocationMatrix, VertexId, NO_INDEX};

use crate::assign::{select_agent, AgentBid, AuctionState, Leg, LegAction, Mission, MissionKind};
use crate::engine::{Fleet, Floor, Scheduler, Window};
use crate::report::SimCounters;
use crate::stream::Task;

/// Bounded-BFS caps the idle-neighbourhood probes escalate through (the
/// rebalance slate rebuilds the same ladder from cached anchor fields).
const PROBE_CAPS: [u32; 4] = [32, 128, 512, u32::MAX];

/// Most tasks batched onto one agent per assignment: the first task plus
/// up to `BATCH - 1` queued same-product followers.
const BATCH: usize = 4;

/// Idle agents the rebalancer stages near each station.
const REBALANCE_PER_STATION: u32 = 2;

/// Station-pressure weight: each already-assigned undelivered task at a
/// station adds this many BFS steps to its bid, spreading load.
const STATION_BIAS: u32 = 8;

/// Ticks a mission agent stays blocked before nudging a parked blocker
/// into a drift walk.
const YIELD_AFTER: u32 = 2;

/// Ticks blocked before a task mission reroutes around the contested cell
/// (repositioning missions give up and park instead).
const REROUTE_AFTER: u32 = 8;

/// What the mission phases read of the world at tick `t`.
#[derive(Clone, Copy)]
pub(crate) struct Roads<'w> {
    pub t: u64,
    pub graph: &'w FloorplanGraph,
    pub floor: &'w Floor,
    /// [`AssignConfig::route_cap`](crate::AssignConfig::route_cap).
    pub route_cap: u32,
}

impl<'w> Roads<'w> {
    pub(crate) fn new(t: u64, graph: &'w FloorplanGraph, floor: &'w Floor, route_cap: u32) -> Self {
        Roads {
            t,
            graph,
            floor,
            route_cap,
        }
    }
}

/// Why a task route could not be installed: no field route around the
/// closed cells, or one longer than `route_cap`.
enum NoRoute {
    Unreachable,
    OverCap,
}

impl AuctionState {
    /// The one route-install helper for task missions: the field route
    /// `from → to` around closed cells (and `ban`), refused when it is
    /// longer than `route_cap`. Staging routes are uncapped and call
    /// [`route`](Self::route) directly.
    fn install_route(
        &mut self,
        roads: Roads<'_>,
        from: VertexId,
        to: VertexId,
        ban: Option<VertexId>,
    ) -> Result<Vec<VertexId>, NoRoute> {
        let closed = roads.floor.closed(roads.t);
        match self.route(roads.graph, from, to, ban, closed) {
            None => Err(NoRoute::Unreachable),
            Some(path) if path.len() > roads.route_cap as usize => Err(NoRoute::OverCap),
            Some(path) => Ok(path),
        }
    }

    /// Pops bids best-first ([`select_agent`]) until `route` finds a
    /// route for one; returns that agent and its route.
    fn take_routable_bid(
        &mut self,
        mut route: impl FnMut(&mut Self, usize) -> Option<Vec<VertexId>>,
    ) -> Option<(usize, Vec<VertexId>)> {
        while let Some(bid) = select_agent(&self.bids) {
            self.bids.retain(|b| b.agent != bid.agent);
            let a = bid.agent as usize;
            if let Some(path) = route(self, a) {
                return Some((a, path));
            }
        }
        None
    }

    /// Whether this tick's assignment phase is provably a byte-identical
    /// no-op: the last pass was clean, no input dirtied it since
    /// (arrivals, sheds, drops, retirements, nudges, stalls, wakes,
    /// replans), and no awake agent carries a replaceable mission (an
    /// eligible bidder whose bid moves every tick; idle agents park and
    /// task agents don't bid). Both engines evaluate it identically.
    pub(crate) fn skippable(&self, sched: &Scheduler) -> bool {
        if !self.dirty_skip || self.dirty || !self.pass_clean {
            return false;
        }
        (0..self.missions.len()).all(|a| {
            !sched.is_awake(a) || !self.missions[a].as_ref().is_some_and(Mission::replaceable)
        })
    }

    /// Whether an idle agent may sleep: no assignment could touch it next
    /// tick (see [`crate::event`]).
    pub(crate) fn quiet(&self) -> bool {
        !self.idle_dirty && (self.pending.is_empty() || (self.pass_clean && !self.dirty))
    }

    /// The assignment phase, run identically by both engines at the top
    /// of every executed tick: one rotation over the pending queue
    /// matching each task to its cheapest `(station, site)` pair and the
    /// nearest eligible agent (the [`select_agent`] minimum), with
    /// same-product batching; then, once the queue is drained and an
    /// agent just went idle, the idle rebalance. Unassignable tasks
    /// rotate to the back in arrival order, and there are no per-tick
    /// work caps, so elided stretches provably hide no assignment.
    ///
    /// On exit the pass records whether it was *clean* — committed
    /// nothing and left the queue in arrival order — which, with the
    /// dirty flag staying clear, licenses skipping the next pass. Winners
    /// woken here leave the flag clear: their commit already keeps the
    /// pass from being clean.
    pub(crate) fn assign(
        &mut self,
        roads: Roads<'_>,
        fleet: &Fleet,
        sched: &mut Scheduler,
        win: &mut Window,
        counters: &mut SimCounters,
    ) {
        let (t, graph) = (roads.t, roads.graph);
        let dark = |q: usize| roads.floor.dark(q, t);
        self.dirty = false;
        let mut rotations = 0usize;
        let mut committed = false;

        let mut rounds = self.pending.len();
        'tasks: while rounds > 0 {
            rounds -= 1;
            let Some(&task) = self.pending.front() else {
                break;
            };
            let Some((q, site)) = self.pick_station_site(task.product, STATION_BIAS, dark) else {
                // No stocked, field-reachable site right now: rotate the
                // task to the back and look at the next one.
                self.pending.rotate_left(1);
                rotations += 1;
                continue;
            };
            // The nearest eligible agents by BFS distance from the site,
            // each escalating cap resuming the previous cap's frontier.
            let (dist, touched) = (&mut self.probe_dist, &mut self.probe_touched);
            let mut probe = graph.bfs_bounded_begin(site, PROBE_CAPS[0], dist, touched);
            for (i, cap) in PROBE_CAPS.into_iter().enumerate() {
                if i > 0 {
                    graph.bfs_bounded_resume(&mut probe, cap, dist, touched);
                }
                self.bids.clear();
                let mut any_eligible = false;
                for a in 0..fleet.pos.len() {
                    // `free` also bars a recovered agent still hauling a
                    // shed task's stranded unit (fault-free, carriers are
                    // never replaceable anyway).
                    if !fleet.free(a, t)
                        || !self.missions[a].as_ref().is_none_or(Mission::replaceable)
                    {
                        continue;
                    }
                    any_eligible = true;
                    let d = dist[fleet.pos[a].index()];
                    if d != u32::MAX {
                        self.bids.push(AgentBid {
                            agent: a as u32,
                            cost: d,
                        });
                    }
                }
                if !any_eligible {
                    // Eligibility is task-independent: nobody can take
                    // any task this tick.
                    break 'tasks;
                }
                if !self.bids.is_empty() {
                    break;
                }
            }
            // Auction order over the probed slate; a winner with no
            // installable route falls through to the next-best bid.
            let Some((a, path)) = self.take_routable_bid(|auc, a| {
                auc.install_route(roads, fleet.pos[a], site, None).ok()
            }) else {
                // Eligible agents exist but none can reach this site;
                // rotate and retry later (stock or topology may change).
                self.pending.rotate_left(1);
                rotations += 1;
                continue;
            };
            committed = true;

            // Commit, batching queued same-product tasks onto this agent.
            self.pending.pop_front();
            let mut legs = VecDeque::with_capacity(2 * BATCH);
            self.commit_task(&mut legs, task, q, site, counters);
            let mut q_prev = q;
            let mut extras = BATCH - 1;
            let mut i = 0;
            while extras > 0 && i < self.pending.len() {
                if self.pending[i].product != task.product {
                    i += 1;
                    continue;
                }
                let Some((q2, s2)) = self.pick_followup(task.product, q_prev, STATION_BIAS, dark)
                else {
                    break;
                };
                let extra = self.pending.remove(i).expect("index in range");
                self.commit_task(&mut legs, extra, q2, s2, counters);
                q_prev = q2;
                extras -= 1;
            }
            self.unstage(a);
            self.missions[a] = Some(Mission::new(MissionKind::Task, path, legs));
            sched.wake(a, t, win, fleet.carry[a].is_some(), counters);
        }

        // Idle rebalance, once the queue is drained (tasks outrank
        // staging) and an agent went idle since the last pass.
        if self.pending.is_empty() && self.idle_dirty {
            self.idle_dirty = false;
            committed |= self.rebalance(roads, fleet, sched, win, counters);
        }
        // Clean = nothing committed and the queue back in arrival order:
        // untouched or rotated all the way around (a partial rotation
        // leaves it reordered, so the next pass must really run).
        self.pass_clean = !committed && (rotations == 0 || rotations == self.pending.len());
    }

    /// Commits `task` into `legs`: reserves its unit at `site`, opens a
    /// slot at station `q`, and appends the pickup→drop leg pair.
    fn commit_task(
        &mut self,
        legs: &mut VecDeque<Leg>,
        task: Task,
        q: u16,
        site: VertexId,
        counters: &mut SimCounters,
    ) {
        self.reserved.remove_units(site, task.product, 1);
        self.open[q as usize] += 1;
        legs.push_back(Leg {
            goal: site,
            action: LegAction::Pickup(task),
        });
        legs.push_back(Leg {
            goal: self.stations[q as usize],
            action: LegAction::Drop {
                arrival: task.arrival,
                station: q,
            },
        });
        counters.assignments_made += 1;
        counters.events_processed += 1;
    }

    /// Stages idle agents at station anchors, least-staged and most
    /// pressured stations first; returns whether it staged anyone.
    fn rebalance(
        &mut self,
        roads: Roads<'_>,
        fleet: &Fleet,
        sched: &mut Scheduler,
        win: &mut Window,
        counters: &mut SimCounters,
    ) -> bool {
        let t = roads.t;
        if self.stations.is_empty() {
            return false;
        }
        // The pool: idle, unstaged, free agents in ascending order. It
        // only shrinks during the pass, by the agents it stages.
        let mut pool: Vec<u32> = (0..fleet.pos.len())
            .filter(|&a| {
                self.missions[a].is_none() && self.staged_of[a].is_none() && fleet.free(a, t)
            })
            .map(|a| a as u32)
            .collect();
        let mut order: Vec<u16> = (0..self.stations.len() as u16).collect();
        order.sort_unstable_by_key(|&q| {
            (
                self.staged[q as usize],
                std::cmp::Reverse(self.open[q as usize]),
                q,
            )
        });
        let mut staged_any = false;
        'stations: for &q in &order {
            if roads.floor.dark(q as usize, t) {
                // A dark station's backlog redistributes instead.
                continue;
            }
            while self.staged[q as usize] < REBALANCE_PER_STATION {
                if pool.is_empty() {
                    break 'stations;
                }
                let anchor = self.anchors[q as usize];
                // The slate escalating-cap probes would produce, rebuilt
                // from the anchor's cached field: every pool agent within
                // the first cap that catches the nearest one.
                let field = self.fields.anchor_field(q as usize);
                self.bids.clear();
                self.bids.extend(pool.iter().map(|&a| AgentBid {
                    agent: a,
                    cost: field[fleet.pos[a as usize].index()],
                }));
                let dmin = self.bids.iter().map(|b| b.cost).min().unwrap_or(u32::MAX);
                if dmin == u32::MAX {
                    self.bids.clear();
                } else {
                    let cap = *PROBE_CAPS
                        .iter()
                        .find(|&&c| dmin <= c)
                        .expect("u32::MAX cap catches everything");
                    self.bids.retain(|b| b.cost <= cap);
                }
                let closed = roads.floor.closed(t);
                let Some((a, path)) = self.take_routable_bid(|auc, a| {
                    auc.route(roads.graph, fleet.pos[a], anchor, None, closed)
                }) else {
                    // The pool can't reach any anchor worth staging.
                    break 'stations;
                };
                pool.retain(|&b| b as usize != a);
                self.missions[a] = Some(Mission::new(
                    MissionKind::Reposition(q),
                    path,
                    VecDeque::new(),
                ));
                self.staged_of[a] = Some(q);
                self.staged[q as usize] += 1;
                staged_any = true;
                counters.rebalance_moves += 1;
                counters.events_processed += 1;
                sched.wake(a, t, win, fleet.carry[a].is_some(), counters);
            }
        }
        staged_any
    }

    /// Advances agent `a`'s mission after the move phase: fires the carry
    /// action pending since arrival on the pre-move cell `old` (the plan
    /// checker's condition (3) convention), tracks progress and blocking
    /// (nudges, reroutes), pops legs on arrival, and retires it when done.
    pub(crate) fn step_mission(
        &mut self,
        a: usize,
        old: VertexId,
        roads: Roads<'_>,
        fleet: &mut Fleet,
        ledger: &mut LocationMatrix,
        counters: &mut SimCounters,
    ) {
        let Some(mut m) = self.missions[a].take() else {
            return;
        };
        let t = roads.t;
        let pos = fleet.pos[a];

        // 1. Pending carry action fires on this transition.
        match m.action.take() {
            Some(LegAction::Pickup(Task { product, arrival })) => {
                debug_assert!(
                    ledger.units_at(old, product) > 0,
                    "assigned pickup of {product} at {old} with an empty ledger"
                );
                debug_assert!(fleet.carry[a].is_none(), "pickup while carrying");
                ledger.remove_units(old, product, 1);
                fleet.carry[a] = Some(product);
                fleet.attached[a] = Some(arrival);
                counters.queued -= 1;
                counters.in_flight += 1;
            }
            Some(LegAction::Drop { arrival, station }) => {
                debug_assert!(fleet.carry[a].is_some(), "drop while empty");
                fleet.carry[a] = None;
                fleet.attached[a] = None;
                counters.delivered += 1;
                counters.in_flight -= 1;
                counters.record_latency(t + 1 - arrival);
                self.close_slot(station);
                self.dirty = true;
            }
            None => {}
        }

        // 2. Route progress / blocking.
        if pos != old {
            m.at += 1;
            debug_assert_eq!(m.path[m.at], pos, "mission route desync");
            m.blocked = 0;
            m.wedged = false;
        } else if m.at + 1 < m.path.len() {
            m.blocked += 1;
            let want = m.path[m.at + 1];
            let b = roads.floor.occupant[want.index()];
            if m.blocked >= YIELD_AFTER && b != NO_INDEX {
                // Deferred to phase 8b; idle blockers drift clear, moving
                // or stalled ones are filtered at application time.
                self.nudge_buf.push(b);
            }
            if m.blocked >= REROUTE_AFTER {
                match m.kind {
                    MissionKind::Task => {
                        if m.blocked % REROUTE_AFTER == 0 {
                            let goal = *m.path.last().expect("non-empty route");
                            match self.install_route(roads, pos, goal, Some(want)) {
                                Ok(path) => m.set_route(path),
                                // The corridor is walled off by parked
                                // agents and the detour would tour the
                                // floor: wedge (park frozen) and retry
                                // when something moves.
                                Err(NoRoute::OverCap) => m.wedged = true,
                                // Stay awake and retry on the next
                                // reroute tick.
                                Err(NoRoute::Unreachable) => {}
                            }
                        }
                    }
                    // Staging and drifting are best-effort: park here.
                    MissionKind::Reposition(_) | MissionKind::Drift => {
                        m.path.truncate(m.at + 1);
                    }
                }
            }
        }

        // 3. At the route's end: pop the next leg (its action fires next
        // transition), route the following hop, or retire the mission.
        let mut done = false;
        if m.at + 1 >= m.path.len() && m.action.is_none() {
            match m.legs.pop_front() {
                Some(leg) => {
                    debug_assert_eq!(leg.goal, pos, "mission leg desync");
                    m.action = Some(leg.action);
                    if let Some(&Leg { goal, .. }) = m.legs.front() {
                        match self.install_route(roads, pos, goal, None) {
                            Ok(path) => m.set_route(path),
                            Err(_) => {
                                // The next leg is unreachable or over the
                                // cap: shed the unserved legs back to the
                                // queue. A pickup about to fire goes with
                                // them, since its drop leg is shed too.
                                if let Some(action @ LegAction::Pickup(_)) = m.action {
                                    m.action = None;
                                    m.legs.push_front(Leg { goal: pos, action });
                                }
                                self.shed_legs(&mut m, counters);
                                self.dirty = true;
                            }
                        }
                    }
                    if m.legs.is_empty() {
                        if matches!(m.action, Some(LegAction::Drop { .. })) {
                            // Final drop: walk off while it fires, so the
                            // station clears for the next delivery.
                            m.kind = MissionKind::Drift;
                            let closed = roads.floor.closed(t);
                            m.set_route(self.drift_walk(
                                roads.graph,
                                pos,
                                &roads.floor.occupant,
                                closed,
                            ));
                        } else if m.action.is_none() {
                            done = true;
                        }
                    }
                }
                None => done = true,
            }
        }

        if done {
            counters.events_processed += 1;
            self.idle_dirty = true;
            self.dirty = true;
        } else {
            self.missions[a] = Some(m);
        }
    }

    /// Applies the yield-nudges deferred during the sweep, in its
    /// engine-independent order: each still-idle, unstalled blocker gets
    /// a drift mission toward the next junction (waking it if asleep).
    pub(crate) fn apply_nudges(
        &mut self,
        roads: Roads<'_>,
        fleet: &Fleet,
        sched: &mut Scheduler,
        win: &mut Window,
        counters: &mut SimCounters,
    ) {
        let t = roads.t;
        for i in 0..self.nudge_buf.len() {
            let b = self.nudge_buf[i] as usize;
            if t < fleet.stall_until[b] || self.missions[b].is_some() {
                continue;
            }
            let closed = roads.floor.closed(t);
            let path = self.drift_walk(roads.graph, fleet.pos[b], &roads.floor.occupant, closed);
            if path.len() > 1 {
                self.missions[b] = Some(Mission::new(MissionKind::Drift, path, VecDeque::new()));
                self.dirty = true;
                counters.events_processed += 1;
                sched.wake(b, t, win, fleet.carry[b].is_some(), counters);
            }
        }
        self.nudge_buf.clear();
    }

    /// Sheds a broken-down agent's assigned tasks back to the queue in
    /// arrival order (see [`shed_legs`](Self::shed_legs)). The *carried*
    /// task is kept on a temporary breakdown — the unit rides the robot
    /// and is delivered after recovery — but re-queued on a permanent
    /// one, where the unit strands and another agent re-picks the task
    /// (`in_flight → queued`, so conservation never bends).
    pub(crate) fn shed_agent(
        &mut self,
        a: usize,
        permanent: bool,
        fleet: &mut Fleet,
        counters: &mut SimCounters,
    ) {
        self.unstage(a);
        let Some(mut m) = self.missions[a].take() else {
            return;
        };
        // Carried iff the next drop precedes the next pickup: the pending
        // action, else the front leg, is a drop (legs strictly alternate
        // pickup/drop per task).
        let next = m.action.or(m.legs.front().map(|l| l.action));
        let carried = matches!(next, Some(LegAction::Drop { .. }));
        if carried && !permanent {
            // Keep exactly the pending delivery; shed the rest.
            let kept = if m.action.is_some() {
                None
            } else {
                m.legs.pop_front()
            };
            self.shed_legs(&mut m, counters);
            match kept {
                Some(leg) => m.legs.push_back(leg),
                // Only the pending drop action remains; stop walking the
                // stale route toward the next (now shed) leg.
                None => m.path.truncate(m.at + 1),
            }
            self.missions[a] = Some(m);
        } else {
            if let Some(action) = m.action.take() {
                m.legs.push_front(Leg {
                    goal: fleet.pos[a],
                    action,
                });
            }
            if carried {
                let leg = m.legs.pop_front().expect("carried mission fronts its drop");
                let LegAction::Drop { arrival, station } = leg.action else {
                    unreachable!("carried mission fronts a drop leg");
                };
                self.close_slot(station);
                let product = fleet.carry[a].expect("carried drop leg");
                fleet.attached[a] = None;
                counters.in_flight -= 1;
                counters.queued += 1;
                counters.tasks_shed += 1;
                self.requeue(Task { product, arrival });
            }
            self.shed_legs(&mut m, counters);
            // A recovered, task-less agent rejoins the idle pool.
            self.idle_dirty = true;
        }
        self.dirty = true;
    }

    /// Drains `m.legs`, restoring each unexecuted pickup's reservation
    /// (and re-queueing its task) and releasing each drop's open slot.
    /// The carried task's drop, if any, must already be removed.
    fn shed_legs(&mut self, m: &mut Mission, counters: &mut SimCounters) {
        while let Some(leg) = m.legs.pop_front() {
            match leg.action {
                LegAction::Pickup(task) => {
                    self.restore_unit(leg.goal, task.product);
                    counters.tasks_shed += 1;
                    self.requeue(task);
                }
                LegAction::Drop { station, .. } => self.close_slot(station),
            }
        }
    }

    /// Re-queues a shed task after the arrivals ≤ its own — deterministic
    /// even when rotations have the queue mid-cycle.
    fn requeue(&mut self, task: Task) {
        let i = self.pending.partition_point(|p| p.arrival <= task.arrival);
        self.pending.insert(i, task);
    }

    /// Releases one assigned-but-undelivered slot at `station`.
    fn close_slot(&mut self, station: u16) {
        let open = &mut self.open[station as usize];
        *open = open.saturating_sub(1);
    }

    /// Removes agent `a` from its station's staged count, if staged.
    fn unstage(&mut self, a: usize) {
        if let Some(q) = self.staged_of[a].take() {
            self.staged[q as usize] -= 1;
        }
    }
}
