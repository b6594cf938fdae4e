//! The lifelong simulation engine: executes a synthesized design tick by
//! tick against a task stream, with rolling-horizon replanning through
//! windowed realization, stall deviations, and MAPF catch-up repair.
//!
//! # Event model
//!
//! Each tick `t`, in order:
//!
//! 1. **Arrivals** — the seeded [`TaskStream`] delivers this tick's tasks
//!    into per-product FIFO queues (under
//!    [`AssignPolicy::Auction`](crate::AssignPolicy), into the auction's
//!    pending queue instead).
//! 2. **Deviations** — the seeded [`DeviationSchedule`] freezes victims in
//!    place for a few ticks. Then **faults** — the seeded
//!    [`FaultSchedule`] breaks agents (an unbounded stall whose assigned
//!    tasks are shed back to the queue), darkens stations (no new
//!    assignments until the outage expires), and closes corridor cells
//!    (moves into them are vetoed; routes and repairs detour around).
//!    Expired faults re-open symmetrically, and every fire/expiry is a
//!    forced tick, so chaos runs elide and parallelize exactly like
//!    clean ones.
//! 3. **Assignment** (`Auction` only) — a deterministic auction matches
//!    pending tasks to idle or soon-idle agents by minimum
//!    `(BFS-distance, agent index)` bid, batches same-product tasks onto
//!    the winner, and stages leftover idle agents toward pressured
//!    stations ([`crate::assign`] states the exact cost model); matched
//!    agents receive pickup→drop *missions* that replace the window plan
//!    as their movement source.
//! 4. **Repair** — agents far enough behind their window plan get a
//!    space-time A* catch-up path planned against a reservation table of
//!    everyone else's projected trajectory (parallel fan-out, slot-indexed
//!    for determinism). Skipped under `Auction`: missions re-route
//!    themselves, and plan lag is undefined off-plan.
//! 5. **Movement** — every agent names its desired next cell (its repair
//!    path, else its mission path under `Auction`, else its window plan);
//!    a vacancy-chain grant pass then executes all
//!    conflict-free chains simultaneously. Grants require the target cell
//!    empty or its occupant granted away, and one grant per cell, so
//!    vertex collisions and edge swaps are impossible *by construction*
//!    regardless of how badly deviations scrambled the schedule — blocked
//!    agents simply wait and accrue lag.
//! 6. **Bookkeeping** — executed pickups debit the authoritative stock
//!    ledger and attach the oldest queued task (mission legs fire their
//!    own pickup/drop actions); executed drop-offs
//!    complete tasks and record latency; conservation
//!    (`injected == completed + in_flight + queued`) is asserted. Mission
//!    agents blocked long enough file deferred nudges, applied after the
//!    sweep so wake ordering stays engine-independent.
//!
//! When the window is exhausted (or lag crosses the early-replan
//! threshold) the engine snapshots the *actual* agent states and realizes
//! the next window from them
//! ([`wsp_realize::realize_window_with_scratch`]) — deviation divergence
//! heals at every replan, and in a deviation-free run the windows
//! concatenate to exactly the one-shot realization (the differential
//! tests pin this). Under `Auction` no agent follows the window plan, so
//! a replan keeps only the cadence (everyone wakes, cursors reset) and
//! realizes nothing.
//!
//! # Parts and phase functions
//!
//! [`Simulation`] keeps its state in disjoint parts, and each tick phase
//! borrows only the parts it reads or writes:
//!
//! * `Fleet` — per-agent position, load, cycle progress, stalls, detours.
//! * `Floor` — occupancy, outages and closures, grant-pass scratch.
//!   `Floor::closed` is the one closed-cell view; `Floor::grant` is the
//!   movement phase's grant pass.
//! * `Scheduler` — sleep ledger, bucket queue and active set.
//!   `Scheduler::pop_due` runs due events;
//!   `Scheduler::wake` is the one wake path and never touches the
//!   auction (callers that change its inputs mark it dirty).
//! * `Window` — the window plan (empty under `Auction`) and every agent's
//!   cursor into it.
//! * `RepairScratch` — requests, projection and reservation table for
//!   `Simulation::try_repairs`.
//! * the auction (`AuctionState`, present exactly under `Auction`), with
//!   its own bid slate and nudge buffer. Its phases live in
//!   [`crate::mission`] (`assign`, `step_mission`, `apply_nudges`,
//!   `shed_agent`) and install task routes through one helper that
//!   applies `route_cap`. It never leaves its field.
//!
//! Plan following (`advance_on_plan`), faults (`apply_fault`), sleep
//! decisions (`maybe_sleep`) and replans are methods on [`Simulation`].
//!
//! # Event-driven stepping
//!
//! The default [`SimEngine::Event`] engine runs that tick model through a
//! time-ordered event queue instead of sweeping every agent every tick.
//! Agents whose next ticks are provably no-ops under the reference loop
//! go to sleep ([`crate::event`] states the exact contract) with a
//! wake-up — their next scheduled state change, found by scanning the
//! window plan forward from their cursor — filed in a monotone
//! bucket queue ([`crate::queue`]); each executed tick then runs phases
//! 1–6 over the *active set* only, and when the active set is empty the
//! engine advances time directly to the next forced tick (queued event,
//! task arrival, stall firing, window boundary, or a pending replan's
//! minimum-gap expiry), bulk-accounting the skipped ticks.
//!
//! Elision is unobservable by construction: [`SimEngine::Reference`]
//! keeps the original full-sweep loop (plus the same scheduler
//! bookkeeping, run virtually, with `debug_assert`s that every sleeping
//! agent really did stay quiescent) and the differential tests pin the
//! two engines to byte-identical [`SimReport`] JSON at every repair
//! thread count.

use std::collections::VecDeque;

use wsp_core::{Pipeline, PipelineError, PipelineOptions, WspInstance};
use wsp_flow::AgentCycleSet;
use wsp_mapf::ReservationTable;
use wsp_model::{
    AgentState, Carry, Coord, FloorplanGraph, LocationMatrix, Plan, ProductId, VertexId, NO_INDEX,
};
use wsp_realize::{realize_window_with_scratch, AgentSnapshot, RealizeScratch};

use crate::assign::{AssignConfig, AssignPolicy, AuctionState, ClosedSet};
use crate::deviation::{
    DeviationConfig, DeviationSchedule, FaultConfig, FaultEvent, FaultSchedule, NEVER,
};
use crate::event::{self, SleepBook, SleepMode};
use crate::mission::Roads;
use crate::queue::BucketQueue;
use crate::repair::{accept_repairs, plan_repairs, RepairPath, RepairRequest};
use crate::report::{Fnv, SimCounters, SimReport};
use crate::stream::{StreamConfig, TaskStream};

/// Sentinel rejoin index for repairs that outlived their window plan: the
/// agent finishes its detour, then parks until the next replan re-anchors
/// it.
const STRAY_REJOIN: usize = usize::MAX;

/// Minimum ticks between early replans (window-boundary replans are
/// exempt).
const MIN_REPLAN_GAP: u64 = 8;

/// Catch-up rejoin target: the plan cell `lag + SLACK` indices ahead of
/// the cursor; the detour must arrive within `SLACK` ticks (the schedule
/// recovered in full).
const SLACK: usize = 6;

/// Per-agent ticks between repair attempts.
const REPAIR_COOLDOWN: u64 = 8;

/// Most catch-up searches per tick; when more agents are eligible, the
/// deepest-lagged (ties: lowest agent index) go first and the rest retry
/// next tick. Bounds repair cost on convoy pile-ups with thousands of
/// lagged agents.
const MAX_BATCH: usize = 16;

/// Configuration of the MAPF catch-up repair stage.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Master switch (off by default: deviations then heal at replans
    /// only).
    pub enabled: bool,
    /// Attempt a catch-up once an agent's lag reaches this many ticks.
    pub lag_threshold: usize,
    /// Worker threads for the A* fan-out (`None`: `WSP_THREADS`, then
    /// available parallelism). Results are byte-identical at any count.
    pub threads: Option<usize>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            enabled: false,
            lag_threshold: 4,
            threads: None,
        }
    }
}

/// Which stepping core drives the simulation. Both produce byte-identical
/// [`SimReport`] JSON for identical `(instance, config)` at every repair
/// thread count — the differential tests pin this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Event-driven (the default): quiescent agents sleep on a bucket
    /// queue, fully quiescent ticks are skipped outright, and each
    /// executed tick sweeps only the active set.
    #[default]
    Event,
    /// The original full-sweep tick loop, kept as the oracle for the
    /// event engine (it still runs the scheduler bookkeeping virtually so
    /// the event counters match).
    Reference,
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Rolling-horizon window length in ticks (`0`: twice the design's
    /// cycle time, at least 32).
    pub window: usize,
    /// Ticks [`Simulation::run`] executes.
    pub ticks: u64,
    /// The task arrival stream.
    pub stream: StreamConfig,
    /// The task-assignment layer ([`AssignPolicy::Static`] by default —
    /// the seed pickup-attach behavior, bit-for-bit).
    pub assign: AssignConfig,
    /// The stall-deviation process.
    pub deviations: DeviationConfig,
    /// The structural fault-injection process (agent breakdowns, station
    /// outages, corridor closures; all streams off by default). Enabling
    /// any stream also turns on the report's fault counters.
    pub faults: FaultConfig,
    /// The MAPF catch-up repair stage.
    pub repair: RepairConfig,
    /// Replan early once any agent's lag reaches this (`0`: replan at
    /// window boundaries only). Early replans keep a fixed minimum gap
    /// between them; window-boundary replans are exempt.
    pub replan_lag: usize,
    /// Record the executed trajectories as a [`Plan`] (for the
    /// differential tests; costs O(agents × ticks) memory — and makes
    /// elided ticks cost O(agents) each, since their unchanged states
    /// still get recorded).
    pub record: bool,
    /// The stepping core (event-driven by default).
    pub engine: SimEngine,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            window: 0,
            ticks: 1_000,
            stream: StreamConfig::default(),
            assign: AssignConfig::default(),
            deviations: DeviationConfig::default(),
            faults: FaultConfig::default(),
            repair: RepairConfig::default(),
            replan_lag: 0,
            record: false,
            engine: SimEngine::default(),
        }
    }
}

/// Ways a simulation can fail to build or step.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The staged pipeline failed (synthesis, decomposition, or a window
    /// realization).
    Pipeline(PipelineError),
    /// The design has no agents to simulate.
    NoAgents,
    /// The configuration is inconsistent with the instance (e.g. the task
    /// mix demands products outside the catalog).
    BadConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Pipeline(e) => write!(f, "pipeline: {e}"),
            SimError::NoAgents => f.write_str("design has no agents"),
            SimError::BadConfig(detail) => write!(f, "bad sim config: {detail}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for SimError {
    fn from(e: PipelineError) -> Self {
        SimError::Pipeline(e)
    }
}

/// Per-agent runtime state: position, load, cycle progress, stalls and
/// catch-up detours.
#[derive(Debug)]
pub(crate) struct Fleet {
    pub pos: Vec<VertexId>,
    pub carry: Vec<Option<ProductId>>,
    pub cycle_of: Vec<usize>,
    pub step_of: Vec<usize>,
    pub advance_t: Vec<i64>,
    /// An agent is stalled while `t < stall_until[a]`. Breakdowns ride
    /// this too, with `NEVER` for permanent losses.
    pub stall_until: Vec<u64>,
    /// Arrival tick of the task riding with each agent.
    pub attached: Vec<Option<u64>>,
    pub repair: Vec<Option<RepairPath>>,
    pub repair_cooldown_until: Vec<u64>,
}

impl Fleet {
    /// Whether agent `a` can take new work at tick `t`: unstalled and
    /// empty-handed.
    pub(crate) fn free(&self, a: usize, t: u64) -> bool {
        t >= self.stall_until[a] && self.carry[a].is_none()
    }

    fn state(&self, a: usize) -> AgentState {
        AgentState {
            at: self.pos[a],
            carry: self.carry[a].map_or(Carry::Empty, Carry::Product),
        }
    }
}

/// The trajectory checksum's code for a load (`0`: empty).
fn carry_code(carry: Option<ProductId>) -> u64 {
    carry.map_or(0, |p| u64::from(p.0) + 1)
}

/// The floor: dense per-vertex tables preallocated once and cleared
/// through touched lists, so the tick body is O(agents).
#[derive(Debug)]
pub(crate) struct Floor {
    /// The agent on each vertex (`NO_INDEX`: empty).
    pub occupant: Vec<u32>,

    // Station `q` is dark while `t < dark_until[q]` (`dark_active` of
    // them), vertex `v` closed while `t < closed_until[v]`; `closed_cells`
    // lists the closed ones so expiry and repair scans stay O(closures).
    dark_until: Vec<u64>,
    dark_active: usize,
    closed_until: Vec<u64>,
    closed_cells: Vec<VertexId>,

    // Grant-pass scratch: this tick's claims, desires, grants and movers.
    claimed: Vec<bool>,
    claimed_cells: Vec<u32>,
    desired: Vec<VertexId>,
    granted: Vec<bool>,
    movers: Vec<usize>,
    // Vacancy-chain worklist: per-cell FIFO of movers waiting on that
    // cell (ascending agent order), as an intrusive linked list.
    waiter_head: Vec<u32>,
    waiter_tail: Vec<u32>,
    waiter_next: Vec<u32>,
    waiter_cells: Vec<u32>,
    grant_queue: Vec<usize>,
}

impl Floor {
    fn new(vertices: usize, stations: usize, pos: &[VertexId]) -> Self {
        let agents = pos.len();
        let mut occupant = vec![NO_INDEX; vertices];
        for (a, v) in pos.iter().enumerate() {
            occupant[v.index()] = a as u32;
        }
        Floor {
            occupant,
            dark_until: vec![0; stations],
            dark_active: 0,
            closed_until: vec![0; vertices],
            closed_cells: Vec::new(),
            claimed: vec![false; vertices],
            claimed_cells: Vec::with_capacity(agents),
            desired: vec![VertexId(0); agents],
            granted: vec![false; agents],
            movers: Vec::with_capacity(agents),
            waiter_head: vec![NO_INDEX; vertices],
            waiter_tail: vec![NO_INDEX; vertices],
            waiter_next: vec![NO_INDEX; agents],
            waiter_cells: Vec::with_capacity(agents),
            grant_queue: Vec::with_capacity(agents),
        }
    }

    /// The closed-cell view at tick `t`: the only way routes, drifts,
    /// and the move gate see corridor closures.
    pub(crate) fn closed(&self, t: u64) -> ClosedSet<'_> {
        ClosedSet {
            until: &self.closed_until,
            t,
        }
    }

    /// The earliest outage or closure expiry after `t`, if any.
    fn next_expiry(&self, t: u64) -> Option<u64> {
        let dark: &[u64] = if self.dark_active > 0 {
            &self.dark_until
        } else {
            &[]
        };
        let closed = self
            .closed_cells
            .iter()
            .map(|v| self.closed_until[v.index()]);
        dark.iter().copied().chain(closed).filter(|&u| u > t).min()
    }

    /// Whether station `q` is dark at tick `t`: it takes no new
    /// assignments, while deliveries already en route still complete.
    pub(crate) fn dark(&self, q: usize, t: u64) -> bool {
        t < self.dark_until[q]
    }

    /// Re-opens every station and cell with `until <= t`; returns whether
    /// any re-opened.
    fn expire(&mut self, t: u64) -> bool {
        let dark_before = self.dark_active;
        if self.dark_active > 0 {
            self.dark_active = self.dark_until.iter().filter(|&&u| u > t).count();
        }
        let closed_before = self.closed_cells.len();
        let until = &self.closed_until;
        self.closed_cells.retain(|v| until[v.index()] > t);
        self.dark_active < dark_before || self.closed_cells.len() < closed_before
    }

    /// Closes up to `len` cells walked from `anchor` along the seeded axis
    /// while grid edges continue, each until `until` (overlapping
    /// closures max-merge their expiries).
    fn close_corridor(
        &mut self,
        graph: &FloorplanGraph,
        anchor: usize,
        axis: u32,
        len: u32,
        until: u64,
        t: u64,
    ) {
        let (dx, dy): (i64, i64) = match axis % 4 {
            0 => (1, 0),
            1 => (0, 1),
            2 => (-1, 0),
            _ => (0, -1),
        };
        let mut v = VertexId(anchor as u32);
        for step in 0u32.. {
            if self.closed_until[v.index()] <= t {
                // Not currently closed, so not in the list yet (expiry
                // retains exactly the still-closed cells).
                self.closed_cells.push(v);
            }
            self.closed_until[v.index()] = self.closed_until[v.index()].max(until);
            if step + 1 >= len.max(1) {
                break;
            }
            let c = graph.coord(v);
            let nx = i64::from(c.x) + dx;
            let ny = i64::from(c.y) + dy;
            if nx < 0 || ny < 0 {
                break;
            }
            let Some(w) = graph.vertex_at(Coord::new(nx as u32, ny as u32)) else {
                break;
            };
            if !graph.has_edge(v, w) {
                break;
            }
            v = w;
        }
    }

    /// Vacancy-chain grants, O(movers): a move is granted when its target
    /// is unclaimed and either empty or freed by another granted move.
    /// Movers into occupied cells wait on the cell, and every grant wakes
    /// the lowest-indexed waiter of the cell it frees, so convoys resolve
    /// in one linear sweep. Pure cycles (incl. head-on swaps) never
    /// self-activate — collision freedom by construction. Granted moves
    /// then update the occupancy (vacate first, then occupy).
    fn grant(&mut self, pos: &[VertexId]) {
        for cell in self.claimed_cells.drain(..) {
            self.claimed[cell as usize] = false;
        }
        for cell in self.waiter_cells.drain(..) {
            self.waiter_head[cell as usize] = NO_INDEX;
            self.waiter_tail[cell as usize] = NO_INDEX;
        }
        self.grant_queue.clear();
        for &a in &self.movers {
            let v = self.desired[a];
            let vi = v.index();
            if self.claimed[vi] {
                // Already granted away to an earlier mover: dead this tick.
                continue;
            }
            if self.occupant[vi] == NO_INDEX {
                self.granted[a] = true;
                self.claimed[vi] = true;
                self.claimed_cells.push(v.0);
                self.grant_queue.push(a);
            } else {
                // Waiter on an occupied cell, appended in ascending agent
                // order (movers are scanned ascending).
                self.waiter_next[a] = NO_INDEX;
                if self.waiter_head[vi] == NO_INDEX {
                    self.waiter_head[vi] = a as u32;
                    self.waiter_cells.push(v.0);
                } else {
                    self.waiter_next[self.waiter_tail[vi] as usize] = a as u32;
                }
                self.waiter_tail[vi] = a as u32;
            }
        }
        let mut qi = 0;
        while qi < self.grant_queue.len() {
            let a = self.grant_queue[qi];
            qi += 1;
            let freed = pos[a];
            let head = self.waiter_head[freed.index()];
            if head != NO_INDEX && !self.claimed[freed.index()] {
                let b = head as usize;
                self.granted[b] = true;
                self.claimed[freed.index()] = true;
                self.claimed_cells.push(freed.0);
                self.grant_queue.push(b);
            }
        }
        for &a in &self.movers {
            if self.granted[a] {
                self.occupant[pos[a].index()] = NO_INDEX;
            }
        }
        for &a in &self.movers {
            if self.granted[a] {
                self.occupant[self.desired[a].index()] = a as u32;
            }
        }
    }
}

/// The window plan and every agent's cursor into it (on schedule, agent
/// `a` is at plan index `cursor[a]` at tick `start + cursor[a]`).
#[derive(Debug)]
pub(crate) struct Window {
    plan: Plan,
    start: u64,
    len: usize,
    cursor: Vec<usize>,
}

impl Window {
    fn state(&self, a: usize, k: usize) -> AgentState {
        self.plan.state(a, k).expect("within the window horizon")
    }

    /// Whether an agent standing on `pos` matches its cursor cell (the
    /// precondition for following the plan).
    fn aligned(&self, a: usize, pos: VertexId) -> bool {
        self.plan
            .state(a, self.cursor[a])
            .is_some_and(|s| s.at == pos)
    }

    /// Ticks from the window start to `t`.
    fn elapsed(&self, t: u64) -> usize {
        t.saturating_sub(self.start) as usize
    }

    /// Agent `a`'s plan lag at tick `t`.
    fn lag(&self, a: usize, t: u64) -> usize {
        self.lag_at(t, self.cursor[a])
    }

    /// The plan lag at tick `t` of an agent at plan index `cursor`.
    fn lag_at(&self, t: u64, cursor: usize) -> usize {
        self.elapsed(t).saturating_sub(cursor)
    }

    /// Length of agent `a`'s *silent run*: the smallest `j ≥ 1` whose plan
    /// state differs from the cursor's in position or carry (`None`: none
    /// before the window's end), by an amortized-O(1) forward scan.
    fn silent_run_len(&self, a: usize, pos: VertexId) -> Option<usize> {
        let cursor = self.cursor[a];
        debug_assert!(cursor < self.len);
        let carry = self.state(a, cursor).carry;
        (1..=self.len - cursor).find(|&j| {
            let s = self.state(a, cursor + j);
            s.at != pos || s.carry != carry
        })
    }
}

/// The event scheduler. The reference engine keeps all of it virtually
/// (its processing domain stays `0..n`), which is what keeps the two
/// engines' event/elision counters byte-identical.
#[derive(Debug)]
pub(crate) struct Scheduler {
    sleep: SleepBook,
    queue: BucketQueue,
    active: Vec<u32>,
    due_buf: Vec<u64>,
    engine: SimEngine,
    /// Agents follow the window plan (`Static`), so slept plan lag banks
    /// into `max_lag`; under `Auction` it stays 0 by configured policy.
    plan_lag: bool,
}

impl Scheduler {
    pub(crate) fn is_awake(&self, a: usize) -> bool {
        self.sleep.is_awake(a)
    }

    /// Materializes a sleeper's analytic cursor (the reference engine,
    /// which swept the agent for real, asserts they agree instead).
    fn settle(&self, a: usize, t: u64, cursor: &mut usize, settled: usize) {
        match self.engine {
            SimEngine::Event => *cursor = settled,
            SimEngine::Reference => debug_assert_eq!(
                settled, *cursor,
                "virtual sleep of agent {a} diverged from the reference sweep at t={t}"
            ),
        }
    }

    /// Wakes agent `a` at tick `t` (no-op when awake), settling its
    /// cursor and banking its slept lag peak (monotone, so the final
    /// value): the wake tick's own fold skips the agent if a repair gets
    /// spliced onto it this very tick.
    pub(crate) fn wake(
        &mut self,
        a: usize,
        t: u64,
        win: &mut Window,
        carrying: bool,
        counters: &mut SimCounters,
    ) {
        if self.sleep.is_awake(a) {
            return;
        }
        let settled = self.sleep.settled_cursor(a, t, win.len);
        self.settle(a, t, &mut win.cursor[a], settled);
        if self.plan_lag {
            counters.max_lag = counters.max_lag.max(win.lag_at(t, settled) as u64);
        }
        self.sleep.wake(a, carrying);
    }

    /// Pops every event due at tick `t`: wake-ups wake, crossing checks
    /// flip the frozen sleeper's over-replan flag, stale payloads
    /// (sequence mismatch) pop silently. Returns whether any agent woke.
    fn pop_due(
        &mut self,
        t: u64,
        win: &mut Window,
        fleet: &Fleet,
        counters: &mut SimCounters,
    ) -> bool {
        let due = &mut self.due_buf;
        self.queue.drain_due(t, |payload| due.push(payload));
        let mut woke = false;
        for i in 0..self.due_buf.len() {
            let (is_check, a, seq) = event::unpack(self.due_buf[i]);
            if self.sleep.is_awake(a) || self.sleep.seq(a) != seq {
                continue;
            }
            if is_check {
                if self.sleep.mode(a) == SleepMode::Frozen && self.sleep.mark_over_replan(a) {
                    counters.events_processed += 1;
                }
            } else {
                self.wake(a, t, win, fleet.carry[a].is_some(), counters);
                counters.events_processed += 1;
                woke = true;
            }
        }
        self.due_buf.clear();
        woke
    }

    /// Settles every sleeper's cursor without waking it (for the repair
    /// projector); queued wake-ups stay valid.
    fn settle_sleepers(&mut self, t: u64, win: &mut Window) {
        if self.sleep.sleeping == 0 {
            return;
        }
        for a in 0..win.cursor.len() {
            if !self.sleep.is_awake(a) {
                let settled = self.sleep.rebase(a, t, win.len);
                self.settle(a, t, &mut win.cursor[a], settled);
            }
        }
    }

    /// Largest plan lag any sleeper has accrued before tick `t` (0 off
    /// plan). Sleep lag is non-decreasing, so folding this at replans and
    /// reports reproduces the reference sweep's tick-by-tick fold.
    fn pending_lag(&self, t: u64, win: &Window) -> u64 {
        if !self.plan_lag || self.sleep.sleeping == 0 {
            return 0;
        }
        (0..win.cursor.len())
            .filter(|&a| !self.sleep.is_awake(a))
            .map(|a| win.lag_at(t, self.sleep.settled_cursor(a, t, win.len)))
            .max()
            .unwrap_or(0) as u64
    }

    /// Rebuilds the processing domain (awake agents, or everyone under the
    /// reference sweep); returns the active count, agents minus sleepers.
    fn build_active(&mut self, n: usize) -> usize {
        let reference = self.engine == SimEngine::Reference;
        let sleep = &self.sleep;
        self.active.clear();
        self.active
            .extend((0..n as u32).filter(|&a| reference || sleep.is_awake(a as usize)));
        n - self.sleep.sleeping
    }
}

/// Repair scratch. The reservation table lives as long as the simulation
/// and is cleared by its touched-list `reset`, so a repair costs
/// O(reservations projected), never an O(vertices) re-init.
#[derive(Debug)]
struct RepairScratch {
    requests: Vec<RepairRequest>,
    is_candidate: Vec<bool>,
    projection: Vec<VertexId>,
    table: ReservationTable,
}

/// The lifelong simulator. Borrows the instance; owns everything else,
/// including the [`RealizeScratch`] that serves every window replan —
/// steady-state ticks are allocation-light (only window plans and task
/// bookkeeping allocate).
#[derive(Debug)]
pub struct Simulation<'a> {
    instance: &'a WspInstance,
    cycles: AgentCycleSet,
    realize_scratch: RealizeScratch,
    config: SimConfig,

    stream: TaskStream,
    deviations: DeviationSchedule,
    faults: FaultSchedule,
    fault_buf: Vec<FaultEvent>,

    // Authoritative stock ledger (debited by *executed* pickups) and the
    // clone handed to each window realization.
    ledger: LocationMatrix,
    plan_ledger: LocationMatrix,
    // Task queues, one FIFO of arrival ticks per product.
    queues: Vec<VecDeque<u64>>,

    fleet: Fleet,
    floor: Floor,
    sched: Scheduler,
    win: Window,
    repairs: RepairScratch,
    // Auction task-assignment state, present exactly under
    // [`AssignPolicy::Auction`] (static runs pay nothing for the layer).
    auction: Option<Box<AuctionState>>,

    t: u64,
    last_replan: u64,
    replan_requested: bool,
    counters: SimCounters,
    checksum: Fnv,
    executed: Option<Plan>,
}

impl<'a> Simulation<'a> {
    /// Builds a simulation by running the staged pipeline's synthesize and
    /// decompose stages on the instance, then realizing the first window.
    ///
    /// # Errors
    ///
    /// [`SimError::Pipeline`] if synthesis/decomposition/realization fail,
    /// [`SimError::NoAgents`] for agent-free designs,
    /// [`SimError::BadConfig`] for a task mix outside the catalog.
    pub fn new(
        instance: &'a WspInstance,
        options: &PipelineOptions,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        let mut pipeline = Pipeline::new();
        let flow = pipeline.synthesize(instance, options)?;
        let cycles = pipeline.decompose(&flow)?;
        Self::from_cycles(instance, cycles.cycles, config)
    }

    /// Builds a simulation from an explicit cycle set (e.g.
    /// [`direct_cycle_set`](crate::direct_cycle_set) on instances too
    /// large for the flow-synthesis ILP).
    ///
    /// # Errors
    ///
    /// As for [`Simulation::new`], minus the synthesis stage.
    pub fn from_cycles(
        instance: &'a WspInstance,
        cycles: AgentCycleSet,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        let agents = cycles.total_agents();
        if agents == 0 {
            return Err(SimError::NoAgents);
        }
        config
            .stream
            .mix
            .validate_against(instance.warehouse.catalog())
            .map_err(|e| SimError::BadConfig(e.to_string()))?;
        let snapshots = wsp_realize::initial_snapshots(&instance.traffic, &cycles)
            .map_err(|e| SimError::Pipeline(PipelineError::Realize(e)))?;
        let window_len = if config.window == 0 {
            (2 * cycles.cycle_time()).max(32)
        } else {
            config.window.max(1)
        };
        let n_vertices = instance.warehouse.graph().vertex_count();
        let n_products = instance.warehouse.catalog().len();
        let n_stations = instance.warehouse.stations().len();

        let fleet = Fleet {
            pos: snapshots.iter().map(|s| s.pos).collect(),
            carry: snapshots.iter().map(|s| s.carry).collect(),
            cycle_of: snapshots.iter().map(|s| s.cycle).collect(),
            step_of: snapshots.iter().map(|s| s.step).collect(),
            advance_t: snapshots.iter().map(|s| s.advance_t).collect(),
            stall_until: vec![0; agents],
            attached: vec![None; agents],
            repair: (0..agents).map(|_| None).collect(),
            repair_cooldown_until: vec![0; agents],
        };
        let executed = config.record.then(|| {
            let mut plan = Plan::new();
            for a in 0..agents {
                plan.add_agent(fleet.state(a));
            }
            plan
        });
        let mut checksum = Fnv::new();
        for a in 0..agents {
            checksum.write(u64::from(fleet.pos[a].0));
            checksum.write(carry_code(fleet.carry[a]));
        }

        let auction = (config.assign.policy == AssignPolicy::Auction)
            .then(|| Box::new(AuctionState::new(&instance.warehouse, agents)));
        let mut sim = Simulation {
            instance,
            cycles,
            realize_scratch: RealizeScratch::new(),
            stream: TaskStream::new(&config.stream),
            deviations: DeviationSchedule::new(&config.deviations, agents),
            faults: FaultSchedule::new(&config.faults, agents, n_stations, n_vertices),
            fault_buf: Vec::with_capacity(8),
            ledger: instance.warehouse.location_matrix().clone(),
            plan_ledger: LocationMatrix::new(),
            queues: (0..n_products).map(|_| VecDeque::new()).collect(),
            floor: Floor::new(n_vertices, n_stations, &fleet.pos),
            fleet,
            sched: Scheduler {
                sleep: SleepBook::new(agents),
                queue: BucketQueue::new(window_len),
                active: Vec::with_capacity(agents),
                due_buf: Vec::with_capacity(16),
                engine: config.engine,
                plan_lag: config.assign.policy == AssignPolicy::Static,
            },
            win: Window {
                plan: Plan::new(),
                start: 0,
                len: window_len,
                cursor: vec![0; agents],
            },
            repairs: RepairScratch {
                requests: Vec::with_capacity(MAX_BATCH),
                is_candidate: vec![false; agents],
                projection: Vec::with_capacity(SLACK + 2),
                table: ReservationTable::new(n_vertices),
            },
            auction,
            t: 0,
            last_replan: 0,
            replan_requested: false,
            counters: SimCounters::default(),
            checksum,
            executed,
            config,
        };
        sim.replan()?;
        Ok(sim)
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.t
    }

    /// The effective rolling-horizon window length.
    pub fn window_len(&self) -> usize {
        self.win.len
    }

    /// Number of simulated agents.
    pub fn agent_count(&self) -> usize {
        self.fleet.pos.len()
    }

    /// The cycle set being executed.
    pub fn cycles(&self) -> &AgentCycleSet {
        &self.cycles
    }

    /// Live counters (the conservation invariant holds after every tick).
    /// `max_lag` folds lazily for sleeping agents under the event engine;
    /// [`report`](Self::report) compensates — compare reports, not raw
    /// counters, across engines.
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// The executed trajectories, when `config.record` was set.
    pub fn executed_plan(&self) -> Option<&Plan> {
        self.executed.as_ref()
    }

    /// The report at this instant (cheap; callable mid-run). Sleeping
    /// agents' accrued lag is folded in here without disturbing the run,
    /// so mid-run reports match across engines too.
    pub fn report(&self) -> SimReport {
        let mut counters = self.counters.clone();
        counters.max_lag = counters
            .max_lag
            .max(self.sched.pending_lag(self.t, &self.win));
        SimReport {
            agents: self.fleet.pos.len() as u64,
            vertices: self.instance.warehouse.graph().vertex_count() as u64,
            window: self.win.len as u64,
            stream_seed: self.config.stream.seed,
            deviation_seed: self.config.deviations.seed,
            policy: self.config.assign.policy,
            faults: self.config.faults.enabled(),
            trajectory_checksum: self.checksum.0,
            counters,
        }
    }

    /// Resident bytes of the auction's precomputed distance-field cache
    /// (0 under the static policy) — for bench memory accounting.
    pub fn auction_cache_bytes(&self) -> usize {
        self.auction.as_deref().map_or(0, |a| a.fields.bytes())
    }

    /// Test hook: force the assignment pass to run on every executed
    /// tick instead of skipping provably-no-op ones. The dirty-set
    /// property test drives one simulation with the skip disabled as the
    /// always-run oracle and compares it tick for tick.
    #[doc(hidden)]
    pub fn disable_auction_dirty_skip(&mut self) {
        if let Some(auc) = self.auction.as_deref_mut() {
            auc.dirty_skip = false;
        }
    }

    /// Runs until `config.ticks` and returns the final report.
    ///
    /// # Errors
    ///
    /// [`SimError::Pipeline`] if a window replan fails.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        self.advance_until(self.config.ticks)?;
        Ok(self.report())
    }

    /// Runs `n` more ticks (for tests that interleave assertions).
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_ticks(&mut self, n: u64) -> Result<(), SimError> {
        self.advance_until(self.t.saturating_add(n))
    }

    /// Runs to `config.ticks` like [`run`](Self::run), but supervised:
    /// between chunks of at most `chunk` simulated ticks the `control`
    /// progress counter advances by the ticks just covered (elided ticks
    /// included — progress is simulated time, monotone toward
    /// `config.ticks`) and cancellation is checked, so a cancel request is
    /// observed within one chunk of simulated work.
    ///
    /// Chunking is unobservable in the result: the engine's stepping is
    /// exactly resumable (this is the same entry point
    /// [`run_ticks`](Self::run_ticks) uses), so an uncancelled supervised
    /// run returns a report byte-identical to [`run`](Self::run). A
    /// cancelled run returns the report at the point it stopped — still a
    /// valid mid-run report, but callers (e.g. the `wsp-server` job
    /// engine) typically discard it.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_controlled(
        &mut self,
        control: &wsp_core::RunControl,
        chunk: u64,
    ) -> Result<SimReport, SimError> {
        let chunk = chunk.max(1);
        while self.t < self.config.ticks && !control.is_cancelled() {
            let target = self.config.ticks.min(self.t.saturating_add(chunk));
            let before = self.t;
            self.advance_until(target)?;
            control.add_progress(self.t - before);
        }
        Ok(self.report())
    }

    /// Advances one tick (which the event engine may elide outright when
    /// every agent is asleep and nothing is scheduled — observable state
    /// is identical either way).
    ///
    /// # Errors
    ///
    /// [`SimError::Pipeline`] if the tick ends on a window boundary and
    /// the replan fails.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.advance_until(self.t + 1)
    }

    /// Advances simulated time to `until`, executing forced ticks and
    /// (under the event engine) skipping provably quiescent stretches.
    fn advance_until(&mut self, until: u64) -> Result<(), SimError> {
        while self.t < until {
            if self.sched.sleep.sleeping == self.fleet.pos.len() {
                let forced = self.next_forced_tick();
                if forced > self.t {
                    match self.config.engine {
                        SimEngine::Event => {
                            self.elide_to(forced.min(until));
                            continue;
                        }
                        // The reference engine executes the tick anyway
                        // and only keeps the elision ledger honest.
                        SimEngine::Reference => self.counters.ticks_elided += 1,
                    }
                }
            }
            self.step_executed()?;
        }
        Ok(())
    }

    /// The earliest tick at or after `self.t` that must be executed: the
    /// window boundary, the next arrival, stall or fault firing, outage or
    /// closure expiry (breakdown recoveries ride queued wake-ups), queued
    /// event, and — while a replan is pending — the minimum-gap expiry.
    fn next_forced_tick(&self) -> u64 {
        let mut forced = self.win.start + self.win.len as u64 - 1;
        for next in [
            self.stream.next_arrival(),
            self.deviations.next_fire(),
            self.faults.next_fire(),
            self.floor.next_expiry(self.t),
        ]
        .into_iter()
        .flatten()
        {
            forced = forced.min(next);
        }
        if self.replan_requested || self.sched.sleep.frozen_over_replan > 0 {
            let gap = self.last_replan + MIN_REPLAN_GAP - 1;
            forced = forced.min(gap);
        }
        if let Some(t) = self.sched.queue.next_event(self.t, forced) {
            forced = forced.min(t);
        }
        forced.max(self.t)
    }

    /// Skips `target - t` fully quiescent ticks in O(1) per counter
    /// (plus O(agents) per tick when recording): every agent waits,
    /// sleeping carriers keep carrying, nothing else can change.
    fn elide_to(&mut self, target: u64) {
        let n = self.fleet.pos.len() as u64;
        let k = target - self.t;
        self.counters.ticks += k;
        self.counters.ticks_elided += k;
        self.counters.waits += k * n;
        self.counters.carrying_ticks += k * self.sched.sleep.sleeping_carriers;
        self.record(k);
        self.t = target;
    }

    /// Appends every agent's current state to the executed plan `ticks`
    /// times (no-op unless recording).
    fn record(&mut self, ticks: u64) {
        if let Some(plan) = self.executed.as_mut() {
            for _ in 0..ticks {
                plan.push_row((0..self.fleet.pos.len()).map(|a| self.fleet.state(a)));
            }
        }
    }

    /// Starts a new window at the current tick: wakes everyone and, for
    /// plan followers, snapshots the *actual* runtime state and realizes
    /// the window from it.
    fn replan(&mut self) -> Result<(), SimError> {
        let t = self.t;
        // Bank the lazily folded sleep lag before the ledger reset (the
        // cursors reset to zero below, so they need no settling).
        self.counters.max_lag = self
            .counters
            .max_lag
            .max(self.sched.pending_lag(t, &self.win));
        self.sched.sleep.reset();
        self.sched.queue.clear(t);
        self.win.start = t;
        self.win.cursor.fill(0);
        self.last_replan = t;
        self.replan_requested = false;
        self.counters.replans += 1;
        self.counters.events_processed += 1;
        if let Some(auc) = self.auction.as_deref_mut() {
            // Auction agents execute missions, never the window plan, so
            // the replan keeps only its cadence and the plan stays the
            // empty one built at construction. Waking everyone dirties the
            // pool.
            auc.dirty = true;
            return Ok(());
        }
        let fleet = &self.fleet;
        let snapshots: Vec<AgentSnapshot> = (0..fleet.pos.len())
            .map(|a| AgentSnapshot {
                cycle: fleet.cycle_of[a],
                step: fleet.step_of[a],
                pos: fleet.pos[a],
                carry: fleet.carry[a],
                advance_t: fleet.advance_t[a],
            })
            .collect();
        self.plan_ledger.clone_from(&self.ledger);
        let out = realize_window_with_scratch(
            &self.instance.warehouse,
            &self.instance.traffic,
            &self.cycles,
            t as usize,
            self.win.len,
            &snapshots,
            &mut self.plan_ledger,
            &mut self.realize_scratch,
        )
        .map_err(PipelineError::Realize)?;
        self.win.plan = out.plan;
        // Repairs of on-component agents are healed by the replan itself;
        // off-component agents keep their detour but now rejoin as strays
        // (park until the next replan re-anchors them).
        for a in 0..self.fleet.pos.len() {
            let Some(r) = self.fleet.repair[a].as_mut() else {
                continue;
            };
            let step = self.cycles.cycles()[self.fleet.cycle_of[a]].steps()[self.fleet.step_of[a]];
            let on_component = self
                .instance
                .traffic
                .locate(self.fleet.pos[a])
                .is_some_and(|(owner, _)| owner == step.component);
            if on_component {
                self.fleet.repair[a] = None;
            } else {
                r.rejoin_cursor = STRAY_REJOIN;
            }
        }
        Ok(())
    }

    /// Executes one tick for real: both engines share this body, the only
    /// difference being the processing domain (`active`) it sweeps —
    /// the awake set under [`SimEngine::Event`], every agent under
    /// [`SimEngine::Reference`].
    fn step_executed(&mut self) -> Result<(), SimError> {
        let t = self.t;
        let n = self.fleet.pos.len();
        let reference = self.config.engine == SimEngine::Reference;
        let graph = self.instance.warehouse.graph();

        // 0. Scheduler: pop due wake-ups and crossing checks. A wake
        // changes the auction's eligible pool.
        let woke = self
            .sched
            .pop_due(t, &mut self.win, &self.fleet, &mut self.counters);
        if let Some(auc) = self.auction.as_deref_mut().filter(|_| woke) {
            auc.dirty = true;
        }

        // 1. Arrivals. Under the auction policy tasks land in the global
        // assignment queue instead of the per-product execution queues.
        for task in self.stream.arrivals_at(t) {
            match self.auction.as_deref_mut() {
                Some(auc) => {
                    auc.pending.push_back(*task);
                    auc.dirty = true;
                }
                None => self.queues[task.product.index()].push_back(task.arrival),
            }
            self.counters.injected += 1;
            self.counters.queued += 1;
            self.counters.events_processed += 1;
        }

        // 2. Deviations. A stall ends a victim's sleep (its remaining
        // ticks would no longer be cursor-advancing no-ops) and changes
        // auction eligibility (`t >= stall_until`).
        let (fleet, sched, win, counters) = (
            &mut self.fleet,
            &mut self.sched,
            &mut self.win,
            &mut self.counters,
        );
        let mut stalled = false;
        self.deviations.fire_at(t, |s| {
            let until = t + u64::from(s.ticks);
            fleet.stall_until[s.agent] = fleet.stall_until[s.agent].max(until);
            counters.stalls_injected += 1;
            counters.stall_ticks_injected += u64::from(s.ticks);
            counters.events_processed += 1;
            sched.wake(s.agent, t, win, fleet.carry[s.agent].is_some(), counters);
            stalled = true;
        });
        if let Some(auc) = self.auction.as_deref_mut() {
            auc.dirty |= stalled;
        }

        // 2f. Structural faults: expiries first (`until == t` is open at
        // `t`), then this tick's fires — forced ticks only, identical in
        // both engines, so elision and the dirty-set skip stay sound.
        if self.config.faults.enabled() {
            // A re-opened station or corridor makes new assignments and
            // routes possible this very tick.
            let reopened = self.floor.expire(t);
            if let Some(auc) = self.auction.as_deref_mut() {
                auc.dirty |= reopened;
            }
            self.fault_buf.clear();
            let buf = &mut self.fault_buf;
            self.faults.fire_at(t, |e| buf.push(e));
            for i in 0..self.fault_buf.len() {
                self.apply_fault(self.fault_buf[i], t);
            }
        }

        // 2c. Auction assignment, before the active set is built so fresh
        // assignees move this very tick. Skipping provable no-op passes
        // makes quiet stretches O(dirty work) and lets them elide.
        if let Some(auc) = self.auction.as_deref_mut() {
            if !auc.skippable(&self.sched) {
                let roads = Roads::new(t, graph, &self.floor, self.config.assign.route_cap);
                auc.assign(
                    roads,
                    &self.fleet,
                    &mut self.sched,
                    &mut self.win,
                    &mut self.counters,
                );
            }
        }

        // 2b. The processing domain.
        self.counters.active_agent_ticks += self.sched.build_active(n) as u64;

        // 3. MAPF catch-up repair (auction agents have no schedule to
        // catch up to).
        if self.config.repair.enabled && self.auction.is_none() {
            self.try_repairs(t);
        }

        // 4. Desired moves. A move into a closed cell becomes a wait
        // (missions then reroute or wedge, plan followers lag); the gate
        // never touches stationary, so sleeping, agents.
        self.floor.movers.clear();
        for i in 0..self.sched.active.len() {
            let a = self.sched.active[i] as usize;
            let here = self.fleet.pos[a];
            let d = self.desired_cell(a, t);
            let d = if d != here && self.floor.closed(t).blocks(d) {
                here
            } else {
                d
            };
            debug_assert!(
                !reference || self.sched.is_awake(a) || d == here,
                "virtually sleeping agent {a} wanted to move at t={t}"
            );
            self.floor.granted[a] = false;
            self.floor.desired[a] = d;
            if d != here {
                self.floor.movers.push(a);
            }
        }

        // 5–6. Vacancy-chain grants, applied to the occupancy table.
        self.floor.grant(&self.fleet.pos);

        // 7. Per-agent advancement, events, counters and the per-change
        // checksum (ascending agent order keeps the digest canonical;
        // agents outside the domain cannot change).
        let mut max_lag = 0u64;
        for i in 0..self.sched.active.len() {
            let a = self.sched.active[i] as usize;
            let old = self.fleet.pos[a];
            let old_carry = self.fleet.carry[a];
            let moved = self.floor.granted[a];
            if moved {
                self.fleet.pos[a] = self.floor.desired[a];
                self.counters.moves += 1;
            } else {
                self.counters.waits += 1;
            }

            if t < self.fleet.stall_until[a] {
                // Frozen: no cursor/repair/mission progress, no events.
            } else if let Some(auc) = self.auction.as_deref_mut() {
                let roads = Roads::new(t, graph, &self.floor, self.config.assign.route_cap);
                auc.step_mission(
                    a,
                    old,
                    roads,
                    &mut self.fleet,
                    &mut self.ledger,
                    &mut self.counters,
                );
            } else {
                self.advance_on_plan(a, old, moved, t);
            }

            if self.fleet.carry[a].is_some() {
                self.counters.carrying_ticks += 1;
            }
            // Lag of plan followers (repairing agents re-anchor by rejoin
            // or replan; auction agents have none). Sleepers' lag folds at
            // wake-up, replan, or report time instead.
            if self.auction.is_none() && self.fleet.repair[a].is_none() {
                max_lag = max_lag.max(self.win.lag(a, t + 1) as u64);
            }
            // Checksum the state *change* at t + 1, if any, so elided
            // ticks leave the digest untouched.
            let (pos, carry) = (self.fleet.pos[a], self.fleet.carry[a]);
            if pos != old || carry != old_carry {
                self.checksum.write(((t + 1) << 21) | a as u64);
                self.checksum
                    .write((u64::from(pos.0) << 32) | carry_code(carry));
            }
        }
        self.counters.max_lag = self.counters.max_lag.max(max_lag);

        // 8. Sleeping agents under the event engine: bulk-account their
        // waits and carries; record everyone at t + 1 when asked to.
        if !reference && self.sched.sleep.sleeping > 0 {
            self.counters.waits += self.sched.sleep.sleeping as u64;
            self.counters.carrying_ticks += self.sched.sleep.sleeping_carriers;
        }
        self.record(1);

        self.counters.ticks += 1;
        debug_assert!(
            self.counters.conserved(),
            "task conservation violated at t={}: {} injected != {} completed + {} in flight + {} queued",
            t,
            self.counters.injected,
            self.counters.completed,
            self.counters.in_flight,
            self.counters.queued,
        );

        // 8b. Deferred yield-nudges, after the bulk accounting so waking
        // a sleeping blocker cannot skew it.
        if let Some(auc) = self.auction.as_deref_mut() {
            let roads = Roads::new(t, graph, &self.floor, self.config.assign.route_cap);
            auc.apply_nudges(
                roads,
                &self.fleet,
                &mut self.sched,
                &mut self.win,
                &mut self.counters,
            );
        }

        // 9. Window boundary / early replan (boundaries are mandatory;
        // early replans respect the minimum gap). The frozen-crossing
        // count stands in for sleeping agents whose lag passed the
        // threshold — the awake sweep would have seen exactly them.
        self.t = t + 1;
        let boundary = self.win.elapsed(self.t) >= self.win.len;
        let early = (self.replan_requested
            || (self.config.replan_lag > 0 && max_lag as usize >= self.config.replan_lag)
            || self.sched.sleep.frozen_over_replan > 0)
            && self.t - self.last_replan >= MIN_REPLAN_GAP;
        if boundary || early {
            self.replan()?;
        } else {
            // 10. Sleep decisions (virtual under the reference sweep).
            // After a replan everyone stays awake for one tick instead.
            for i in 0..self.sched.active.len() {
                let a = self.sched.active[i] as usize;
                if self.sched.is_awake(a) {
                    self.maybe_sleep(a);
                }
            }
        }
        Ok(())
    }

    /// The cell agent `a` wants next: none while stalled, else its
    /// mission's next hop (idle auction agents park), repair detour, or
    /// aligned window plan.
    fn desired_cell(&self, a: usize, t: u64) -> VertexId {
        let here = self.fleet.pos[a];
        if t < self.fleet.stall_until[a] {
            here
        } else if let Some(auc) = self.auction.as_deref() {
            auc.missions[a].as_ref().map_or(here, |m| m.desired(here))
        } else if let Some(r) = &self.fleet.repair[a] {
            r.path.get(r.at + 1).copied().unwrap_or(here)
        } else if self.win.aligned(a, here) && self.win.cursor[a] < self.win.len {
            self.win.state(a, self.win.cursor[a] + 1).at
        } else {
            here
        }
    }

    /// Phase 7 for a plan follower: advances its repair detour, or its
    /// cursor with the plan's carry event. `old` is its pre-move cell.
    fn advance_on_plan(&mut self, a: usize, old: VertexId, moved: bool, t: u64) {
        if let Some(r) = self.fleet.repair[a].as_mut() {
            let wanted_wait = r.at + 1 >= r.path.len() || r.path[r.at + 1] == old;
            if moved || wanted_wait {
                r.at = (r.at + 1).min(r.path.len() - 1);
            }
            let done =
                r.at + 1 >= r.path.len() && self.fleet.pos[a] == *r.path.last().expect("non-empty");
            if done {
                let rejoin = r.rejoin_cursor;
                self.fleet.repair[a] = None;
                self.counters.events_processed += 1;
                if rejoin == STRAY_REJOIN {
                    // Parked off-plan; ask for a replan to re-anchor.
                    self.replan_requested = true;
                } else {
                    self.win.cursor[a] = rejoin;
                }
            }
            return;
        }
        let cursor = self.win.cursor[a];
        let Some(cur) = self.win.plan.state(a, cursor) else {
            return;
        };
        if cur.at != old || cursor >= self.win.len {
            return;
        }
        let next = self.win.state(a, cursor + 1);
        if next.at != old && !moved {
            return;
        }
        self.apply_carry_event(a, cur.carry, next.carry, old, t);
        let traffic = &self.instance.traffic;
        if next.at != old && traffic.component_of(next.at) != traffic.component_of(old) {
            let len = self.cycles.cycles()[self.fleet.cycle_of[a]].steps().len();
            self.fleet.step_of[a] = (self.fleet.step_of[a] + 1) % len;
            self.fleet.advance_t[a] = (t + 1) as i64;
        }
        self.win.cursor[a] += 1;
    }

    /// Decides whether agent `a` — just processed, currently awake — can
    /// sleep from tick `self.t`, and books the sleep plus its
    /// wake-up/crossing events if so. Every guard keeps a sleeper's
    /// skipped ticks *provably* identical to what the reference sweep
    /// would have done (see [`crate::event`] for the contract).
    fn maybe_sleep(&mut self, a: usize) {
        let stall = self.fleet.stall_until[a];
        match self.auction.as_deref() {
            // Mission agents stay awake, except a wedged one: it parks
            // frozen until the boundary replan or a stall retries it.
            Some(auc) => {
                if let Some(m) = &auc.missions[a] {
                    if m.wedged && self.t >= stall {
                        self.sleep(a, SleepMode::Frozen, None);
                    }
                    return;
                }
            }
            // Repairing agents advance every tick, and an agent at or past
            // the early-replan threshold must stay in the per-tick lag
            // fold that re-arms the (possibly gap-deferred) trigger.
            None => {
                let replan_lag = self.config.replan_lag;
                if self.fleet.repair[a].is_some()
                    || (replan_lag > 0 && self.win.lag(a, self.t) >= replan_lag)
                {
                    return;
                }
            }
        }
        if self.t < stall {
            // Stalled: frozen until the stall ends (`NEVER` files no
            // wake-up; the boundary replan re-examines it). A plan follower
            // whose lag would cross the replan threshold first files that.
            let seq = self.sleep(a, SleepMode::Frozen, (stall != NEVER).then_some(stall));
            if self.auction.is_none() {
                self.file_crossing(a, seq, stall);
            }
        } else if let Some(auc) = self.auction.as_deref() {
            // Idle: frozen with no event while no assignment could touch
            // it; assignment, a stall, or the boundary replan wakes it.
            if auc.quiet() {
                self.sleep(a, SleepMode::Frozen, None);
            }
        } else {
            self.sleep_on_plan(a);
        }
    }

    /// The sleep decision for an awake, unstalled plan follower.
    fn sleep_on_plan(&mut self, a: usize) {
        let (t, cursor) = (self.t, self.win.cursor[a]);
        let repair = &self.config.repair;
        if !self.win.aligned(a, self.fleet.pos[a]) {
            // Unaligned (a stray parked off-plan): frozen until the next
            // replan re-anchors it, with its lag crossing filed.
            let seq = self.sleep(a, SleepMode::Frozen, None);
            self.file_crossing(a, seq, u64::MAX);
        } else if cursor >= self.win.len {
            // Plan exhausted: parked until the boundary replan, which
            // arrives before its lag could cross the threshold.
            self.sleep(a, SleepMode::Frozen, None);
        } else if !repair.enabled || self.win.lag(a, t) < repair.lag_threshold {
            // (A lagged aligned agent may become a repair candidate any
            // tick, so it stays awake.) A silent run of 1 means the next
            // tick changes state; with no change before the window's end,
            // the boundary replan wakes it (its lag can't cross first).
            let run = self.win.silent_run_len(a, self.fleet.pos[a]);
            if run != Some(1) {
                self.sleep(a, SleepMode::Silent, run.map(|j| t + j as u64 - 1));
            }
        }
    }

    /// Books awake agent `a` asleep from the current tick in `mode`,
    /// filing its wake-up at `wake` if given; returns the sequence number
    /// further events for this sleep must quote.
    fn sleep(&mut self, a: usize, mode: SleepMode, wake: Option<u64>) -> u32 {
        let carrying = self.fleet.carry[a].is_some();
        let sched = &mut self.sched;
        let seq = sched
            .sleep
            .sleep(a, mode, self.t, self.win.cursor[a], carrying);
        if let Some(at) = wake {
            sched.queue.push(at, event::pack(event::WAKE, a, seq));
        }
        seq
    }

    /// Files a frozen plan follower's replan-lag crossing check — the
    /// exact tick the awake engine would first see `lag ≥ replan_lag` —
    /// when it falls before `before` (its wake-up).
    fn file_crossing(&mut self, a: usize, seq: u32, before: u64) {
        let replan_lag = self.config.replan_lag;
        if replan_lag == 0 {
            return;
        }
        let crossing = self.win.start + (self.win.cursor[a] + replan_lag) as u64 - 1;
        if crossing < before {
            let check = event::pack(event::REPLAN_CHECK, a, seq);
            self.sched.queue.push(crossing, check);
        }
    }

    /// Applies an executed carry transition: stock debit + task matching.
    /// `at` is the vertex the action happened on (the *pre-move* cell, as
    /// in the plan checker's condition (3)); completion is stamped `t + 1`
    /// to match [`wsp_model::PlanStats::last_delivery`].
    fn apply_carry_event(
        &mut self,
        agent: usize,
        before: Carry,
        after: Carry,
        at: VertexId,
        t: u64,
    ) {
        match (before, after) {
            (Carry::Empty, Carry::Product(p)) => {
                debug_assert!(
                    self.ledger.units_at(at, p) > 0,
                    "executed pickup of {p} at {at} with an empty ledger"
                );
                self.ledger.remove_units(at, p, 1);
                self.fleet.carry[agent] = Some(p);
                if let Some(arrival) = self.queues[p.index()].pop_front() {
                    self.fleet.attached[agent] = Some(arrival);
                    self.counters.queued -= 1;
                    self.counters.in_flight += 1;
                }
            }
            (Carry::Product(p), Carry::Empty) => {
                self.fleet.carry[agent] = None;
                self.counters.delivered += 1;
                if let Some(arrival) = self.fleet.attached[agent].take() {
                    self.counters.in_flight -= 1;
                    self.counters.record_latency(t + 1 - arrival);
                } else if let Some(arrival) = self.queues[p.index()].pop_front() {
                    self.counters.queued -= 1;
                    self.counters.record_latency(t + 1 - arrival);
                } else {
                    self.counters.unmatched_deliveries += 1;
                }
            }
            (Carry::Product(p), Carry::Product(q)) => {
                debug_assert_eq!(p, q, "carried product mutated in the window plan");
            }
            (Carry::Empty, Carry::Empty) => {}
        }
    }

    /// Applies one fired [`FaultEvent`] — both engines, identically.
    /// Every fault changes an auction input (eligibility, station
    /// availability, or route outcomes), so it dirties the auction.
    fn apply_fault(&mut self, e: FaultEvent, t: u64) {
        self.counters.faults_injected += 1;
        self.counters.events_processed += 1;
        match e {
            FaultEvent::Breakdown { agent, until, .. } => {
                // A (possibly unbounded) stall, plus shedding the victim's
                // assigned work so the rest of the fleet absorbs it.
                let was = self.fleet.stall_until[agent];
                if until == NEVER && was != NEVER {
                    self.counters.agents_lost += 1;
                }
                self.fleet.stall_until[agent] = was.max(until);
                match self.auction.as_deref_mut() {
                    Some(auc) => {
                        auc.shed_agent(agent, until == NEVER, &mut self.fleet, &mut self.counters)
                    }
                    None => self.shed_static(agent),
                }
                let carrying = self.fleet.carry[agent].is_some();
                self.sched
                    .wake(agent, t, &mut self.win, carrying, &mut self.counters);
            }
            FaultEvent::Outage { station, until, .. } => {
                let floor = &mut self.floor;
                floor.dark_active += usize::from(floor.dark_until[station] <= t);
                floor.dark_until[station] = floor.dark_until[station].max(until);
            }
            FaultEvent::Closure {
                anchor,
                axis,
                until,
                ..
            } => {
                let graph = self.instance.warehouse.graph();
                let len = self.config.faults.closure_len;
                self.floor
                    .close_corridor(graph, anchor, axis, len, until, t);
            }
        }
        if let Some(auc) = self.auction.as_deref_mut() {
            auc.dirty = true;
        }
    }

    /// Static-policy shed: re-queue the carried task by arrival. The plan
    /// still drops the unit after recovery, completing the queue's front
    /// task instead — late delivery, exact conservation.
    fn shed_static(&mut self, a: usize) {
        if let Some(arrival) = self.fleet.attached[a].take() {
            let product = self.fleet.carry[a].expect("attached implies carrying");
            let q = &mut self.queues[product.index()];
            let i = q.partition_point(|&x| x <= arrival);
            q.insert(i, arrival);
            self.counters.in_flight -= 1;
            self.counters.queued += 1;
            self.counters.tasks_shed += 1;
        }
    }

    /// Collects catch-up candidates, plans them in parallel against the
    /// projected reservation table, and splices in the accepted detours.
    fn try_repairs(&mut self, t: u64) {
        let cfg = &self.config.repair;
        let traffic = &self.instance.traffic;
        let fleet = &mut self.fleet;
        let RepairScratch {
            requests,
            is_candidate,
            projection,
            table,
        } = &mut self.repairs;
        requests.clear();
        // Only awake agents can qualify: sleepers are unlagged, stalled,
        // unaligned, or past the rejoin horizon. The reference sweep
        // scans everyone and so double-checks this.
        for &a in &self.sched.active {
            let a = a as usize;
            if t < fleet.stall_until[a]
                || fleet.repair[a].is_some()
                || t < fleet.repair_cooldown_until[a]
                || !self.win.aligned(a, fleet.pos[a])
            {
                continue;
            }
            let lag = self.win.lag(a, t);
            if lag < cfg.lag_threshold {
                continue;
            }
            let cursor = self.win.cursor[a];
            let rejoin = cursor + lag + SLACK;
            if rejoin > self.win.len {
                continue;
            }
            // Eligibility: constant carry and zero hops over the skipped
            // segment, so rejoin preserves every pickup/drop-off and the
            // cycle-step bookkeeping.
            let base = self.win.state(a, cursor);
            let base_comp = traffic.component_of(base.at);
            let eligible = (cursor + 1..=rejoin).all(|i| {
                let s = self.win.state(a, i);
                s.carry == base.carry && traffic.component_of(s.at) == base_comp
            });
            if !eligible {
                continue;
            }
            let goal = self.win.state(a, rejoin).at;
            if goal == fleet.pos[a] {
                continue;
            }
            debug_assert!(
                self.sched.is_awake(a),
                "virtually sleeping agent {a} qualified as a repair candidate at t={t}"
            );
            requests.push(RepairRequest {
                agent: a,
                start: fleet.pos[a],
                goal,
                deadline: SLACK,
                rejoin_cursor: rejoin,
                lag,
            });
        }
        if requests.is_empty() {
            return;
        }
        // The projection below reads every agent's cursor; materialize
        // the sleepers' analytic ones first (they stay asleep — their
        // trajectories are unchanged, the observer just needs them).
        self.sched.settle_sleepers(t, &mut self.win);
        // Deepest-lagged first when the batch is over budget (ties break
        // toward the lowest agent index), then back to agent order so the
        // acceptance pass stays order-deterministic.
        if requests.len() > MAX_BATCH {
            requests.sort_unstable_by(|x, y| y.lag.cmp(&x.lag).then(x.agent.cmp(&y.agent)));
            requests.truncate(MAX_BATCH);
            requests.sort_unstable_by_key(|r| r.agent);
        }
        for r in requests.iter() {
            fleet.repair_cooldown_until[r.agent] = t + REPAIR_COOLDOWN;
            self.counters.repairs_attempted += 1;
            is_candidate[r.agent] = true;
        }

        // Shared reservation table: everyone except the candidates whose
        // reservations the searches could actually query, projected ahead
        // (stall first, then plan or active repair path, then parked
        // forever). The table persists across repair events; `reset`
        // clears it in O(touched).
        //
        // Locality: a deadline-capped search expands states within
        // `SLACK + 1` steps of its start and queries times up to
        // `SLACK + 1`, while agent `b`'s projection at relative time `k`
        // lies within `k` steps of `pos[b]` (one cell per tick, Manhattan
        // distance bounds graph distance from below). So an agent beyond
        // Manhattan distance `2 * (SLACK + 1)` of every candidate start
        // can never collide with any query, and projected trajectories
        // never need more than `SLACK + 2` cells (the `SLACK + 2`nd cell
        // parks the agent at exactly the last queryable time, answering
        // every in-budget query identically to the full projection).
        // Both cuts are what keeps a repair event on a 100k-vertex floor
        // O(neighbourhood), not O(agents × window).
        let graph = self.instance.warehouse.graph();
        table.reset();
        let radius = 2 * (SLACK as u64 + 1);
        let span = SLACK + 2;
        let near = |v: VertexId| {
            let at = graph.coord(v);
            requests.iter().any(|r| {
                let s = graph.coord(r.start);
                u64::from(at.x.abs_diff(s.x)) + u64::from(at.y.abs_diff(s.y)) <= radius
            })
        };
        for (b, &candidate) in is_candidate.iter().enumerate() {
            if candidate || !near(fleet.pos[b]) {
                continue;
            }
            projection.clear();
            projection.push(fleet.pos[b]);
            let mut stall_left = fleet.stall_until[b].saturating_sub(t) as usize;
            while stall_left > 0 && projection.len() < span {
                projection.push(fleet.pos[b]);
                stall_left -= 1;
            }
            if let Some(r) = &fleet.repair[b] {
                for &v in r.path.iter().skip(r.at + 1) {
                    if projection.len() >= span {
                        break;
                    }
                    projection.push(v);
                }
            } else if self.win.aligned(b, fleet.pos[b]) {
                let mut k = self.win.cursor[b] + 1;
                while projection.len() < span && k <= self.win.len {
                    projection.push(self.win.state(b, k).at);
                    k += 1;
                }
            }
            // `reserve_path` parks the final projected cell from its
            // arrival time onward, so truncated projections stay
            // conservatively blocked past the horizon.
            table.reserve_path(projection);
        }
        // Closed corridor cells are blanket obstacles for catch-up
        // searches: each one near a candidate is parked from time zero
        // (a single-cell `reserve_path`; reservations are idempotent
        // bitsets, so overlap with an occupant's projection is
        // harmless).
        for v in &self.floor.closed_cells {
            if near(*v) {
                table.reserve_path(std::slice::from_ref(v));
            }
        }

        let threads = wsp_core::resolve_threads(cfg.threads);
        let found = plan_repairs(graph, table, requests, threads);
        for (agent, path) in accept_repairs(requests, found) {
            fleet.repair[agent] = Some(path);
            self.counters.repairs_applied += 1;
        }
        // Clear the candidate flags through the request list instead of a
        // full O(agents) sweep per call.
        for r in requests.iter() {
            is_candidate[r.agent] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use wsp_model::Workload;

    use super::*;
    use crate::assign::LegAction;

    /// Pickups assigned at `(site, product)` and not yet executed: queued
    /// pickup legs there, plus pending pickup actions of agents standing
    /// there (an action fires on the cell its leg arrived at).
    fn outstanding_pickups(sim: &Simulation<'_>, site: VertexId, product: ProductId) -> u64 {
        let auc = sim.auction.as_deref().expect("auction policy");
        let is_pickup = |action: &LegAction| matches!(action, LegAction::Pickup(task) if task.product == product);
        let mut n = 0;
        for (a, m) in auc.missions.iter().enumerate() {
            let Some(m) = m else { continue };
            n += m
                .legs
                .iter()
                .filter(|l| l.goal == site && is_pickup(&l.action))
                .count() as u64;
            n += u64::from(sim.fleet.pos[a] == site && m.action.as_ref().is_some_and(is_pickup));
        }
        n
    }

    /// Under the auction, every stocked `(site, product)` ledger entry
    /// equals its unreserved stock plus its outstanding pickups, after
    /// every tick. A tight route cap makes follow-up legs fail to route,
    /// so work shed from a mission must return its reservations.
    #[test]
    fn auction_ledger_equals_reserved_plus_outstanding_pickups_every_tick() {
        let map = wsp_maps::scaled_warehouse(5, 40, 3, 3).expect("small scaled map builds");
        let instance = WspInstance::new(map.warehouse, map.traffic, Workload::zeros(0), 0);
        let cycles = crate::direct_cycle_set(&instance.warehouse, &instance.traffic, 24);
        let delivered: BTreeSet<ProductId> = cycles
            .cycles()
            .iter()
            .flat_map(|c| c.delivered_products())
            .collect();
        let mut mix = Workload::zeros(instance.warehouse.catalog().len());
        for &p in &delivered {
            mix.set(p, 60 / delivered.len() as u64 + 1);
        }
        let mut config = SimConfig {
            ticks: 200,
            stream: StreamConfig {
                mix,
                mean_gap: 1,
                seed: 1,
            },
            deviations: DeviationConfig::stalls(32, 2, 8, 1),
            ..SimConfig::default()
        };
        config.assign.policy = AssignPolicy::Auction;
        config.assign.route_cap = 12;
        let mut sim = Simulation::from_cycles(&instance, cycles, config).expect("sim builds");
        let mut shed = 0;
        while sim.now() < 200 {
            sim.step().expect("tick runs");
            let reserved = &sim.auction.as_deref().expect("auction policy").reserved;
            for (site, product, _) in instance.warehouse.location_matrix().iter() {
                assert_eq!(
                    sim.ledger.units_at(site, product),
                    reserved.units_at(site, product) + outstanding_pickups(&sim, site, product),
                    "stock of {product} at {site} unbalanced after t={}",
                    sim.now()
                );
            }
            shed = sim.counters.tasks_shed;
        }
        assert!(shed > 0, "the route cap never shed a follow-up leg");
    }
}
