//! Discrete agent plans `(π, φ)` and their feasibility/servicing checkers.

use std::fmt;

use crate::{ModelError, ProductId, VertexId, Warehouse, Workload};

/// What an agent is carrying: either nothing (the paper's `ρ_0`) or one unit
/// of a product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Carry {
    /// Unburdened (`φ = ρ_0`).
    #[default]
    Empty,
    /// Carrying one unit of the given product.
    Product(ProductId),
}

impl Carry {
    /// Whether the agent carries nothing.
    pub fn is_empty(self) -> bool {
        self == Carry::Empty
    }

    /// The carried product, if any.
    pub fn product(self) -> Option<ProductId> {
        match self {
            Carry::Empty => None,
            Carry::Product(p) => Some(p),
        }
    }
}

impl fmt::Display for Carry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Carry::Empty => f.write_str("ρ0"),
            Carry::Product(p) => write!(f, "{p}"),
        }
    }
}

/// The state `(π_{i,t}, φ_{i,t})` of one agent at one timestep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentState {
    /// The vertex the agent occupies.
    pub at: VertexId,
    /// What the agent is carrying.
    pub carry: Carry,
}

impl AgentState {
    /// An unburdened agent at `at`.
    pub fn idle(at: VertexId) -> Self {
        AgentState {
            at,
            carry: Carry::Empty,
        }
    }
}

/// The most bytes one row block holds: rows are stored `2^shift` to a
/// block, `shift` the largest that fits (one row wider than this gets a
/// block of its own).
const BLOCK_BYTES: usize = 64 * 1024;

/// `log2` of the rows per block for a plan `width` agents wide.
fn block_shift(width: usize) -> u32 {
    (BLOCK_BYTES / (width.max(1) * std::mem::size_of::<AgentState>()))
        .max(1)
        .ilog2()
}

/// A `T`-timestep plan for a team of agents: the pair of `c × (T+1)`
/// matrices `(π, φ)` of §III, stored time-major.
///
/// State index `t ∈ [0, T]` holds the configuration *at* timestep `t`;
/// timestep `t → t+1` is one synchronous move of the whole team. Row `t`
/// ([`row`](Self::row)) holds every agent's state at `t` in agent order,
/// so realization appends one row per tick ([`push_row`](Self::push_row))
/// and the checker walks row pairs. Rows live in blocks of at most 64 KiB,
/// a power-of-two number of rows each, so `row(t)` is a shift and a mask
/// and a long plan is many small allocations that the allocator reuses,
/// never one large buffer per plan.
///
/// A plan can also be built agent by agent ([`add_agent`](Self::add_agent)
/// then [`push_state`](Self::push_state)); until every trajectory has the
/// same length it is *ragged*, which [`validate_shape`](Self::validate_shape)
/// reports. Equality and `Debug` see only the trajectories.
///
/// # Examples
///
/// ```
/// use wsp_model::{AgentState, Plan, VertexId};
///
/// let mut plan = Plan::new();
/// let agent = plan.add_agent(AgentState::idle(VertexId(0)));
/// plan.add_agent(AgentState::idle(VertexId(7)));
/// plan.push_row([AgentState::idle(VertexId(1)), AgentState::idle(VertexId(7))]);
/// assert_eq!(plan.horizon(), 1);
/// assert_eq!(plan.agent_count(), 2);
/// assert_eq!(plan.row(1)[agent], AgentState::idle(VertexId(1)));
/// assert_eq!(
///     plan.trajectory(agent),
///     [AgentState::idle(VertexId(0)), AgentState::idle(VertexId(1))]
/// );
/// ```
#[derive(Clone, Default)]
pub struct Plan {
    /// Number of agents `c`: the width of every row.
    agents: usize,
    /// Rows stored: the longest trajectory's length (0 without agents).
    rows: usize,
    /// Each block holds `1 << shift` rows; the last may hold fewer.
    shift: u32,
    blocks: Vec<Vec<AgentState>>,
    /// Per agent, how many rows its trajectory is short of `rows`; the
    /// cells past an agent's trajectory are placeholders.
    missing: Vec<usize>,
    /// Agents with `missing > 0`: zero exactly when the plan is not ragged.
    short: usize,
}

impl Plan {
    /// Creates an empty plan with no agents.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Adds an agent with its initial (t = 0) state; returns its index.
    ///
    /// Cheap while the plan holds only its initial row; after that every
    /// stored row is rewritten one agent wider.
    pub fn add_agent(&mut self, initial: AgentState) -> usize {
        let width = self.agents + 1;
        let shift = block_shift(width);
        if self.rows <= 1 {
            // Row 0 alone sits at the front of block 0, whatever the
            // block shape.
            self.blocks.resize_with(1, Vec::new);
            self.blocks[0].push(initial);
            self.rows = 1;
        } else {
            // The new agent's cells after t = 0 are placeholders.
            let mut blocks: Vec<Vec<AgentState>> = Vec::new();
            for t in 0..self.rows {
                if t & ((1 << shift) - 1) == 0 {
                    blocks.push(Vec::with_capacity(width << shift));
                }
                let block = blocks.last_mut().expect("opened at its first row");
                block.extend_from_slice(self.cells(t));
                block.push(initial);
            }
            self.blocks = blocks;
            self.short += 1;
        }
        self.agents = width;
        self.shift = shift;
        self.missing.push(self.rows - 1);
        width - 1
    }

    /// Appends the next-timestep state for an agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn push_state(&mut self, agent: usize, state: AgentState) {
        if self.missing[agent] == 0 {
            // A longest trajectory grows: open a row of placeholders.
            let width = self.agents;
            self.tail_block().extend(std::iter::repeat_n(state, width));
            self.rows += 1;
            for m in &mut self.missing {
                *m += 1;
            }
            self.short = self.agents;
        }
        let t = self.rows - self.missing[agent];
        let at = (t & self.mask()) * self.agents + agent;
        self.blocks[t >> self.shift][at] = state;
        self.missing[agent] -= 1;
        if self.missing[agent] == 0 {
            self.short -= 1;
        }
    }

    /// Appends the next-timestep states of all agents, in agent order: one
    /// row, the same as one [`push_state`](Self::push_state) per agent.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not yield exactly one state per agent, or if
    /// the plan is ragged.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = AgentState>) {
        assert_eq!(self.short, 0, "push_row on a ragged plan");
        let width = self.agents;
        if width == 0 {
            // An agent-less plan has no rows to extend (its horizon stays 0).
            assert!(
                row.into_iter().next().is_none(),
                "push_row got states for a plan without agents"
            );
            return;
        }
        let block = self.tail_block();
        let start = block.len();
        block.extend(row);
        let pushed = block.len() - start;
        assert_eq!(
            pushed, width,
            "push_row got {pushed} states for {width} agents"
        );
        self.rows += 1;
    }

    /// The block row `self.rows` goes to, opened if the row starts one, with
    /// room for a whole block.
    fn tail_block(&mut self) -> &mut Vec<AgentState> {
        if self.rows & self.mask() == 0 {
            self.blocks.push(Vec::new());
        }
        let full = self.agents << self.shift;
        let block = self
            .blocks
            .last_mut()
            .expect("a plan with agents has a block");
        block.reserve_exact(full - block.len());
        block
    }

    fn mask(&self) -> usize {
        (1 << self.shift) - 1
    }

    /// Row `t`'s cells, placeholders included.
    fn cells(&self, t: usize) -> &[AgentState] {
        let at = (t & self.mask()) * self.agents;
        &self.blocks[t >> self.shift][at..at + self.agents]
    }

    /// Agent `agent`'s trajectory length.
    fn len(&self, agent: usize) -> usize {
        self.rows - self.missing[agent]
    }

    /// Number of agents `c`.
    pub fn agent_count(&self) -> usize {
        self.agents
    }

    /// The planning horizon `T` (number of timesteps, i.e. states minus one)
    /// of the longest trajectory. Zero for an empty plan.
    pub fn horizon(&self) -> usize {
        self.rows.saturating_sub(1)
    }

    /// The configuration at time `t`: every agent's state, in agent order
    /// (empty for a plan without agents).
    ///
    /// # Panics
    ///
    /// Panics if `t > horizon()` or the plan is ragged.
    pub fn row(&self, t: usize) -> &[AgentState] {
        assert!(
            self.short == 0 && t <= self.horizon(),
            "row {t} of a plan with horizon {} ({} ragged agents)",
            self.horizon(),
            self.short
        );
        if self.agents == 0 {
            return &[];
        }
        self.cells(t)
    }

    /// The state of `agent` at time `t`, or `None` if out of range.
    pub fn state(&self, agent: usize, t: usize) -> Option<AgentState> {
        let len = self.rows - *self.missing.get(agent)?;
        (t < len).then(|| self.cells(t)[agent])
    }

    /// The full trajectory of one agent, gathered from the rows.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn trajectory(&self, agent: usize) -> Vec<AgentState> {
        (0..self.len(agent)).map(|t| self.cells(t)[agent]).collect()
    }

    /// Checks all trajectories have equal length (a well-formed matrix).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MalformedPlan`] otherwise.
    pub fn validate_shape(&self) -> Result<(), ModelError> {
        if self.short == 0 {
            return Ok(());
        }
        let len = self.len(0);
        let i = (1..self.agents)
            .find(|&i| self.len(i) != len)
            .expect("a ragged plan has two trajectory lengths");
        Err(ModelError::MalformedPlan {
            detail: format!("agent 0 has {len} states but agent {i} has {}", self.len(i)),
        })
    }
}

impl PartialEq for Plan {
    fn eq(&self, other: &Plan) -> bool {
        self.agents == other.agents
            && (0..self.agents).all(|a| self.trajectory(a) == other.trajectory(a))
    }
}

impl Eq for Plan {}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let trajectories: Vec<Vec<AgentState>> =
            (0..self.agents).map(|a| self.trajectory(a)).collect();
        f.debug_struct("Plan")
            .field("trajectories", &trajectories)
            .finish()
    }
}

/// One way a plan can violate feasibility (§III, conditions (1)–(3)) or the
/// warehouse inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanViolation {
    /// Condition (1): an agent moved to a non-adjacent vertex.
    IllegalMove {
        /// Offending agent.
        agent: usize,
        /// Timestep of departure.
        t: usize,
        /// Vertex departed from.
        from: VertexId,
        /// Vertex arrived at.
        to: VertexId,
    },
    /// Condition (2): two agents occupy the same vertex.
    VertexCollision {
        /// First agent.
        a: usize,
        /// Second agent.
        b: usize,
        /// Timestep of the collision.
        t: usize,
        /// Shared vertex.
        at: VertexId,
    },
    /// Condition (2): two agents traverse the same edge in opposite
    /// directions in the same timestep.
    EdgeCollision {
        /// First agent.
        a: usize,
        /// Second agent.
        b: usize,
        /// Timestep the swap starts.
        t: usize,
    },
    /// Condition (3): a pickup happened away from a shelf-access vertex
    /// stocking the product, a drop-off happened away from a station, or a
    /// carried product mutated in transit.
    IllegalHandling {
        /// Offending agent.
        agent: usize,
        /// Timestep of the violation.
        t: usize,
        /// Human-readable description.
        detail: String,
    },
    /// An agent state references a vertex id outside the warehouse's
    /// floorplan graph (e.g. a plan built against a different warehouse).
    UnknownVertex {
        /// Offending agent.
        agent: usize,
        /// Timestep of the first occurrence.
        t: usize,
        /// The out-of-range vertex id.
        vertex: VertexId,
    },
    /// More units of a product were picked at a vertex than `Λ` stocks there.
    InventoryExceeded {
        /// The shelf-access vertex.
        at: VertexId,
        /// The over-picked product.
        product: ProductId,
        /// Units available per `Λ`.
        available: u64,
        /// Units the plan picked.
        picked: u64,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::IllegalMove { agent, t, from, to } => {
                write!(f, "agent {agent} made illegal move {from}->{to} at t={t}")
            }
            PlanViolation::VertexCollision { a, b, t, at } => {
                write!(f, "agents {a} and {b} collide at {at} at t={t}")
            }
            PlanViolation::EdgeCollision { a, b, t } => {
                write!(f, "agents {a} and {b} swap positions at t={t}")
            }
            PlanViolation::IllegalHandling { agent, t, detail } => {
                write!(
                    f,
                    "agent {agent} illegal product handling at t={t}: {detail}"
                )
            }
            PlanViolation::UnknownVertex { agent, t, vertex } => {
                write!(
                    f,
                    "agent {agent} references {vertex} at t={t}, outside the floorplan graph"
                )
            }
            PlanViolation::InventoryExceeded {
                at,
                product,
                available,
                picked,
            } => write!(
                f,
                "picked {picked} units of {product} at {at} but only {available} stocked"
            ),
        }
    }
}

/// Aggregate statistics of a checked plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Units of each product delivered to stations (indexed by product id).
    pub delivered: Vec<u64>,
    /// Number of agents in the plan.
    pub agents: usize,
    /// Plan horizon `T`.
    pub horizon: usize,
    /// Total vertex-to-vertex moves (excluding waits).
    pub moves: u64,
    /// Total wait steps.
    pub waits: u64,
    /// Timestep of the last delivery, if any (the effective makespan).
    pub last_delivery: Option<usize>,
}

impl PlanStats {
    /// Total units delivered across all products.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.iter().sum()
    }
}

/// Reusable scratch tables for [`PlanChecker`]: the dense per-vertex
/// occupancy and departure tables plus the inventory ledger, kept across
/// calls so repeated checks (batch evaluation of many candidate plans, or
/// the staged pipeline verifying one realization per design candidate)
/// allocate nothing after the first use.
///
/// Every table entry carries the tick stamp it was written at, and only
/// an entry stamped with the current tick's stamp is live. The stamps come
/// from a generation counter that persists across checks (on wrap, every
/// entry is reset once), so a tick starts with empty tables without any
/// clearing pass, and entries left by an earlier check (on this warehouse
/// or a larger one) never read as live. One scratch can be handed to
/// checkers bound to different warehouses; the tables grow on entry.
#[derive(Debug, Default)]
pub struct CheckScratch {
    /// Per vertex, `(tick stamp, agent)` of its occupant.
    occupied: Vec<(u32, u32)>,
    /// Per vertex, `(tick stamp, to, agent)` of the first departure from
    /// it in the transition `t -> t+1`.
    departed: Vec<(u32, u32, u32)>,
    depart_overflow: Vec<(VertexId, VertexId, usize)>,
    /// One `(vertex, product)` entry per pickup, sorted into the ledger at
    /// the end of a check.
    picks: Vec<(VertexId, ProductId)>,
    /// The last stamp handed out.
    generation: u32,
}

impl CheckScratch {
    /// A fresh, empty scratch (tables grow on first use).
    pub fn new() -> Self {
        CheckScratch::default()
    }

    /// Resets the ledger and grows the stamped tables to `n_vertices`
    /// (new entries carry stamp 0, which no tick is given).
    fn prepare(&mut self, n_vertices: usize) {
        if self.occupied.len() < n_vertices {
            self.occupied.resize(n_vertices, (0, 0));
            self.departed.resize(n_vertices, (0, 0, 0));
        }
        self.depart_overflow.clear();
        self.picks.clear();
    }
}

/// The next tick stamp from `generation`. When the counter would wrap,
/// every entry is reset to stamp 0 first and counting restarts at 1.
fn next_stamp(
    generation: &mut u32,
    occupied: &mut [(u32, u32)],
    departed: &mut [(u32, u32, u32)],
) -> u32 {
    if *generation == u32::MAX {
        occupied.fill((0, 0));
        departed.fill((0, 0, 0));
        *generation = 0;
    }
    *generation += 1;
    *generation
}

/// Checks plans against a warehouse: feasibility conditions (1)–(3) of §III,
/// inventory accounting, and workload servicing.
///
/// # Examples
///
/// ```
/// use wsp_model::{AgentState, GridMap, Plan, PlanChecker, Warehouse};
///
/// let grid = GridMap::from_ascii(".#.\n...\n.@.")?;
/// let warehouse = Warehouse::from_grid(&grid)?;
/// let checker = PlanChecker::new(&warehouse);
/// let mut plan = Plan::new();
/// let v = warehouse.stations()[0];
/// plan.add_agent(AgentState::idle(v));
/// let stats = checker.check(&plan)?;
/// assert_eq!(stats.agents, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PlanChecker<'w> {
    warehouse: &'w Warehouse,
}

impl<'w> PlanChecker<'w> {
    /// Creates a checker bound to a warehouse.
    pub fn new(warehouse: &'w Warehouse) -> Self {
        PlanChecker { warehouse }
    }

    /// Checks feasibility conditions (1)–(3) plus inventory accounting and
    /// returns plan statistics.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanViolation`] encountered (wrapped in a vector
    /// of all violations found) or a [`ModelError`] if the plan matrix is
    /// malformed.
    pub fn check(&self, plan: &Plan) -> Result<PlanStats, Box<CheckFailure>> {
        self.check_with_scratch(plan, &mut CheckScratch::new())
    }

    /// [`check`](Self::check) reusing caller-owned [`CheckScratch`] tables,
    /// so batch verification over many plans is allocation-light.
    ///
    /// # Errors
    ///
    /// As for [`check`](Self::check).
    pub fn check_with_scratch(
        &self,
        plan: &Plan,
        scratch: &mut CheckScratch,
    ) -> Result<PlanStats, Box<CheckFailure>> {
        plan.validate_shape().map_err(|e| {
            Box::new(CheckFailure {
                violations: Vec::new(),
                malformed: Some(e),
            })
        })?;

        let graph = self.warehouse.graph();
        let horizon = plan.horizon();
        let agents = plan.agent_count();
        let n_vertices = graph.vertex_count();

        // Range guard: the dense per-vertex tables below index by vertex
        // id, so out-of-range ids (a plan built against another warehouse)
        // must be rejected up front rather than panic. Each agent's first
        // occurrence is reported, in agent order.
        if (0..=horizon).any(|t| plan.row(t).iter().any(|s| s.at.index() >= n_vertices)) {
            let violations = (0..agents)
                .filter_map(|a| {
                    (0..=horizon)
                        .map(|t| (t, plan.row(t)[a].at))
                        .find(|&(_, at)| at.index() >= n_vertices)
                        .map(|(t, vertex)| PlanViolation::UnknownVertex {
                            agent: a,
                            t,
                            vertex,
                        })
                })
                .collect();
            return Err(Box::new(CheckFailure {
                violations,
                malformed: None,
            }));
        }

        let mut violations = Vec::new();
        let mut stats = PlanStats {
            delivered: vec![0; self.warehouse.catalog().len()],
            agents,
            horizon,
            ..PlanStats::default()
        };
        // Dense per-vertex scratch tables, owned by the caller-reusable
        // `CheckScratch`. Each tick takes a fresh stamp, so last tick's
        // entries read as empty without being cleared and the per-tick
        // cost is O(agents), independent of the vertex count, matching
        // the flat-graph storage invariants. Destructure so the loop body
        // below reads like local state.
        scratch.prepare(n_vertices);
        let CheckScratch {
            occupied,
            departed,
            depart_overflow,
            picks,
            generation,
        } = scratch;
        // Departure table: at most one agent legally departs a vertex per
        // step, so a (destination, agent) pair per source vertex suffices
        // for the swap check. Invalid plans can double-depart a vertex
        // (which is itself a vertex collision); those spill into the
        // overflow list so every swap is still found.

        for t in 0..=horizon {
            let row = plan.row(t);
            let stamp = next_stamp(generation, occupied, departed);
            // Condition (2a): vertex collisions at time t.
            for (a, s) in row.iter().enumerate() {
                let slot = &mut occupied[s.at.index()];
                if slot.0 == stamp {
                    violations.push(PlanViolation::VertexCollision {
                        a: slot.1 as usize,
                        b: a,
                        t,
                        at: s.at,
                    });
                } else {
                    *slot = (stamp, a as u32);
                }
            }
            if t == horizon {
                break;
            }
            // Per-agent transition t -> t+1.
            depart_overflow.clear();
            for (a, (cur, nxt)) in row.iter().zip(plan.row(t + 1)).enumerate() {
                // Condition (1): move by 0 or 1 vertices along an edge.
                if cur.at != nxt.at {
                    if !graph.has_edge(cur.at, nxt.at) {
                        violations.push(PlanViolation::IllegalMove {
                            agent: a,
                            t,
                            from: cur.at,
                            to: nxt.at,
                        });
                    }
                    stats.moves += 1;
                    // Condition (2b): edge swap — an earlier agent departed
                    // our destination toward our source.
                    let (when, to, b) = departed[nxt.at.index()];
                    if when == stamp && to == cur.at.0 {
                        violations.push(PlanViolation::EdgeCollision {
                            a: b as usize,
                            b: a,
                            t,
                        });
                    }
                    for &(from, to, b) in depart_overflow.iter() {
                        if from == nxt.at && to == cur.at {
                            violations.push(PlanViolation::EdgeCollision { a: b, b: a, t });
                        }
                    }
                    let slot = &mut departed[cur.at.index()];
                    if slot.0 != stamp {
                        *slot = (stamp, nxt.at.0, a as u32);
                    } else {
                        depart_overflow.push((cur.at, nxt.at, a));
                    }
                } else {
                    stats.waits += 1;
                }

                // Condition (3): product handling.
                match (cur.carry, nxt.carry) {
                    (Carry::Empty, Carry::Empty) => {}
                    (Carry::Empty, Carry::Product(p)) => {
                        // Pickup must happen at the *current* vertex, which
                        // must be a shelf-access vertex stocking p.
                        if !self.warehouse.location_matrix().has_product(cur.at, p) {
                            violations.push(PlanViolation::IllegalHandling {
                                agent: a,
                                t,
                                detail: format!("picked {p} at {} which does not stock it", cur.at),
                            });
                        } else {
                            picks.push((cur.at, p));
                        }
                    }
                    (Carry::Product(p), Carry::Empty) => {
                        // Drop-off must happen at a station.
                        if !self.warehouse.is_station(cur.at) {
                            violations.push(PlanViolation::IllegalHandling {
                                agent: a,
                                t,
                                detail: format!("dropped {p} away from a station"),
                            });
                        } else {
                            if p.index() < stats.delivered.len() {
                                stats.delivered[p.index()] += 1;
                            }
                            stats.last_delivery = Some(t + 1);
                        }
                    }
                    (Carry::Product(p), Carry::Product(q)) => {
                        if p != q {
                            violations.push(PlanViolation::IllegalHandling {
                                agent: a,
                                t,
                                detail: format!("carried product mutated {p} -> {q}"),
                            });
                        }
                    }
                }
            }
        }

        // Inventory accounting: total picks per (vertex, product) within Λ,
        // reported in ascending (vertex, product) order.
        picks.sort_unstable();
        for site in picks.chunk_by(|x, y| x == y) {
            let (at, product) = site[0];
            let available = self.warehouse.location_matrix().units_at(at, product);
            let picked = site.len() as u64;
            if picked > available {
                violations.push(PlanViolation::InventoryExceeded {
                    at,
                    product,
                    available,
                    picked,
                });
            }
        }

        if violations.is_empty() {
            Ok(stats)
        } else {
            Err(Box::new(CheckFailure {
                violations,
                malformed: None,
            }))
        }
    }

    /// Checks the plan is feasible *and* services `workload` (§III,
    /// Problem 3.1): every demand is met by deliveries to stations.
    ///
    /// # Errors
    ///
    /// Returns the feasibility violations found by [`PlanChecker::check`],
    /// if any. If the plan is feasible but leaves demand unserviced, the
    /// returned [`CheckFailure`] has an empty `violations` list and a
    /// [`ModelError::MalformedPlan`] in `malformed` describing the
    /// per-product shortfall.
    pub fn check_services(
        &self,
        plan: &Plan,
        workload: &Workload,
    ) -> Result<PlanStats, Box<CheckFailure>> {
        self.check_services_with_scratch(plan, workload, &mut CheckScratch::new())
    }

    /// [`check_services`](Self::check_services) reusing caller-owned
    /// [`CheckScratch`] tables.
    ///
    /// # Errors
    ///
    /// As for [`check_services`](Self::check_services).
    pub fn check_services_with_scratch(
        &self,
        plan: &Plan,
        workload: &Workload,
        scratch: &mut CheckScratch,
    ) -> Result<PlanStats, Box<CheckFailure>> {
        let stats = self.check_with_scratch(plan, scratch)?;
        if !workload.is_satisfied_by(&stats.delivered) {
            let shortfall: Vec<(ProductId, u64, u64)> = workload
                .iter()
                .filter_map(|(p, d)| {
                    let got = stats.delivered.get(p.index()).copied().unwrap_or(0);
                    (got < d).then_some((p, d, got))
                })
                .collect();
            return Err(Box::new(CheckFailure {
                violations: Vec::new(),
                malformed: Some(ModelError::MalformedPlan {
                    detail: format!(
                        "workload not serviced; shortfall on {} products: {:?}",
                        shortfall.len(),
                        shortfall
                            .iter()
                            .map(|(p, d, got)| format!("{p}: {got}/{d}"))
                            .collect::<Vec<_>>()
                    ),
                }),
            }));
        }
        Ok(stats)
    }
}

/// The detailed outcome of a failed plan check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailure {
    /// All feasibility violations found.
    pub violations: Vec<PlanViolation>,
    /// Shape or servicing failure, if any.
    pub malformed: Option<ModelError>,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(m) = &self.malformed {
            write!(f, "{m}")?;
        }
        for v in self.violations.iter().take(5) {
            write!(f, "; {v}")?;
        }
        if self.violations.len() > 5 {
            write!(f, "; … {} more violations", self.violations.len() - 5)?;
        }
        Ok(())
    }
}

impl std::error::Error for CheckFailure {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coord, GridMap, ProductCatalog};

    fn small_warehouse() -> Warehouse {
        // Shelf on top, station on bottom, 3-wide corridor.
        let grid = GridMap::from_ascii(".#.\n...\n.@.").unwrap();
        let mut w = Warehouse::from_grid(&grid).unwrap();
        w.set_catalog(ProductCatalog::with_len(1));
        let access = w.graph().vertex_at(Coord::new(0, 2)).unwrap();
        w.stock(access, ProductId(0), 10).unwrap();
        w
    }

    fn v(w: &Warehouse, x: u32, y: u32) -> VertexId {
        w.graph().vertex_at(Coord::new(x, y)).unwrap()
    }

    #[test]
    fn legal_delivery_roundtrip() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        let a = plan.add_agent(AgentState::idle(v(&w, 0, 2)));
        // Pick up at (0,2), walk to station (1,0), drop.
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 0, 2),
                carry: Carry::Product(ProductId(0)),
            },
        );
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 0, 1),
                carry: Carry::Product(ProductId(0)),
            },
        );
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 1, 1),
                carry: Carry::Product(ProductId(0)),
            },
        );
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 1, 0),
                carry: Carry::Product(ProductId(0)),
            },
        );
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 1, 0),
                carry: Carry::Empty,
            },
        );
        let stats = checker.check(&plan).unwrap();
        assert_eq!(stats.delivered, vec![1]);
        assert_eq!(stats.moves, 3);
        assert_eq!(stats.waits, 2);
        assert_eq!(stats.last_delivery, Some(5));

        let workload = Workload::from_demands(vec![1]);
        assert!(checker.check_services(&plan, &workload).is_ok());
        let too_much = Workload::from_demands(vec![2]);
        assert!(checker.check_services(&plan, &too_much).is_err());
    }

    #[test]
    fn scratch_reuse_matches_fresh_checks() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut scratch = CheckScratch::new();
        // A legal plan, a colliding plan, then the legal plan again — the
        // reused scratch must never leak state between checks.
        let mut legal = Plan::new();
        let a = legal.add_agent(AgentState::idle(v(&w, 0, 0)));
        legal.push_state(a, AgentState::idle(v(&w, 0, 1)));
        let mut colliding = Plan::new();
        colliding.add_agent(AgentState::idle(v(&w, 0, 0)));
        colliding.add_agent(AgentState::idle(v(&w, 0, 0)));

        let fresh = checker.check(&legal).unwrap();
        assert_eq!(
            checker.check_with_scratch(&legal, &mut scratch).unwrap(),
            fresh
        );
        assert!(checker
            .check_with_scratch(&colliding, &mut scratch)
            .is_err());
        assert_eq!(
            checker.check_with_scratch(&legal, &mut scratch).unwrap(),
            fresh
        );

        // The same scratch serves a checker bound to a different warehouse.
        let grid = GridMap::from_ascii("#...\n..@.").unwrap();
        let w2 = Warehouse::from_grid(&grid).unwrap();
        let checker2 = PlanChecker::new(&w2);
        let mut p2 = Plan::new();
        let b = p2.add_agent(AgentState::idle(v(&w2, 0, 0)));
        p2.push_state(b, AgentState::idle(v(&w2, 1, 0)));
        let s2 = checker2.check_with_scratch(&p2, &mut scratch).unwrap();
        assert_eq!(s2.moves, 1);
    }

    #[test]
    fn scratch_survives_generation_wrap() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        // Three stamps are left before the counter wraps: the legal plan
        // takes two, the colliding plan the last one, and the third check
        // runs on the restarted counter.
        let mut scratch = CheckScratch {
            generation: u32::MAX - 3,
            ..CheckScratch::new()
        };
        let mut legal = Plan::new();
        let a = legal.add_agent(AgentState::idle(v(&w, 0, 0)));
        legal.push_state(a, AgentState::idle(v(&w, 0, 1)));
        let mut colliding = Plan::new();
        colliding.add_agent(AgentState::idle(v(&w, 0, 1)));
        colliding.add_agent(AgentState::idle(v(&w, 0, 1)));

        for plan in [&legal, &colliding, &legal] {
            assert_eq!(
                checker.check_with_scratch(plan, &mut scratch),
                checker.check(plan)
            );
        }
        assert_eq!(scratch.generation, 2);
    }

    #[test]
    fn stale_stamps_never_read_as_live() {
        // A larger warehouse first, then the small one, then the larger one
        // again: every check leaves its entries behind, and none of them
        // may read as an occupant or a departure in a later check.
        let w = small_warehouse();
        let big =
            Warehouse::from_grid(&GridMap::from_ascii(".#...\n.....\n..@..").unwrap()).unwrap();
        let mut scratch = CheckScratch::new();
        // One agent steps from `cells[0]` to `cells[1]` and back, and the
        // next check steps over the same vertex ids the other way: were
        // stamps restarted per check, its first departure would read as
        // a swap with the previous check's.
        let mut walk = |w: &Warehouse, cells: [(u32, u32); 2]| {
            let checker = PlanChecker::new(w);
            let (x, y) = (v(w, cells[0].0, cells[0].1), v(w, cells[1].0, cells[1].1));
            let mut plan = Plan::new();
            plan.add_agent(AgentState::idle(x));
            plan.push_row([AgentState::idle(y)]);
            plan.push_row([AgentState::idle(x)]);
            let fresh = checker.check(&plan);
            assert!(fresh.is_ok());
            assert_eq!(checker.check_with_scratch(&plan, &mut scratch), fresh);
        };
        walk(&big, [(0, 0), (1, 0)]);
        walk(&w, [(1, 0), (0, 0)]);
        walk(&big, [(1, 0), (0, 0)]);
        walk(&big, [(4, 2), (3, 2)]);
        walk(&w, [(0, 0), (1, 0)]);
        walk(&big, [(3, 2), (4, 2)]);
        let top = big.graph().vertex_count() - 1;
        assert!(scratch.occupied.len() > top);
        assert!(scratch.occupied[top].0 < scratch.generation);
    }

    #[test]
    fn violations_come_in_check_order() {
        // One tick holding a vertex collision at t = 0, an edge swap whose
        // first departure spilled into the overflow list, an illegal move
        // and a drop-off away from a station.
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let p0 = Carry::Product(ProductId(0));
        let mut plan = Plan::new();
        for at in [(0, 0), (0, 0), (0, 1), (2, 0)] {
            plan.add_agent(AgentState::idle(v(&w, at.0, at.1)));
        }
        plan.add_agent(AgentState {
            at: v(&w, 2, 1),
            carry: p0,
        });
        plan.push_row(
            [(1, 0), (0, 1), (0, 0), (2, 2), (2, 1)].map(|(x, y)| AgentState::idle(v(&w, x, y))),
        );
        let err = checker.check(&plan).unwrap_err();
        assert_eq!(
            err.to_string(),
            "; agents 0 and 1 collide at v0 at t=0; \
             agents 1 and 2 swap positions at t=0; \
             agent 3 made illegal move v2->v7 at t=0; \
             agent 4 illegal product handling at t=0: dropped ρ1 away from a station"
        );
    }

    #[test]
    fn teleport_is_illegal() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        let a = plan.add_agent(AgentState::idle(v(&w, 0, 0)));
        plan.push_state(a, AgentState::idle(v(&w, 2, 2)));
        let err = checker.check(&plan).unwrap_err();
        assert!(matches!(
            err.violations[0],
            PlanViolation::IllegalMove { .. }
        ));
    }

    #[test]
    fn vertex_collision_detected() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        plan.add_agent(AgentState::idle(v(&w, 0, 0)));
        plan.add_agent(AgentState::idle(v(&w, 0, 0)));
        let err = checker.check(&plan).unwrap_err();
        assert!(matches!(
            err.violations[0],
            PlanViolation::VertexCollision { .. }
        ));
    }

    #[test]
    fn edge_swap_detected() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        let a = plan.add_agent(AgentState::idle(v(&w, 0, 0)));
        let b = plan.add_agent(AgentState::idle(v(&w, 1, 0)));
        plan.push_state(a, AgentState::idle(v(&w, 1, 0)));
        plan.push_state(b, AgentState::idle(v(&w, 0, 0)));
        let err = checker.check(&plan).unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::EdgeCollision { .. })));
    }

    #[test]
    fn edge_swap_found_behind_a_double_departure() {
        // Agents 0 and 1 both stand on (0,0) (a vertex collision) and
        // depart to different cells; agent 2 swaps with agent 0. The dense
        // departure table keeps one slot per vertex — the overflow list
        // must still surface the swap.
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        let a = plan.add_agent(AgentState::idle(v(&w, 0, 0)));
        let b = plan.add_agent(AgentState::idle(v(&w, 0, 0)));
        let c = plan.add_agent(AgentState::idle(v(&w, 1, 0)));
        plan.push_state(a, AgentState::idle(v(&w, 1, 0)));
        plan.push_state(b, AgentState::idle(v(&w, 0, 1)));
        plan.push_state(c, AgentState::idle(v(&w, 0, 0)));
        let err = checker.check(&plan).unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::EdgeCollision { a: 0, b: 2, .. })));
        // Swap order (1 before 0 in the table) must also be caught: here
        // agent 0's slot lands in overflow instead.
        let mut plan2 = Plan::new();
        let d = plan2.add_agent(AgentState::idle(v(&w, 0, 0)));
        let e = plan2.add_agent(AgentState::idle(v(&w, 0, 0)));
        let f = plan2.add_agent(AgentState::idle(v(&w, 0, 1)));
        plan2.push_state(d, AgentState::idle(v(&w, 1, 0)));
        plan2.push_state(e, AgentState::idle(v(&w, 0, 1)));
        plan2.push_state(f, AgentState::idle(v(&w, 0, 0)));
        let err2 = checker.check(&plan2).unwrap_err();
        assert!(err2
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::EdgeCollision { a: 1, b: 2, .. })));
    }

    #[test]
    fn out_of_range_vertex_reported_not_panicking() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        plan.add_agent(AgentState::idle(VertexId(9_999)));
        let err = checker.check(&plan).unwrap_err();
        assert!(matches!(
            err.violations[0],
            PlanViolation::UnknownVertex { agent: 0, .. }
        ));
    }

    #[test]
    fn pickup_away_from_shelf_is_illegal() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        let a = plan.add_agent(AgentState::idle(v(&w, 1, 1)));
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 1, 1),
                carry: Carry::Product(ProductId(0)),
            },
        );
        let err = checker.check(&plan).unwrap_err();
        assert!(matches!(
            err.violations[0],
            PlanViolation::IllegalHandling { .. }
        ));
    }

    #[test]
    fn dropoff_away_from_station_is_illegal() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        let a = plan.add_agent(AgentState::idle(v(&w, 0, 2)));
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 0, 2),
                carry: Carry::Product(ProductId(0)),
            },
        );
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 0, 2),
                carry: Carry::Empty,
            },
        );
        let err = checker.check(&plan).unwrap_err();
        assert!(matches!(
            err.violations[0],
            PlanViolation::IllegalHandling { .. }
        ));
    }

    #[test]
    fn product_mutation_is_illegal() {
        let w = {
            let grid = GridMap::from_ascii(".#.\n...\n.@.").unwrap();
            let mut w = Warehouse::from_grid(&grid).unwrap();
            w.set_catalog(ProductCatalog::with_len(2));
            let access = w.graph().vertex_at(Coord::new(0, 2)).unwrap();
            w.stock(access, ProductId(0), 1).unwrap();
            w.stock(access, ProductId(1), 1).unwrap();
            w
        };
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        let a = plan.add_agent(AgentState::idle(v(&w, 0, 2)));
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 0, 2),
                carry: Carry::Product(ProductId(0)),
            },
        );
        plan.push_state(
            a,
            AgentState {
                at: v(&w, 0, 2),
                carry: Carry::Product(ProductId(1)),
            },
        );
        let err = checker.check(&plan).unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|vi| matches!(vi, PlanViolation::IllegalHandling { .. })));
    }

    #[test]
    fn inventory_overdraw_detected() {
        let w = {
            let grid = GridMap::from_ascii(".#.\n...\n.@.").unwrap();
            let mut w = Warehouse::from_grid(&grid).unwrap();
            w.set_catalog(ProductCatalog::with_len(1));
            let access = w.graph().vertex_at(Coord::new(0, 2)).unwrap();
            w.stock(access, ProductId(0), 1).unwrap();
            w
        };
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        let a = plan.add_agent(AgentState::idle(v(&w, 0, 2)));
        // Pick, drop at station, come back, pick again: 2 picks > 1 stocked.
        let station = v(&w, 1, 0);
        let path = [
            AgentState {
                at: v(&w, 0, 2),
                carry: Carry::Product(ProductId(0)),
            },
            AgentState {
                at: v(&w, 0, 1),
                carry: Carry::Product(ProductId(0)),
            },
            AgentState {
                at: v(&w, 1, 1),
                carry: Carry::Product(ProductId(0)),
            },
            AgentState {
                at: station,
                carry: Carry::Product(ProductId(0)),
            },
            AgentState {
                at: station,
                carry: Carry::Empty,
            },
            AgentState {
                at: v(&w, 1, 1),
                carry: Carry::Empty,
            },
            AgentState {
                at: v(&w, 0, 1),
                carry: Carry::Empty,
            },
            AgentState {
                at: v(&w, 0, 2),
                carry: Carry::Empty,
            },
            AgentState {
                at: v(&w, 0, 2),
                carry: Carry::Product(ProductId(0)),
            },
        ];
        for s in path {
            plan.push_state(a, s);
        }
        let err = checker.check(&plan).unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|vi| matches!(vi, PlanViolation::InventoryExceeded { .. })));
    }

    #[test]
    fn inventory_violations_come_in_site_order() {
        // Stations beside shelves are shelf-access vertices too, so an
        // agent can pick, drop and pick again without moving. Each of the
        // four station agents (added in descending vertex order) picks
        // product 1 twice and then product 0 twice against one unit each:
        // eight over-picked sites.
        let grid = GridMap::from_ascii("@#@#@#@\n.......").unwrap();
        let mut w = Warehouse::from_grid(&grid).unwrap();
        w.set_catalog(ProductCatalog::with_len(2));
        let mut stations = w.stations().to_vec();
        for &v in &stations {
            w.stock(v, ProductId(0), 1).unwrap();
            w.stock(v, ProductId(1), 1).unwrap();
        }
        stations.sort_unstable_by(|a, b| b.cmp(a));
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        for &v in &stations {
            plan.add_agent(AgentState::idle(v));
        }
        for p in [1, 1, 0, 0] {
            for carry in [Carry::Product(ProductId(p)), Carry::Empty] {
                plan.push_row(stations.iter().map(|&at| AgentState { at, carry }));
            }
        }

        let err = checker.check(&plan).unwrap_err();
        let sites: Vec<(VertexId, ProductId)> = err
            .violations
            .iter()
            .map(|violation| match violation {
                PlanViolation::InventoryExceeded {
                    at,
                    product,
                    available: 1,
                    picked: 2,
                } => (*at, *product),
                other => panic!("unexpected violation {other}"),
            })
            .collect();
        let mut ascending = sites.clone();
        ascending.sort_unstable();
        assert_eq!(sites.len(), 8);
        assert_eq!(sites, ascending);
        // The failure text repeats exactly across checks and scratches.
        let mut scratch = CheckScratch::new();
        for _ in 0..3 {
            let again = checker.check_with_scratch(&plan, &mut scratch).unwrap_err();
            assert_eq!(again.to_string(), err.to_string());
        }
    }

    #[test]
    fn ragged_plan_rejected() {
        let w = small_warehouse();
        let checker = PlanChecker::new(&w);
        let mut plan = Plan::new();
        let a = plan.add_agent(AgentState::idle(v(&w, 0, 0)));
        plan.add_agent(AgentState::idle(v(&w, 2, 0)));
        plan.push_state(a, AgentState::idle(v(&w, 0, 0)));
        let err = checker.check(&plan).unwrap_err();
        assert!(err.malformed.is_some());
    }
}
