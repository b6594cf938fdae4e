//! Benchmark harness shared by the criterion benches (`benches/`) and the
//! standalone table/figure binaries (`src/bin/`): the Table I instance
//! list, timed single-row runners for the paper-mode / strict / integer
//! solver configurations, and the scaling-scenario builder behind
//! `benches/scaling.rs` and `BENCH_scaling.json`. Sits on top of every
//! other crate in the workspace; results are tracked per PR in
//! `BENCH_baseline.json` and `BENCH_scaling.json` (see docs/BENCHMARKS.md).

#![warn(missing_docs)]

use wsp_core::{PipelineOptions, WspInstance};
use wsp_flow::{synthesize_flow_relaxed, FlowError, FlowSynthesisOptions, RelaxedFlowSummary};
use wsp_mapf::{PrioritizedPlanner, SpaceTimeAstar};
use wsp_maps::MapInstance;
use wsp_model::VertexId;

/// The paper's plan-length limit for every Table I instance.
pub const T_LIMIT: usize = 3_600;

/// The nine Table I rows: (map builder, units-moved workloads).
pub fn table1_rows() -> Vec<(MapInstance, [u64; 3])> {
    vec![
        (
            wsp_maps::sorting_center().expect("sorting center builds"),
            [160, 320, 480],
        ),
        (
            wsp_maps::fulfillment_center_1().expect("fulfillment 1 builds"),
            [550, 825, 1100],
        ),
        (
            wsp_maps::fulfillment_center_2().expect("fulfillment 2 builds"),
            [1200, 1320, 1440],
        ),
    ]
}

/// Result of one Table I cell in a given mode.
#[derive(Debug)]
pub enum RowResult {
    /// Solved: seconds taken plus a short detail string.
    Solved {
        /// Wall-clock seconds for flow synthesis.
        seconds: f64,
        /// Mode-specific detail (objective, agents, ...).
        detail: String,
    },
    /// Proven infeasible (strict mode documents the capacity boundary).
    Infeasible,
    /// Some other failure.
    Failed(String),
}

impl std::fmt::Display for RowResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowResult::Solved { seconds, detail } => write!(f, "{seconds:8.3}s  {detail}"),
            RowResult::Infeasible => write!(f, "infeasible (Property 4.1 capacity bound)"),
            RowResult::Failed(e) => write!(f, "failed: {e}"),
        }
    }
}

/// Runs one instance in the paper's solver configuration: real-valued
/// flows (§IV-D solves "arithmetic constraints over the reals") without the
/// entry-capacity assumption the largest instances exceed.
pub fn run_paper_mode(map: &MapInstance, units: u64) -> RowResult {
    let workload = map.uniform_workload(units);
    let options = FlowSynthesisOptions {
        skip_capacity: true,
        ..FlowSynthesisOptions::default()
    };
    time_relaxed(map, &workload, &options)
}

/// Runs one instance with real-valued flows *and* the strict Property 4.1
/// capacity assumption.
pub fn run_strict_relaxed(map: &MapInstance, units: u64) -> RowResult {
    let workload = map.uniform_workload(units);
    time_relaxed(map, &workload, &FlowSynthesisOptions::default())
}

fn time_relaxed(
    map: &MapInstance,
    workload: &wsp_model::Workload,
    options: &FlowSynthesisOptions,
) -> RowResult {
    let t0 = std::time::Instant::now();
    let out: Result<RelaxedFlowSummary, FlowError> =
        synthesize_flow_relaxed(&map.warehouse, &map.traffic, workload, T_LIMIT, options);
    let seconds = t0.elapsed().as_secs_f64();
    match out {
        Ok(summary) => RowResult::Solved {
            seconds,
            detail: format!(
                "min total flow {:.2} ({} vars, {} constraints, q_c={})",
                summary.objective, summary.variables, summary.constraints, summary.periods
            ),
        },
        Err(FlowError::Infeasible { .. }) => RowResult::Infeasible,
        Err(e) => RowResult::Failed(e.to_string()),
    }
}

/// Runs the full strict integer pipeline (synthesis -> cycles -> plan ->
/// verification); used where the strict capacity bound admits the workload.
pub fn run_strict_integer(map: &MapInstance, units: u64) -> RowResult {
    let workload = map.uniform_workload(units);
    let instance = WspInstance::new(
        map.warehouse.clone(),
        map.traffic.clone(),
        workload,
        T_LIMIT,
    );
    let t0 = std::time::Instant::now();
    match wsp_core::solve(&instance, &PipelineOptions::default()) {
        Ok(report) => RowResult::Solved {
            seconds: report.timings.flow_synthesis.as_secs_f64(),
            detail: format!(
                "{} agents, {} delivered, plan {} steps (total {:.3}s incl. verify)",
                report.outcome.agents,
                report.stats.total_delivered(),
                report.outcome.timesteps,
                t0.elapsed().as_secs_f64(),
            ),
        },
        Err(wsp_core::PipelineError::Flow(FlowError::Infeasible { .. })) => RowResult::Infeasible,
        Err(e) => RowResult::Failed(e.to_string()),
    }
}

/// A MAPF scaling scenario on a generated [`wsp_maps::scaled_warehouse`]:
/// the map plus team starts and single-goal itineraries.
#[derive(Debug)]
pub struct ScalingScenario {
    /// The generated instance.
    pub map: MapInstance,
    /// One start vertex per agent.
    pub starts: Vec<VertexId>,
    /// One single-goal itinerary per agent.
    pub goals: Vec<Vec<VertexId>>,
}

/// Builds the scaling scenario benched in `benches/scaling.rs`: a
/// `scaled_warehouse(rows, cols, 3, seed)` instance with `agents` agents
/// spread over the map, each routed to a shelf-access vertex a quarter of
/// the floor away in the same rotational direction — long co-directional
/// hauls, the flow shape the co-designed traffic systems produce. (Routing
/// half the team along the *reverse* corridors instead creates head-on
/// meetings in one-agent-wide aisles, an adversarial regime that measures
/// conflict resolution rather than scale; that belongs to the CBS benches.)
///
/// # Panics
///
/// Panics if the generated map fails to build (a generator bug, not an
/// unlucky seed) or has fewer shelf-access vertices than `2 × agents`.
pub fn scaling_scenario(rows: u32, cols: u32, agents: usize, seed: u64) -> ScalingScenario {
    let map = wsp_maps::scaled_warehouse(rows, cols, 3, seed).expect("scaled map builds");
    let access = map.warehouse.shelf_access();
    assert!(agents > 0, "team needs at least one agent");
    assert!(access.len() >= 2 * agents, "map too small for team");
    // Row-major stride: starts spread bottom to top; every goal is a
    // quarter of the list ahead, plus half a stride so no goal coincides
    // with another agent's start cell.
    let stride = access.len() / agents;
    let starts: Vec<VertexId> = (0..agents).map(|i| access[i * stride]).collect();
    let goals: Vec<Vec<VertexId>> = (0..agents)
        .map(|i| vec![access[(i * stride + access.len() / 4 + stride / 2) % access.len()]])
        .collect();
    ScalingScenario { map, starts, goals }
}

/// A ready-to-simulate lifelong scenario: instance, executable cycle set,
/// and the arrival mix — everything [`wsp_sim::Simulation::from_cycles`]
/// needs (behind `benches/sim.rs` and `BENCH_sim.json`).
#[derive(Debug)]
pub struct SimScenario {
    /// Scenario name, used as the bench id.
    pub label: String,
    /// The instance (warehouse + traffic; `t_limit` is ignored by the
    /// simulator).
    pub instance: WspInstance,
    /// The cycle set the simulator executes.
    pub cycles: wsp_flow::AgentCycleSet,
    /// The arrival mix for the task stream.
    pub mix: wsp_model::Workload,
}

impl SimScenario {
    /// A [`wsp_sim::SimConfig`] for this scenario: zipf/uniform stream
    /// over `mix`, stall deviations and MAPF repair enabled, fixed seeds.
    pub fn config(&self, ticks: u64) -> wsp_sim::SimConfig {
        wsp_sim::SimConfig {
            ticks,
            stream: wsp_sim::StreamConfig {
                mix: self.mix.clone(),
                mean_gap: 2,
                seed: 7,
            },
            deviations: wsp_sim::DeviationConfig::stalls(64, 2, 8, 9),
            repair: wsp_sim::RepairConfig {
                enabled: true,
                ..wsp_sim::RepairConfig::default()
            },
            replan_lag: 24,
            ..wsp_sim::SimConfig::default()
        }
    }
}

/// The paper-scale lifelong scenario: the sorting center, synthesized by
/// the full staged pipeline, with a zipf arrival mix — the regime the
/// paper's §V sorting experiments model as one-shot workloads.
///
/// # Panics
///
/// Panics if the paper map fails to build or synthesize (a pipeline
/// regression, not an unlucky input).
pub fn sim_scenario_paper(units: u64) -> SimScenario {
    let map = wsp_maps::sorting_center().expect("sorting center builds");
    let mix = map.zipf_workload(units, 1.0, 7);
    let workload = map.uniform_workload(160);
    let instance = WspInstance::new(map.warehouse, map.traffic, workload, T_LIMIT);
    let mut pipeline = wsp_core::Pipeline::new();
    let flow = pipeline
        .synthesize(&instance, &PipelineOptions::default())
        .expect("paper workload synthesizes");
    let cycles = pipeline.decompose(&flow).expect("flow decomposes");
    SimScenario {
        label: "sorting-center".into(),
        instance,
        cycles: cycles.cycles,
        mix,
    }
}

/// A production-scale lifelong scenario on `scaled_warehouse(rows, cols,
/// 3, seed)`: the flow-synthesis ILP does not reach 10k–200k-vertex
/// instances, so the executable design comes from
/// [`wsp_sim::direct_cycle_set`] and the mix is uniform over the products
/// that design actually delivers (so latency/throughput numbers measure
/// the serviced stream, not undeliverable backlog).
///
/// # Panics
///
/// Panics if the generated map fails to build or yields no realizable
/// cycles (a generator bug, not an unlucky seed).
pub fn sim_scenario_scaled(rows: u32, cols: u32, agents: usize, seed: u64) -> SimScenario {
    let map = wsp_maps::scaled_warehouse(rows, cols, 3, seed).expect("scaled map builds");
    let vertices = map.warehouse.graph().vertex_count();
    let instance = WspInstance::new(map.warehouse, map.traffic, wsp_model::Workload::zeros(0), 0);
    let cycles = wsp_sim::direct_cycle_set(&instance.warehouse, &instance.traffic, agents);
    assert!(
        cycles.total_agents() > 0,
        "direct cycle construction produced no agents"
    );
    let mut mix = wsp_model::Workload::zeros(instance.warehouse.catalog().len());
    let delivered: std::collections::BTreeSet<wsp_model::ProductId> = cycles
        .cycles()
        .iter()
        .flat_map(|c| c.delivered_products())
        .collect();
    for &p in &delivered {
        mix.set(p, 400 / delivered.len() as u64 + 1);
    }
    SimScenario {
        label: format!("scaled-{vertices}v"),
        instance,
        cycles,
        mix,
    }
}

/// A prioritized planner whose per-segment search horizon is sized to the
/// map (cross-map hauls on 100k-vertex floors are far longer than the
/// paper-scale default of 512 steps).
pub fn scaling_planner(map: &MapInstance) -> PrioritizedPlanner {
    let grid = map.warehouse.grid();
    PrioritizedPlanner {
        astar: SpaceTimeAstar {
            max_time: 4 * (grid.width() + grid.height()) as usize,
            ..SpaceTimeAstar::default()
        },
        ..PrioritizedPlanner::default()
    }
}
