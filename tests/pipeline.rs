//! Cross-crate integration tests: the full methodology on the paper's
//! evaluation maps, cross-engine agreement, and ours-vs-baseline
//! cross-validation through the shared plan checker.

use wsp_core::{solve, PipelineOptions, WspInstance};
use wsp_flow::{synthesize_flow, synthesize_flow_relaxed, FlowEngine, FlowSynthesisOptions};
use wsp_mapf::{InnerSolver, IteratedPlanner, MapfProblem, PrioritizedPlanner};
use wsp_model::{PlanChecker, VertexId};

#[test]
fn sorting_center_integer_pipeline_end_to_end() {
    let map = wsp_maps::sorting_center().expect("map builds");
    let workload = map.uniform_workload(80);
    let instance = WspInstance::new(map.warehouse, map.traffic, workload, 3_600);
    let report = solve(&instance, &PipelineOptions::default()).expect("pipeline solves");
    assert!(report.stats.total_delivered() >= 80);
    assert_eq!(report.outcome.missed_advances, 0, "Property 4.1");
    // The flow set's promised rate is realized (after warmup).
    assert!(report.cycles.deliveries_per_period() >= 36);
}

#[test]
fn paper_and_layered_engines_agree_on_team_size() {
    let map = wsp_maps::sorting_center().expect("map builds");
    // A small workload keeps the per-product paper encoding tractable.
    let mut workload = wsp_model::Workload::zeros(36);
    for k in 0..6u32 {
        workload.set(wsp_model::ProductId(k), 5);
    }
    let layered = synthesize_flow(
        &map.warehouse,
        &map.traffic,
        &workload,
        3_600,
        &FlowSynthesisOptions::default(),
    )
    .expect("layered solves");
    let paper = synthesize_flow(
        &map.warehouse,
        &map.traffic,
        &workload,
        3_600,
        &FlowSynthesisOptions {
            engine: FlowEngine::PaperIlp,
            ..FlowSynthesisOptions::default()
        },
    )
    .expect("paper engine solves");
    assert_eq!(layered.total_edge_flow(), paper.total_edge_flow());
    assert_eq!(
        layered.total_deliveries_per_period(),
        paper.total_deliveries_per_period()
    );
}

#[test]
fn strict_relaxation_is_feasible_on_fulfillment_1_at_550_units() {
    // Only feasibility: the strict integer solve at this size ends at the
    // branch-and-bound node limit without an incumbent to compare against.
    let map = wsp_maps::fulfillment_center_1().expect("map builds");
    let workload = map.uniform_workload(550);
    let relaxed = synthesize_flow_relaxed(
        &map.warehouse,
        &map.traffic,
        &workload,
        3_600,
        &FlowSynthesisOptions::default(),
    )
    .expect("strict relaxed feasible at 550 units");
    assert!(relaxed.objective > 0.0);
}

#[test]
fn relaxation_lower_bounds_integer_on_sorting_center() {
    // The LP relaxation of one encoding can only undercut its integer
    // optimum; on the sorting center both solves complete.
    let map = wsp_maps::sorting_center().expect("map builds");
    let options = FlowSynthesisOptions::default();
    for units in [40, 80, 160, 240] {
        let workload = map.uniform_workload(units);
        let relaxed =
            synthesize_flow_relaxed(&map.warehouse, &map.traffic, &workload, 3_600, &options)
                .expect("strict relaxation feasible");
        let integer = synthesize_flow(&map.warehouse, &map.traffic, &workload, 3_600, &options)
            .expect("strict integer solve completes");
        assert!(
            relaxed.objective <= integer.total_edge_flow() as f64 + 1e-6,
            "{units} units: LP {} above ILP {}",
            relaxed.objective,
            integer.total_edge_flow()
        );
    }
}

#[test]
fn table1_deterministic_columns_are_pinned() {
    // Table I as `cargo run -p wsp-bench --bin table1` prints it, minus
    // the seconds columns. Relaxed rows: (objective, variables,
    // constraints, q_c), or `None` for `Infeasible`.
    let paper_mode = [
        Some(("22.857143", 43, 80, 21)),
        Some(("45.714286", 43, 80, 21)),
        Some(("68.571429", 43, 80, 21)),
        Some(("151.724138", 321, 380, 29)),
        Some(("227.586207", 321, 380, 29)),
        Some(("303.448276", 321, 380, 29)),
        Some(("280.000000", 256, 377, 30)),
        Some(("308.000000", 256, 377, 30)),
        Some(("336.000000", 256, 377, 30)),
    ];
    let strict_relaxed = [
        Some(("22.857143", 43, 83, 21)),
        Some(("45.714286", 43, 83, 21)),
        Some(("68.571429", 43, 83, 21)),
        Some(("151.724138", 321, 388, 29)),
        Some(("227.586207", 321, 388, 29)),
        None,
        None,
        None,
        None,
    ];
    let rows = wsp_bench::table1_rows();
    let instances = rows
        .iter()
        .flat_map(|(map, workloads)| workloads.iter().map(move |&units| (map, units)));
    for (i, (map, units)) in instances.enumerate() {
        let workload = map.uniform_workload(units);
        for (skip_capacity, expected) in [(true, paper_mode[i]), (false, strict_relaxed[i])] {
            let options = FlowSynthesisOptions {
                skip_capacity,
                ..FlowSynthesisOptions::default()
            };
            let got = match synthesize_flow_relaxed(
                &map.warehouse,
                &map.traffic,
                &workload,
                wsp_bench::T_LIMIT,
                &options,
            ) {
                Ok(s) => Some((
                    format!("{:.6}", s.objective),
                    s.variables,
                    s.constraints,
                    s.periods,
                )),
                Err(wsp_flow::FlowError::Infeasible { .. }) => None,
                Err(e) => panic!("{} {units}: {e}", map.name),
            };
            let expected = expected.map(|(objective, v, c, q)| (objective.to_string(), v, c, q));
            assert_eq!(
                got, expected,
                "{} {units} units, skip_capacity {skip_capacity}",
                map.name
            );
        }
    }

    // Strict integer pipeline, Sorting Center rows: (agents, delivered,
    // plan steps).
    let (map, workloads) = &rows[0];
    let expected = [(108, 209, 1078), (108, 353, 1742), (108, 533, 2572)];
    for (&units, expected) in workloads.iter().zip(expected) {
        let instance = WspInstance::new(
            map.warehouse.clone(),
            map.traffic.clone(),
            map.uniform_workload(units),
            wsp_bench::T_LIMIT,
        );
        let report = solve(&instance, &PipelineOptions::default()).expect("pipeline solves");
        let got = (
            report.outcome.agents,
            report.stats.total_delivered(),
            report.outcome.timesteps,
        );
        assert_eq!(got, expected, "Sorting Center {units} units");
    }
}

#[test]
fn capacity_bound_is_the_feasibility_boundary() {
    // Fulfillment 2's Table I workloads exceed the Property 4.1 throughput
    // ceiling (at most ⌊|Cᵢ|/2⌋ agents enter a component per period):
    // strict mode must reject them, paper mode (no capacity assumption)
    // must accept them.
    let map = wsp_maps::fulfillment_center_2().expect("map builds");
    let workload = map.uniform_workload(1_200);
    let strict = synthesize_flow_relaxed(
        &map.warehouse,
        &map.traffic,
        &workload,
        3_600,
        &FlowSynthesisOptions::default(),
    );
    assert!(
        matches!(strict, Err(wsp_flow::FlowError::Infeasible { .. })),
        "strict mode should hit the capacity boundary"
    );
    let paper_mode = synthesize_flow_relaxed(
        &map.warehouse,
        &map.traffic,
        &workload,
        3_600,
        &FlowSynthesisOptions {
            skip_capacity: true,
            ..FlowSynthesisOptions::default()
        },
    );
    assert!(
        paper_mode.is_ok(),
        "paper mode should solve: {paper_mode:?}"
    );
}

#[test]
fn baseline_realizes_pipeline_itineraries_on_small_instance() {
    // Cross-validation: give the search-based baseline the itineraries our
    // plan realized, and check its solution with the same plan checker
    // machinery (conflict validation).
    let map = wsp_maps::sorting_center().expect("map builds");
    let workload = map.uniform_workload(10);
    let instance = WspInstance::new(map.warehouse.clone(), map.traffic.clone(), workload, 3_600);
    let report = solve(&instance, &PipelineOptions::default()).expect("pipeline solves");

    // First waypoint of a small agent subset — the full team is exactly
    // where search-based planning stops scaling (the paper's point), so
    // the cross-validation sticks to a tractable slice with distinct
    // waypoints.
    let plan = &report.outcome.plan;
    let mut starts: Vec<VertexId> = Vec::new();
    let mut goals: Vec<Vec<VertexId>> = Vec::new();
    let mut used = std::collections::HashSet::new();
    for a in 0..plan.agent_count() {
        let traj = plan.trajectory(a);
        let waypoint = traj
            .windows(2)
            .find(|w| w[0].carry != w[1].carry)
            .map(|w| w[1].at)
            .unwrap_or(traj.last().expect("non-empty").at);
        let start = plan.state(a, 0).expect("state").at;
        if used.insert(waypoint) && used.insert(start) {
            starts.push(start);
            goals.push(vec![waypoint]);
        }
        if starts.len() == 6 {
            break;
        }
    }

    let problem = MapfProblem::new(map.warehouse.graph(), starts, goals).with_max_time(4_000);
    let planner = IteratedPlanner {
        inner: InnerSolver::Prioritized(PrioritizedPlanner::default()),
        max_iterations: 16,
    };
    let solution = planner.solve(&problem).expect("baseline solves one round");
    assert!(solution.validate(map.warehouse.graph()).is_empty());
}

#[test]
fn realized_plans_verify_against_independent_checker() {
    let map = wsp_maps::sorting_center().expect("map builds");
    let workload = map.uniform_workload(40);
    let instance = WspInstance::new(map.warehouse.clone(), map.traffic, workload.clone(), 3_600);
    let report = solve(&instance, &PipelineOptions::default()).expect("pipeline solves");
    let checker = PlanChecker::new(&map.warehouse);
    let stats = checker
        .check_services(&report.outcome.plan, &workload)
        .expect("independent checker accepts the plan");
    assert_eq!(stats.agents, report.outcome.agents);
}
