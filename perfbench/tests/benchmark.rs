//! The benchmark's own tests: a reduced-size run of every workload prints
//! every metric `BENCHMARK.json` names, with its unit, and passes its
//! output checks; the checks themselves fail on corrupted outputs.

use std::time::Duration;

use wsp_model::{AgentState, Plan, VertexId};
use wsp_perfbench::trace::Tracer;
use wsp_perfbench::{checks, floor, run_workload, RunConfig, Scale, DEFAULT_SEED};
use wsp_server::json::Json;

/// `(name, unit)` pairs of a metric list.
type Named = Vec<(String, String)>;

/// The end-to-end and per-layer `(name, unit)` lists of `BENCHMARK.json`,
/// and its workload names.
fn declared() -> (Named, Named, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let metrics = |section: &str| -> Named {
        doc.get(section)
            .and_then(Json::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    };
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    (metrics("end_to_end"), metrics("per_layer"), workloads)
}

fn smoke(trace: bool) -> RunConfig {
    RunConfig {
        seed: DEFAULT_SEED,
        budget: Duration::from_millis(300),
        trace,
        scale: Scale::Smoke,
    }
}

/// Runs `workload` at smoke scale in both modes and checks the result
/// line against `BENCHMARK.json` (plus the floor-only per-layer metrics
/// for the floors).
fn assert_prints_declared_metrics(workload: &str) {
    let (end_to_end, mut per_layer, workloads) = declared();
    let declared = workloads.iter().any(|w| w == workload);
    assert_eq!(
        declared,
        wsp_perfbench::WORKLOADS.contains(&workload),
        "{workload}: BENCHMARK.json and WORKLOADS disagree"
    );
    if workload.starts_with("floor-") {
        per_layer.extend(
            wsp_perfbench::FLOOR_LAYER
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string())),
        );
    }
    for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
        let result = run_workload(workload, &smoke(trace)).expect("workload runs");
        assert!(result.correct(), "{workload}: {}", result.table());
        assert!(result.attempted >= 1);
        let line = Json::parse(&result.json_line()).expect("result line is JSON");
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(printed, names, "{workload} (trace {trace}) metric set");
        for ((name, unit), (_, value)) in expected.iter().zip(metrics) {
            assert_eq!(
                value.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{workload}: unit of {name}"
            );
            let v = value
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(v.is_finite(), "{workload}: {name} = {v}");
            if !trace && name != "success_share" {
                assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
            }
        }
        let table = result.table();
        for (name, unit) in expected {
            assert!(
                table
                    .lines()
                    .any(|l| l.starts_with(name.as_str()) && l.contains(unit.as_str())),
                "{workload}: table lacks {name} [{unit}]"
            );
        }
    }
}

#[test]
fn design_sweep_prints_every_declared_metric() {
    assert_prints_declared_metrics("design-sweep");
}

#[test]
fn floor_calm_prints_every_declared_metric() {
    assert_prints_declared_metrics("floor-calm");
}

#[test]
fn floor_faults_prints_every_declared_metric() {
    assert_prints_declared_metrics("floor-faults");
}

#[test]
fn the_declared_workloads_and_metrics_match_the_code() {
    let (end_to_end, per_layer, workloads) = declared();
    assert_eq!(workloads, wsp_perfbench::WORKLOADS);
    let pairs = |list: &[(&str, &str)]| -> Named {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(end_to_end, pairs(&wsp_perfbench::END_TO_END));
    assert_eq!(per_layer, pairs(&wsp_perfbench::PER_LAYER));
}

#[test]
fn served_mix_prints_every_declared_metric() {
    assert_prints_declared_metrics("served-mix");
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run_workload("floor-lukewarm", &smoke(false)).is_err());
}

/// The plan-feasibility check passes on a recorded prefix and fails once
/// one agent teleports.
#[test]
fn plan_check_fails_on_a_teleporting_agent() {
    let mut tracer = Tracer::new();
    let built = floor::build_floor(Scale::Smoke, &mut tracer);
    let mut config = floor::sim_config(&built, floor::draw_seeds(DEFAULT_SEED, 0), false, 60);
    config.record = true;
    let mut sim =
        wsp_sim::Simulation::from_cycles(&built.instance, built.cycles.clone(), config).unwrap();
    sim.run_ticks(60).unwrap();
    let delivered = sim.counters().delivered;
    let plan = sim.executed_plan().unwrap();
    checks::plan_feasible(&built.instance.warehouse, plan, delivered).expect("recorded plan");

    // Agent 0 jumps at t = 30 to a vertex at the other end of the floor
    // (vertex ids are row-major, so no step reaches it).
    let n = built.instance.warehouse.graph().vertex_count() as u32;
    let here = plan.trajectory(0)[30].at;
    let far = VertexId(if here.0 < n / 2 { n - 1 } else { 0 });
    let mut teleported = Plan::new();
    for a in 0..plan.agent_count() {
        let states = plan.trajectory(a);
        teleported.add_agent(states[0]);
        for (t, s) in states.iter().enumerate().skip(1) {
            let at = if a == 0 && t == 30 { far } else { s.at };
            teleported.push_state(a, AgentState { at, ..*s });
        }
    }
    assert!(checks::plan_feasible(&built.instance.warehouse, &teleported, delivered).is_err());
    // A delivery count the plan does not show fails too.
    assert!(checks::plan_feasible(&built.instance.warehouse, plan, delivered + 1).is_err());
}

/// A served body with one flipped byte no longer matches the direct call.
#[test]
fn a_flipped_byte_in_a_served_body_fails_the_identity_check() {
    let jobs = wsp_perfbench::served::pool(DEFAULT_SEED, Scale::Smoke);
    let wsp_perfbench::served::Job::Sim(job) = &jobs[0] else {
        panic!("pool starts with a sim job");
    };
    let direct = job.direct().unwrap();
    assert!(checks::same_bytes("body", &direct, &job.direct().unwrap()).is_ok());
    let mut bytes = direct.clone().into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let corrupted = String::from_utf8(bytes).unwrap();
    assert!(checks::same_bytes("body", &direct, &corrupted).is_err());
}
