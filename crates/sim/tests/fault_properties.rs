//! Fault-injection properties: deterministic chaos (agent breakdowns,
//! station outages, corridor closures) must degrade throughput, never
//! correctness.
//!
//! * Task conservation (`injected == completed + in_flight + queued`)
//!   holds after every single tick: shed tasks re-queue immediately
//!   (`tasks_shed` counts them), they never vanish.
//! * The executed trajectories still pass the independent
//!   [`PlanChecker`]: collision freedom is by construction, faults or
//!   not.
//! * The report stays byte-identical across `SimEngine::{Event,
//!   Reference}` and 1/2/4 repair threads with every fault stream on —
//!   chaos runs are as reproducible as clean ones.

use std::collections::BTreeSet;

use proptest::prelude::*;
use wsp_core::{PipelineOptions, WspInstance};
use wsp_maps::{sorting_center_variant, SortingCenterParams};
use wsp_model::{CheckScratch, PlanChecker, Workload};
use wsp_sim::{
    AssignPolicy, DeviationConfig, FaultConfig, RepairConfig, SimConfig, SimEngine, Simulation,
    StreamConfig,
};

fn small_instance() -> WspInstance {
    let params = SortingCenterParams {
        chute_rows: 3,
        chute_cols: 4,
        stations: 2,
        ..SortingCenterParams::paper()
    };
    let map = sorting_center_variant(&params).expect("variant builds");
    let workload = map.uniform_workload(24);
    WspInstance::new(map.warehouse, map.traffic, workload, 2_000)
}

/// Every fault stream on, dense enough that each is guaranteed to fire
/// within the test horizons (a stream's first event lands within
/// `2 × gap − 1` ticks).
fn chaos(seed: u64) -> FaultConfig {
    FaultConfig {
        breakdown_gap: 60,
        breakdown_min_ticks: 10,
        breakdown_max_ticks: 40,
        permanent_permille: 200,
        outage_gap: 120,
        outage_min_ticks: 30,
        outage_max_ticks: 80,
        closure_gap: 90,
        closure_min_ticks: 15,
        closure_max_ticks: 50,
        closure_len: 3,
        seed,
    }
}

fn static_config(engine: SimEngine, fault_seed: u64, threads: usize) -> SimConfig {
    SimConfig {
        ticks: 320,
        window: 48,
        stream: StreamConfig {
            mix: Workload::from_demands(vec![3; 12]),
            mean_gap: 2,
            seed: 9,
        },
        deviations: DeviationConfig::stalls(40, 2, 6, 17),
        faults: chaos(fault_seed),
        repair: RepairConfig {
            enabled: true,
            lag_threshold: 3,
            threads: Some(threads),
        },
        replan_lag: 16,
        engine,
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Per-tick conservation and end-to-end feasibility under all three
    /// fault kinds on the static policy, both engines.
    #[test]
    fn conservation_and_feasibility_hold_under_chaos(fault_seed in 0u64..1_000) {
        let instance = small_instance();
        let options = PipelineOptions::default();
        let checker = PlanChecker::new(&instance.warehouse);
        let mut scratch = CheckScratch::new();
        for engine in [SimEngine::Event, SimEngine::Reference] {
            let mut cfg = static_config(engine, fault_seed, 1);
            cfg.record = true;
            let ticks = cfg.ticks;
            let mut sim = Simulation::new(&instance, &options, cfg).unwrap();
            for tick in 0..ticks {
                sim.step().unwrap();
                let c = sim.counters();
                prop_assert!(
                    c.conserved(),
                    "tick {}: {} injected != {} + {} + {} (shed {})",
                    tick, c.injected, c.completed, c.in_flight, c.queued, c.tasks_shed,
                );
            }
            let report = sim.report();
            prop_assert!(report.counters.faults_injected > 0, "no fault fired");
            let executed = sim.executed_plan().expect("recording enabled");
            let stats = checker
                .check_with_scratch(executed, &mut scratch)
                .unwrap_or_else(|e| panic!("chaos run (seed {fault_seed}) infeasible: {e}"));
            prop_assert_eq!(
                stats.delivered.iter().sum::<u64>(),
                report.counters.delivered
            );
        }
    }

    /// Chaos is reproducible: byte-identical `SimReport` JSON across
    /// both engines and 1/2/4 repair threads with faults on.
    #[test]
    fn fault_runs_are_engine_and_thread_invariant(fault_seed in 0u64..1_000) {
        let instance = small_instance();
        let options = PipelineOptions::default();
        let mut renderings: Vec<String> = Vec::new();
        for engine in [SimEngine::Event, SimEngine::Reference] {
            for threads in [1usize, 2, 4] {
                let cfg = static_config(engine, fault_seed, threads);
                let mut sim = Simulation::new(&instance, &options, cfg).unwrap();
                let report = sim.run().unwrap();
                prop_assert!(report.counters.conserved());
                renderings.push(report.to_json());
            }
        }
        for r in &renderings[1..] {
            prop_assert_eq!(r, &renderings[0], "fault run diverged across engine/threads");
        }
    }
}

/// The auction policy under chaos: breakdowns shed missions back to the
/// pending queue (in arrival order), outages stop new assignments to
/// dark stations, closures wedge-and-reroute installed routes — and the
/// whole thing stays conserved, feasible, deliverable, and byte-stable
/// across engines.
#[test]
fn auction_chaos_degrades_gracefully_and_deterministically() {
    let map = wsp_maps::scaled_warehouse(5, 40, 3, 5).expect("small scaled map builds");
    let instance = WspInstance::new(map.warehouse, map.traffic, Workload::zeros(0), 0);
    let cycles = wsp_sim::direct_cycle_set(&instance.warehouse, &instance.traffic, 24);
    let mut mix = Workload::zeros(instance.warehouse.catalog().len());
    let delivered: BTreeSet<wsp_model::ProductId> = cycles
        .cycles()
        .iter()
        .flat_map(|c| c.delivered_products())
        .collect();
    for &p in &delivered {
        mix.set(p, 120 / delivered.len() as u64 + 1);
    }
    let checker = PlanChecker::new(&instance.warehouse);
    let mut scratch = CheckScratch::new();

    let mut run = |engine| {
        let cfg = SimConfig {
            ticks: 600,
            window: 48,
            stream: StreamConfig {
                mix: mix.clone(),
                mean_gap: 2,
                seed: 5,
            },
            deviations: DeviationConfig::stalls(80, 2, 6, 11),
            faults: chaos(0xfa17),
            record: true,
            engine,
            ..SimConfig::default()
        };
        let mut cfg = cfg;
        cfg.assign.policy = AssignPolicy::Auction;
        let mut sim = Simulation::from_cycles(&instance, cycles.clone(), cfg).unwrap();
        for tick in 0..600 {
            sim.step().unwrap();
            let c = sim.counters();
            assert!(
                c.conserved(),
                "tick {tick}: {} injected != {} + {} + {} (shed {})",
                c.injected,
                c.completed,
                c.in_flight,
                c.queued,
                c.tasks_shed,
            );
        }
        let report = sim.report();
        let executed = sim.executed_plan().expect("recording enabled");
        let stats = checker
            .check_with_scratch(executed, &mut scratch)
            .unwrap_or_else(|e| panic!("auction chaos run infeasible: {e}"));
        assert_eq!(
            stats.delivered.iter().sum::<u64>(),
            report.counters.delivered
        );
        report
    };

    let event = run(SimEngine::Event);
    let reference = run(SimEngine::Reference);
    assert_eq!(
        event.to_json(),
        reference.to_json(),
        "auction chaos diverged across engines"
    );
    assert!(event.counters.completed > 0, "chaos stopped all deliveries");
    assert!(event.counters.faults_injected > 0, "no fault fired");
    // The fault counters render (and only because faults are on — the
    // report-layer unit tests pin the fault-free rendering unchanged).
    let json = event.to_json();
    assert!(json.contains("\"faults_injected\""));
    assert!(json.contains("\"tasks_shed\""));
    assert!(json.contains("\"agents_lost\""));
}
