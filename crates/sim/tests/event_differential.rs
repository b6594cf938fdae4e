//! The event engine's headline invariant: for identical `(instance,
//! config)`, [`SimEngine::Event`] produces a **byte-identical**
//! `SimReport` JSON rendering — counters, derived metrics, new
//! event/elision counters, and trajectory checksum — to the retained
//! [`SimEngine::Reference`] tick loop, at 1, 2, and 4 repair threads.
//! Elision must be unobservable: the only thing the event engine is
//! allowed to change is how long the run takes.
//!
//! Property-tested over random (seeds, gaps, window, replan-lag) draws
//! with deviations and repair enabled, then pinned on a fixed scenario
//! with enough pressure that stalls, repairs, early replans, *and*
//! genuine elision all occur; a quiet-tail scenario checks the elision
//! fast path actually engages (ticks_elided > 0) without perturbing the
//! report.

use proptest::prelude::*;
use wsp_core::{PipelineOptions, WspInstance};
use wsp_maps::{sorting_center_variant, SortingCenterParams};
use wsp_model::Workload;
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

#[allow(clippy::too_many_arguments)]
fn config(
    engine: SimEngine,
    ticks: u64,
    stream_seed: u64,
    dev_seed: u64,
    stall_gap: u32,
    mean_gap: u32,
    window: usize,
    replan_lag: usize,
    threads: usize,
) -> SimConfig {
    SimConfig {
        ticks,
        window,
        stream: StreamConfig {
            mix: Workload::from_demands(vec![3; 12]),
            mean_gap,
            seed: stream_seed,
        },
        deviations: DeviationConfig::stalls(stall_gap, 2, 7, dev_seed),
        repair: RepairConfig {
            enabled: true,
            lag_threshold: 3,
            threads: Some(threads),
        },
        replan_lag,
        engine,
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn event_engine_matches_reference_byte_for_byte(
        stream_seed in 0u64..1_000,
        dev_seed in 0u64..1_000,
        mean_gap in 1u32..6,
        window in 36usize..90,
        // 0..8 collapses to 0 (boundary-only replans) so both regimes get
        // coverage without a strategy combinator the vendored proptest
        // build lacks.
        raw_replan_lag in 0usize..24,
    ) {
        let replan_lag = if raw_replan_lag < 8 { 0 } else { raw_replan_lag };
        let instance = small_instance();
        let options = PipelineOptions::default();
        for threads in [1usize, 2, 4] {
            let run = |engine| {
                let cfg = config(
                    engine, 260, stream_seed, dev_seed, 16, mean_gap, window, replan_lag, threads,
                );
                let mut sim = Simulation::new(&instance, &options, cfg).unwrap();
                sim.run().unwrap()
            };
            let event = run(SimEngine::Event);
            let reference = run(SimEngine::Reference);
            prop_assert!(event.counters.conserved());
            prop_assert_eq!(
                event.to_json(),
                reference.to_json(),
                "event engine diverged from reference at {} threads",
                threads
            );
        }
    }
}

/// A fixed high-pressure scenario (stalls, repairs, early replans) pinned
/// across engines and thread counts, plus interleaved `run_ticks` /
/// mid-run `report()` calls — mid-run observability must not depend on
/// the engine either.
#[test]
fn fixed_scenario_matches_including_midrun_reports() {
    let instance = small_instance();
    let options = PipelineOptions::default();
    for threads in [1usize, 2, 4] {
        let run = |engine| {
            let cfg = config(engine, 260, 7, 13, 16, 2, 48, 20, threads);
            let mut sim = Simulation::new(&instance, &options, cfg).unwrap();
            let mut midrun = Vec::new();
            for _ in 0..13 {
                sim.run_ticks(20).unwrap();
                midrun.push(sim.report().to_json());
            }
            (midrun, sim.report())
        };
        let (event_mid, event) = run(SimEngine::Event);
        let (reference_mid, reference) = run(SimEngine::Reference);
        assert_eq!(event_mid, reference_mid, "mid-run reports diverged");
        assert_eq!(event.to_json(), reference.to_json());
        assert!(event.counters.stalls_injected > 0);
        assert!(event.counters.repairs_attempted > 0);
        assert_eq!(
            event.counters.events_processed,
            reference.counters.events_processed
        );
    }
}

/// Same pinning with the fault layer on: breakdowns, a station outage,
/// and corridor closures are forced ticks like stalls, so the event
/// engine must reproduce the reference loop byte-for-byte — mid-run
/// reports included — while faults demonstrably fire and shed work.
#[test]
fn fixed_fault_scenario_matches_including_midrun_reports() {
    let instance = small_instance();
    let options = PipelineOptions::default();
    let faults = FaultConfig {
        breakdown_gap: 50,
        breakdown_min_ticks: 10,
        breakdown_max_ticks: 40,
        permanent_permille: 250,
        outage_gap: 90,
        outage_min_ticks: 40,
        outage_max_ticks: 90,
        closure_gap: 70,
        closure_min_ticks: 15,
        closure_max_ticks: 45,
        closure_len: 3,
        seed: 0xfa17,
    };
    for threads in [1usize, 2, 4] {
        let run = |engine| {
            let mut cfg = config(engine, 260, 7, 13, 16, 2, 48, 20, threads);
            cfg.faults = faults;
            let mut sim = Simulation::new(&instance, &options, cfg).unwrap();
            let mut midrun = Vec::new();
            for _ in 0..13 {
                sim.run_ticks(20).unwrap();
                midrun.push(sim.report().to_json());
            }
            (midrun, sim.report())
        };
        let (event_mid, event) = run(SimEngine::Event);
        let (reference_mid, reference) = run(SimEngine::Reference);
        assert_eq!(event_mid, reference_mid, "mid-run fault reports diverged");
        assert_eq!(event.to_json(), reference.to_json());
        assert!(event.counters.conserved());
        assert!(event.counters.faults_injected > 0);
        assert!(event.counters.completed > 0);
    }
}

/// Once the task stream dries up the warehouse goes quiescent: the event
/// engine must actually elide those ticks (that is the whole point) and
/// still report byte-identically, recorded trajectories included.
#[test]
fn quiet_tail_is_elided_but_unobservable() {
    let instance = small_instance();
    let options = PipelineOptions::default();
    let run = |engine| {
        let mut cfg = config(engine, 1_200, 5, 11, 300, 1, 48, 16, 2);
        cfg.record = true;
        let mut sim = Simulation::new(&instance, &options, cfg).unwrap();
        let report = sim.run().unwrap();
        (report, sim.executed_plan().cloned().unwrap())
    };
    let (event, event_plan) = run(SimEngine::Event);
    let (reference, reference_plan) = run(SimEngine::Reference);
    assert_eq!(event.to_json(), reference.to_json());
    assert_eq!(event_plan, reference_plan, "recorded trajectories diverged");
    assert!(
        event.counters.ticks_elided > 0,
        "quiet tail produced no elision: {}",
        event
    );
    assert!(
        event.counters.active_agent_ticks < event.counters.ticks * event.agents / 2,
        "active-agent work did not shrink: {} of {}",
        event.counters.active_agent_ticks,
        event.counters.ticks * event.agents,
    );
}

/// The auction-policy version of the quiet-tail check: once the stream
/// drains and every mission retires, the dirty-set skip lets idle agents
/// sleep `Frozen`, the assignment phase stops running, and the event
/// engine elides the quiet stretch outright — while staying
/// byte-identical to the reference sweep, recorded trajectories and all.
/// Runs on a small scaled-warehouse scenario (the sorting-center variant
/// above can wedge missions permanently under the auction's direction
/// field, which keeps blocked agents awake retrying forever).
#[test]
fn auction_quiet_tail_is_elided_but_unobservable() {
    use std::collections::BTreeSet;
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
        mix.set(p, 60 / delivered.len() as u64 + 1);
    }
    let run = |engine| {
        let mut cfg = config(engine, 1_200, 5, 11, 300, 1, 48, 16, 2);
        cfg.stream.mix = mix.clone();
        cfg.stream.mean_gap = 2;
        cfg.assign.policy = AssignPolicy::Auction;
        cfg.record = true;
        let mut sim = Simulation::from_cycles(&instance, cycles.clone(), cfg).unwrap();
        let report = sim.run().unwrap();
        (report, sim.executed_plan().cloned().unwrap())
    };
    let (event, event_plan) = run(SimEngine::Event);
    let (reference, reference_plan) = run(SimEngine::Reference);
    assert_eq!(event.to_json(), reference.to_json());
    assert_eq!(event_plan, reference_plan, "recorded trajectories diverged");
    assert!(
        event.counters.completed > 0,
        "auction run delivered nothing: {}",
        event
    );
    assert!(
        event.counters.ticks_elided > 0,
        "auction quiet tail produced no elision: {}",
        event
    );
    assert!(
        event.counters.active_agent_ticks < event.counters.ticks * event.agents / 2,
        "active-agent work did not shrink: {} of {}",
        event.counters.active_agent_ticks,
        event.counters.ticks * event.agents,
    );
}
