//! The simulator's headline invariant (mirroring
//! `crates/explore/tests/determinism.rs`): the same seed and configuration
//! produce a byte-identical `SimReport` — canonical JSON and trajectory
//! checksum — at 1, 2, and 4 repair threads, with deviations and repair
//! enabled. Property-tested over random (seeds, gaps, window) draws, then
//! pinned on one fixed configuration.

use proptest::prelude::*;
use wsp_core::{PipelineOptions, WspInstance};
use wsp_maps::{sorting_center_variant, SortingCenterParams};
use wsp_model::Workload;
use wsp_sim::{DeviationConfig, RepairConfig, SimConfig, Simulation, StreamConfig};

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

fn config(
    stream_seed: u64,
    dev_seed: u64,
    mean_gap: u32,
    window: usize,
    threads: usize,
) -> SimConfig {
    SimConfig {
        ticks: 260,
        window,
        stream: StreamConfig {
            mix: Workload::from_demands(vec![3; 12]),
            mean_gap,
            seed: stream_seed,
        },
        deviations: DeviationConfig::stalls(16, 2, 7, dev_seed),
        repair: RepairConfig {
            enabled: true,
            lag_threshold: 3,
            threads: Some(threads),
        },
        replan_lag: 20,
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn repair_thread_count_never_changes_the_report(
        stream_seed in 0u64..1_000,
        dev_seed in 0u64..1_000,
        mean_gap in 1u32..5,
        window in 36usize..90,
    ) {
        let instance = small_instance();
        let options = PipelineOptions::default();
        let mut renderings = Vec::new();
        for threads in [1usize, 2, 4] {
            let cfg = config(stream_seed, dev_seed, mean_gap, window, threads);
            let mut sim = Simulation::new(&instance, &options, cfg).unwrap();
            let report = sim.run().unwrap();
            prop_assert!(report.counters.conserved());
            renderings.push(report.to_json());
        }
        prop_assert_eq!(&renderings[0], &renderings[1], "2 threads diverged from 1");
        prop_assert_eq!(&renderings[0], &renderings[2], "4 threads diverged from 1");
    }
}

/// One fixed configuration pinned across thread counts *and* repeated
/// runs, with enough deviation pressure that repairs genuinely fire (a
/// thread-count bug cannot hide behind an idle repair stage).
#[test]
fn fixed_scenario_is_thread_count_independent_and_repeatable() {
    let instance = small_instance();
    let options = PipelineOptions::default();
    let run = |threads: usize| {
        let cfg = config(7, 13, 2, 48, threads);
        let mut sim = Simulation::new(&instance, &options, cfg).unwrap();
        let report = sim.run().unwrap();
        (report.to_json(), report)
    };
    let (one, report) = run(1);
    let (one_again, _) = run(1);
    let (two, _) = run(2);
    let (four, _) = run(4);
    assert_eq!(one, one_again, "same-config rerun diverged");
    assert_eq!(one, two);
    assert_eq!(one, four);
    assert!(report.counters.stalls_injected > 0);
    assert!(report.counters.replans > 1);
    assert!(
        report.counters.repairs_attempted > 0,
        "deviation pressure too low to exercise the repair stage: {}",
        report
    );
}

/// The supervised runner (`run_controlled`) must be an unobservable
/// wrapper: chunked execution with progress accounting renders the exact
/// bytes `run()` renders, progress reaches `config.ticks`, and a
/// pre-cancelled control stops the run before it simulates anything.
#[test]
fn controlled_run_is_byte_identical_and_cancellable() {
    let instance = small_instance();
    let options = PipelineOptions::default();

    let mut plain = Simulation::new(&instance, &options, config(7, 13, 2, 48, 1)).unwrap();
    let baseline = plain.run().unwrap().to_json();

    // Chunk sizes straddling the window/elision structure: tiny, odd,
    // and larger than the whole run.
    for chunk in [1u64, 17, 100_000] {
        let control = wsp_core::RunControl::new();
        let mut sim = Simulation::new(&instance, &options, config(7, 13, 2, 48, 1)).unwrap();
        let report = sim.run_controlled(&control, chunk).unwrap();
        assert_eq!(report.to_json(), baseline, "chunk {chunk} diverged");
        assert!(!control.is_cancelled());
        assert_eq!(
            control.progress(),
            260,
            "progress must equal simulated ticks"
        );
    }

    // A cancel observed before the first chunk stops the run immediately.
    let control = wsp_core::RunControl::new();
    control.cancel();
    let mut sim = Simulation::new(&instance, &options, config(7, 13, 2, 48, 1)).unwrap();
    let report = sim.run_controlled(&control, 32).unwrap();
    assert_eq!(report.counters.ticks, 0);
    assert_eq!(control.progress(), 0);

    // A cancel mid-run stops at the next chunk boundary: progress stays
    // short of the configured horizon.
    let control = wsp_core::RunControl::new();
    let mut sim = Simulation::new(&instance, &options, config(7, 13, 2, 48, 1)).unwrap();
    sim.run_ticks(10).unwrap();
    control.cancel();
    let report = sim.run_controlled(&control, 32).unwrap();
    assert_eq!(report.counters.ticks, 10, "cancelled run must not advance");
}
