//! The explorer's headline invariant: exploring the same candidate set at
//! 1, 2, and 4 threads yields byte-identical Pareto fronts and
//! per-candidate reports. Property-tested over small random candidate
//! sets (including out-of-range knobs, so failed candidates are covered
//! too), then pinned on the default sweep.

use proptest::prelude::*;
use wsp_explore::{evaluate_batch, sorting_center_sweep, DesignCandidate, ExploreOptions};
use wsp_maps::SortingCenterParams;
use wsp_traffic::RingOrientation;

fn candidate_strategy() -> impl Strategy<Value = DesignCandidate> {
    (
        0u32..3,  // chute_rows picked from {1, 3, 4}: 4 exercises Failed
        2u32..5,  // chute_cols
        1u32..4,  // stations
        0u32..40, // station_offset
        20usize..120,
        0u32..2, // orientation pick
    )
        .prop_map(
            |(rows_pick, chute_cols, stations, station_offset, max_component_len, reversed)| {
                DesignCandidate::new(SortingCenterParams {
                    chute_rows: [1, 3, 4][rows_pick as usize],
                    chute_cols,
                    stations,
                    station_offset,
                    max_component_len,
                    orientation: if reversed == 1 {
                        RingOrientation::Reversed
                    } else {
                        RingOrientation::Forward
                    },
                    ..SortingCenterParams::paper()
                })
            },
        )
}

fn tiny_options(threads: usize) -> ExploreOptions {
    ExploreOptions {
        threads: Some(threads),
        units: 8,
        t_limit: 1_600,
        ..ExploreOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn thread_count_never_changes_the_results(
        candidates in proptest::collection::vec(candidate_strategy(), 1..4)
    ) {
        let base = evaluate_batch(&candidates, &tiny_options(1));
        for threads in [2usize, 4] {
            let other = evaluate_batch(&candidates, &tiny_options(threads));
            prop_assert_eq!(
                base.to_json(),
                other.to_json(),
                "{} threads diverged from 1 thread",
                threads
            );
        }
    }
}

/// A mixed small-map candidate set pinning the invariant on a fixed input
/// (the proptest above covers random inputs): solved, infeasible, and
/// failed candidates together, across both orientations and the capacity
/// boundary. Small maps keep this fast in debug CI; the full 20-candidate
/// sweep runs the same check in release through `benches/explore.rs` and
/// `examples/design_search.rs`.
#[test]
fn fixed_mixed_set_is_thread_count_independent() {
    let small = |stations: u32, max_component_len: usize, reversed: bool| {
        DesignCandidate::new(SortingCenterParams {
            chute_rows: 3,
            chute_cols: 4,
            stations,
            max_component_len,
            orientation: if reversed {
                RingOrientation::Reversed
            } else {
                RingOrientation::Forward
            },
            ..SortingCenterParams::paper()
        })
    };
    let mut candidates = vec![
        small(2, 60, false),
        small(2, 60, true),
        small(4, 100, false),
        small(4, 100, true),
        small(1, 8, false), // chopped far below the capacity bound
    ];
    candidates.push(DesignCandidate::new(SortingCenterParams {
        chute_rows: 2, // even: fails validation
        ..SortingCenterParams::paper()
    }));

    let options = |threads| ExploreOptions {
        threads: Some(threads),
        units: 12,
        t_limit: 1_600,
        ..ExploreOptions::default()
    };
    let one = evaluate_batch(&candidates, &options(1));
    let two = evaluate_batch(&candidates, &options(2));
    let four = evaluate_batch(&candidates, &options(4));
    assert_eq!(one.to_json(), two.to_json());
    assert_eq!(one.to_json(), four.to_json());
    assert_eq!(one.threads, 1);
    assert_eq!(two.threads, 2);
    assert_eq!(four.threads, 4);
    assert!(!one.front.is_empty());
    assert!(one.to_json().contains("\"outcome\": \"failed\""));
}

#[test]
fn default_sweep_is_fixed() {
    // The sweep itself must stay a pure function (benches and docs quote
    // its size); its full evaluation is exercised in release builds.
    assert_eq!(sorting_center_sweep().len(), 20);
    assert_eq!(
        sorting_center_sweep()
            .iter()
            .map(|c| c.label())
            .collect::<Vec<_>>(),
        sorting_center_sweep()
            .iter()
            .map(|c| c.label())
            .collect::<Vec<_>>()
    );
}
