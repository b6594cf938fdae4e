//! CI smoke test: a small candidate set evaluated on 2 worker threads
//! end to end — candidate build, staged pipeline, Pareto scoring. Fails
//! fast on thread-safety or determinism regressions without the cost of
//! the full sweep.

use wsp_explore::{evaluate_batch, sorting_center_sweep, CandidateOutcome, ExploreOptions};

#[test]
fn small_candidate_set_on_two_threads() {
    let candidates: Vec<_> = sorting_center_sweep().into_iter().take(4).collect();
    let options = ExploreOptions {
        threads: Some(2),
        units: 72,
        ..ExploreOptions::default()
    };
    let outcome = evaluate_batch(&candidates, &options);
    assert_eq!(outcome.threads, 2);
    assert_eq!(outcome.reports.len(), 4);
    for report in &outcome.reports {
        match &report.outcome {
            CandidateOutcome::Solved(eval) => {
                assert!(eval.delivered >= 72, "{}", report.candidate.label());
                assert!(eval.agents > 0);
                assert!(eval.synthesis_cost > 0);
            }
            other => panic!("{}: unexpected {other:?}", report.candidate.label()),
        }
    }
    assert!(!outcome.front.is_empty());
    let best = outcome.best().expect("some candidate solved");
    assert!(best.outcome.eval().is_some());

    // Same batch again on the same thread count: reports must reproduce.
    let again = evaluate_batch(&candidates, &options);
    assert_eq!(outcome.to_json(), again.to_json());
}
