//! MAPF catch-up repair: when an agent falls far enough behind its window
//! plan (a stall of its own, or a convoy queued behind one), the engine
//! tries to splice in a space-time A* detour that rejoins the plan
//! downstream *on schedule*, planned against a [`ReservationTable`]
//! holding every other agent's projected trajectory.
//!
//! The fan-out is the same determinism shape as `wsp-explore`'s batch
//! evaluator: workers claim request indices off an atomic counter, search
//! against the shared read-only table with per-worker
//! [`SearchScratch`] tables, and write results into request-indexed
//! slots — so the outcome is a pure function of the requests at every
//! thread count. Acceptance then runs sequentially in agent order,
//! cross-checking accepted paths pairwise (candidates are not in the
//! shared table), which keeps the applied set order-independent too.

use std::sync::atomic::{AtomicUsize, Ordering};

use wsp_mapf::{conflict_at, PlanQuery, ReservationTable, SearchScratch, SpaceTimeAstar};
use wsp_model::{FloorplanGraph, VertexId};

/// One catch-up request: route `agent` from `start` (its actual position,
/// relative time 0) to `goal` (its plan cell at the rejoin index),
/// arriving in at most `deadline` ticks so the rejoin is back on schedule.
#[derive(Debug, Clone)]
pub(crate) struct RepairRequest {
    pub agent: usize,
    pub start: VertexId,
    pub goal: VertexId,
    /// Relative arrival budget; the found path is padded with waits at
    /// `goal` to exactly this length, so acceptance means lag-zero rejoin.
    pub deadline: usize,
    /// Window-plan index the agent's cursor jumps to on completion.
    pub rejoin_cursor: usize,
    /// The agent's lag when the request was made (batch-cap priority).
    pub lag: usize,
}

/// An accepted catch-up: the padded relative path (`path[0] == start`,
/// `path[deadline] == goal`) and the rejoin index.
#[derive(Debug, Clone)]
pub(crate) struct RepairPath {
    pub path: Vec<VertexId>,
    /// Progress along `path` (index of the cell the agent stands on).
    pub at: usize,
    pub rejoin_cursor: usize,
}

/// Plans every request against the shared reservation table on up to
/// `threads` scoped workers and returns accepted, padded paths in
/// request-indexed slots (`None` = no path within the deadline).
pub(crate) fn plan_repairs(
    graph: &FloorplanGraph,
    table: &ReservationTable,
    requests: &[RepairRequest],
    threads: usize,
) -> Vec<Option<Vec<VertexId>>> {
    let n = requests.len();
    let mut slots: Vec<Option<Vec<VertexId>>> = Vec::new();
    slots.resize_with(n, || None);
    if n == 0 {
        return slots;
    }
    // Deadline-capped searches are microseconds of work; below a handful
    // of requests the thread spawn/join overhead dwarfs them, so small
    // batches run inline. Results are slot-indexed either way, so the
    // outcome is byte-identical at any width.
    let threads = if n <= 4 { 1 } else { threads.clamp(1, n) };
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut scratch = SearchScratch::new();
        let mut produced: Vec<(usize, Option<Vec<VertexId>>)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            produced.push((i, plan_one(graph, table, &requests[i], &mut scratch)));
        }
        produced
    };

    if threads == 1 {
        for (i, found) in worker() {
            slots[i] = found;
        }
        return slots;
    }
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(scope.spawn(worker));
        }
        for handle in workers {
            for (i, found) in handle.join().expect("repair worker panicked") {
                slots[i] = found;
            }
        }
    });
    slots
}

/// One catch-up search: deadline-capped space-time A* to the rejoin cell,
/// padded with validated waits so the agent camps at the goal only when
/// the reservation table says nobody reserved it.
fn plan_one(
    graph: &FloorplanGraph,
    table: &ReservationTable,
    r: &RepairRequest,
    scratch: &mut SearchScratch,
) -> Option<Vec<VertexId>> {
    // A path longer than the deadline is rejected anyway, so cap the
    // search horizon at the deadline instead of wasting expansions on
    // unacceptable paths.
    let astar = SpaceTimeAstar {
        max_time: r.deadline + 1,
        focal_weight: 1.0,
    };
    let query = PlanQuery {
        start: r.start,
        start_time: 0,
        goal: r.goal,
        reservations: Some(table),
        constraints: None,
        conflict_paths: None,
        require_parkable: false,
    };
    let segment = astar.plan_with_scratch(graph, &query, scratch)?;
    let mut path = segment.path;
    if path.len() > r.deadline + 1 {
        return None; // cannot rejoin on schedule
    }
    // The A* validated every step against the table; the goal-waits the
    // padding adds must be validated too, or the camped agent would block
    // a reserved trajectory passing through the rejoin cell and amplify
    // the very lag the repair is meant to remove.
    if (path.len() - 1..=r.deadline).any(|k| !table.vertex_free(r.goal, k)) {
        return None;
    }
    path.resize(r.deadline + 1, r.goal);
    Some(path)
}

/// Sequential acceptance in agent order: a candidate path is accepted only
/// if it has no vertex or edge conflict with any previously accepted one
/// (candidates are excluded from the shared table, so they must be checked
/// against each other). Execution-time occupancy checks remain the safety
/// net either way.
pub(crate) fn accept_repairs(
    requests: &[RepairRequest],
    found: Vec<Option<Vec<VertexId>>>,
) -> Vec<(usize, RepairPath)> {
    let mut accepted: Vec<(usize, RepairPath)> = Vec::new();
    for (r, path) in requests.iter().zip(found) {
        let Some(path) = path else { continue };
        let clashes = accepted.iter().any(|(agent, other)| {
            (0..path.len().max(other.path.len()))
                .any(|t| conflict_at(r.agent, &path, *agent, &other.path, t).is_some())
        });
        if !clashes {
            accepted.push((
                r.agent,
                RepairPath {
                    path,
                    at: 0,
                    rejoin_cursor: r.rejoin_cursor,
                },
            ));
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::GridMap;

    fn graph(art: &str) -> FloorplanGraph {
        FloorplanGraph::from_grid(&GridMap::from_ascii(art).unwrap())
    }

    fn v(g: &FloorplanGraph, x: u32, y: u32) -> VertexId {
        g.vertex_at((x, y).into()).unwrap()
    }

    #[test]
    fn repairs_pad_to_the_deadline_and_slot_by_request() {
        let g = graph(".....\n.....");
        let table = ReservationTable::new(g.vertex_count());
        let requests = vec![
            RepairRequest {
                agent: 3,
                start: v(&g, 0, 0),
                goal: v(&g, 3, 0),
                deadline: 5,
                rejoin_cursor: 9,
                lag: 0,
            },
            RepairRequest {
                agent: 1,
                start: v(&g, 0, 1),
                goal: v(&g, 4, 1),
                deadline: 2, // unreachable: distance 4 > 2
                rejoin_cursor: 7,
                lag: 0,
            },
        ];
        for threads in [1usize, 2, 4] {
            let found = plan_repairs(&g, &table, &requests, threads);
            assert_eq!(found.len(), 2);
            let path = found[0].as_ref().expect("reachable");
            assert_eq!(path.len(), 6);
            assert_eq!(path[0], v(&g, 0, 0));
            assert_eq!(*path.last().unwrap(), v(&g, 3, 0));
            assert!(found[1].is_none(), "deadline 2 must be unreachable");
        }
    }

    #[test]
    fn acceptance_rejects_mutually_conflicting_paths() {
        let g = graph("...");
        let a = v(&g, 0, 0);
        let b = v(&g, 1, 0);
        let c = v(&g, 2, 0);
        let requests = vec![
            RepairRequest {
                agent: 0,
                start: a,
                goal: c,
                deadline: 2,
                rejoin_cursor: 4,
                lag: 0,
            },
            RepairRequest {
                agent: 1,
                start: c,
                goal: a,
                deadline: 2,
                rejoin_cursor: 4,
                lag: 0,
            },
        ];
        // Head-on paths through the 1-wide corridor: the second must lose.
        let found = vec![Some(vec![a, b, c]), Some(vec![c, b, a])];
        let accepted = accept_repairs(&requests, found);
        assert_eq!(accepted.len(), 1);
        assert_eq!(accepted[0].0, 0);
        assert_eq!(accepted[0].1.rejoin_cursor, 4);
    }

    #[test]
    fn disjoint_paths_are_both_accepted() {
        let g = graph("...\n...");
        let requests = vec![
            RepairRequest {
                agent: 0,
                start: v(&g, 0, 0),
                goal: v(&g, 2, 0),
                deadline: 2,
                rejoin_cursor: 2,
                lag: 0,
            },
            RepairRequest {
                agent: 1,
                start: v(&g, 0, 1),
                goal: v(&g, 2, 1),
                deadline: 2,
                rejoin_cursor: 2,
                lag: 0,
            },
        ];
        let found = plan_repairs(&g, &ReservationTable::new(g.vertex_count()), &requests, 2);
        let accepted = accept_repairs(&requests, found);
        assert_eq!(accepted.len(), 2);
    }
}
