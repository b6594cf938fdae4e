//! MAPF problem instances, solutions, and conflict validation.

use std::fmt;

use wsp_model::{FloorplanGraph, VertexId};

/// A MAPF instance: one start vertex and one *itinerary* (sequence of goal
/// vertices to visit in order) per agent.
///
/// Classic single-goal MAPF is the special case of one-element itineraries.
#[derive(Debug, Clone)]
pub struct MapfProblem<'g> {
    graph: &'g FloorplanGraph,
    starts: Vec<VertexId>,
    itineraries: Vec<Vec<VertexId>>,
    max_time: usize,
}

impl<'g> MapfProblem<'g> {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if `starts` and `itineraries` have different lengths.
    pub fn new(
        graph: &'g FloorplanGraph,
        starts: Vec<VertexId>,
        itineraries: Vec<Vec<VertexId>>,
    ) -> Self {
        assert_eq!(
            starts.len(),
            itineraries.len(),
            "one itinerary per agent required"
        );
        MapfProblem {
            graph,
            starts,
            itineraries,
            max_time: 4 * graph.vertex_count().max(64),
        }
    }

    /// Caps the per-agent search horizon (timesteps).
    pub fn with_max_time(mut self, max_time: usize) -> Self {
        self.max_time = max_time;
        self
    }

    /// The floorplan graph.
    pub fn graph(&self) -> &'g FloorplanGraph {
        self.graph
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.starts.len()
    }

    /// Start vertices, one per agent.
    pub fn starts(&self) -> &[VertexId] {
        &self.starts
    }

    /// Goal itineraries, one per agent.
    pub fn itineraries(&self) -> &[Vec<VertexId>] {
        &self.itineraries
    }

    /// The search horizon.
    pub fn max_time(&self) -> usize {
        self.max_time
    }
}

/// A conflict between two agents' paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// Both agents occupy `at` at time `t`.
    Vertex {
        /// First agent.
        a: usize,
        /// Second agent.
        b: usize,
        /// Timestep of the collision.
        t: usize,
        /// The shared vertex.
        at: VertexId,
    },
    /// The agents traverse the same edge in opposite directions during
    /// `t → t+1`.
    Edge {
        /// First agent.
        a: usize,
        /// Second agent.
        b: usize,
        /// Timestep the swap starts.
        t: usize,
        /// Vertex the first agent leaves.
        from: VertexId,
        /// Vertex the first agent enters.
        to: VertexId,
    },
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Conflict::Vertex { a, b, t, at } => {
                write!(f, "agents {a} and {b} collide at {at} at t={t}")
            }
            Conflict::Edge { a, b, t, .. } => {
                write!(f, "agents {a} and {b} swap at t={t}")
            }
        }
    }
}

/// A MAPF solution: one timed path per agent (`path[t]` is the agent's
/// vertex at timestep `t`). Shorter paths park at their final vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapfSolution {
    /// Per-agent vertex-per-timestep paths.
    pub paths: Vec<Vec<VertexId>>,
}

impl MapfSolution {
    /// The latest arrival time over all agents (makespan).
    pub fn makespan(&self) -> usize {
        self.paths
            .iter()
            .map(|p| p.len().saturating_sub(1))
            .max()
            .unwrap_or(0)
    }

    /// Sum over agents of individual path lengths (sum-of-costs).
    pub fn sum_of_costs(&self) -> usize {
        self.paths.iter().map(|p| p.len().saturating_sub(1)).sum()
    }

    /// The vertex of `agent` at time `t` (parking at the path end).
    pub fn position(&self, agent: usize, t: usize) -> VertexId {
        let path = &self.paths[agent];
        *path
            .get(t)
            .unwrap_or_else(|| path.last().expect("non-empty path"))
    }

    /// Finds every vertex and edge conflict, in time order (empty =
    /// valid). A move along a non-edge is not a conflict; debug builds
    /// assert that every move follows a graph edge.
    pub fn validate(&self, graph: &FloorplanGraph) -> Vec<Conflict> {
        for (a, path) in self.paths.iter().enumerate() {
            for (t, w) in path.windows(2).enumerate() {
                debug_assert!(
                    w[0] == w[1] || graph.has_edge(w[0], w[1]),
                    "agent {a} makes an illegal move at t={}",
                    t + 1
                );
            }
        }
        self.conflicts().collect()
    }

    /// The earliest conflict, if any (CBS branches on it).
    pub fn first_conflict(&self) -> Option<Conflict> {
        self.conflicts().next()
    }

    /// Every conflict, ordered by timestep, then by agent pair.
    fn conflicts(&self) -> impl Iterator<Item = Conflict> + '_ {
        let n = self.paths.len();
        (0..=self.makespan()).flat_map(move |t| {
            (0..n).flat_map(move |a| {
                (a + 1..n).filter_map(move |b| conflict_at(a, &self.paths[a], b, &self.paths[b], t))
            })
        })
    }
}

/// The conflict between agent `a` on timed path `pa` and agent `b` on
/// timed path `pb` at timestep `t`, if any: both on one vertex at `t`, or
/// swapping along one edge during `t - 1 → t` (reported with the swap's
/// start, `t - 1`). Paths park at their last vertex.
///
/// # Panics
///
/// Panics if either path is empty.
pub fn conflict_at(
    a: usize,
    pa: &[VertexId],
    b: usize,
    pb: &[VertexId],
    t: usize,
) -> Option<Conflict> {
    let at = |path: &[VertexId], t: usize| {
        *path
            .get(t)
            .unwrap_or_else(|| path.last().expect("non-empty path"))
    };
    let (va, vb) = (at(pa, t), at(pb, t));
    if va == vb {
        return Some(Conflict::Vertex { a, b, t, at: va });
    }
    if t > 0 {
        let (prev_a, prev_b) = (at(pa, t - 1), at(pb, t - 1));
        // `va != vb`, so a swap moves both agents.
        if va == prev_b && prev_a == vb {
            return Some(Conflict::Edge {
                a,
                b,
                t: t - 1,
                from: prev_a,
                to: va,
            });
        }
    }
    None
}

/// Errors from MAPF solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapfError {
    /// No conflict-free path exists within the search horizon.
    NoSolution {
        /// Agent that could not be routed (for sequential planners).
        agent: Option<usize>,
    },
    /// The solver exceeded its node or time budget.
    Timeout {
        /// High-level or low-level nodes expanded when the budget expired.
        expanded: usize,
    },
}

impl fmt::Display for MapfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapfError::NoSolution { agent: Some(a) } => {
                write!(f, "no conflict-free path for agent {a}")
            }
            MapfError::NoSolution { agent: None } => f.write_str("no conflict-free plan exists"),
            MapfError::Timeout { expanded } => {
                write!(f, "search budget exhausted after {expanded} expansions")
            }
        }
    }
}

impl std::error::Error for MapfError {}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::GridMap;

    fn line_graph() -> FloorplanGraph {
        FloorplanGraph::from_grid(&GridMap::from_ascii("....").unwrap())
    }

    #[test]
    fn solution_metrics() {
        let g = line_graph();
        let v: Vec<VertexId> = g.vertices().collect();
        let sol = MapfSolution {
            paths: vec![vec![v[0], v[1], v[2]], vec![v[3]]],
        };
        assert_eq!(sol.makespan(), 2);
        assert_eq!(sol.sum_of_costs(), 2);
        assert_eq!(sol.position(1, 5), v[3]); // parks at the end
    }

    #[test]
    fn vertex_conflict_detected() {
        let g = line_graph();
        let v: Vec<VertexId> = g.vertices().collect();
        let sol = MapfSolution {
            paths: vec![vec![v[0], v[1]], vec![v[2], v[1]]],
        };
        let conflicts = sol.validate(&g);
        assert!(matches!(conflicts[0], Conflict::Vertex { t: 1, .. }));
        assert!(sol.first_conflict().is_some());
    }

    #[test]
    fn edge_conflict_detected() {
        let g = line_graph();
        let v: Vec<VertexId> = g.vertices().collect();
        let sol = MapfSolution {
            paths: vec![vec![v[0], v[1]], vec![v[1], v[0]]],
        };
        let conflicts = sol.validate(&g);
        assert!(conflicts
            .iter()
            .any(|c| matches!(c, Conflict::Edge { t: 0, .. })));
    }

    #[test]
    fn parked_agent_conflicts() {
        let g = line_graph();
        let v: Vec<VertexId> = g.vertices().collect();
        // Agent 1 parks at v1; agent 0 drives through it at t=2.
        let sol = MapfSolution {
            paths: vec![vec![v[0], v[0], v[1]], vec![v[1]]],
        };
        assert!(!sol.validate(&g).is_empty());
    }

    #[test]
    fn conflict_at_parks_paths_and_stamps_swaps_at_their_start() {
        let g = line_graph();
        let v: Vec<VertexId> = g.vertices().collect();
        // Agent 1 parks at v1; agent 0 reaches it at t=2 and stays.
        let (pa, pb) = (vec![v[0], v[0], v[1]], vec![v[1]]);
        assert_eq!(conflict_at(0, &pa, 1, &pb, 1), None);
        for t in [2, 9] {
            assert_eq!(
                conflict_at(0, &pa, 1, &pb, t),
                Some(Conflict::Vertex {
                    a: 0,
                    b: 1,
                    t,
                    at: v[1]
                })
            );
        }
        // A head-on swap during 0 -> 1 is reported at its start.
        let (pa, pb) = (vec![v[2], v[3]], vec![v[3], v[2]]);
        assert_eq!(conflict_at(4, &pa, 7, &pb, 0), None);
        assert_eq!(
            conflict_at(4, &pa, 7, &pb, 1),
            Some(Conflict::Edge {
                a: 4,
                b: 7,
                t: 0,
                from: v[2],
                to: v[3]
            })
        );
    }

    #[test]
    fn conflict_free_solution_validates() {
        let g = line_graph();
        let v: Vec<VertexId> = g.vertices().collect();
        let sol = MapfSolution {
            paths: vec![vec![v[0], v[1]], vec![v[3], v[2]]],
        };
        assert!(sol.validate(&g).is_empty());
        assert_eq!(sol.first_conflict(), None);
    }
}
