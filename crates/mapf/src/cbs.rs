//! Conflict-Based Search: optimal CBS at `w = 1`, bounded-suboptimal focal
//! ECBS(w) at `w > 1` (the paper's baseline family).

use std::collections::BTreeSet;

use crate::astar::{Constraints, PlanQuery, SpaceTimeAstar};
use crate::{Conflict, MapfError, MapfProblem, MapfSolution};

/// The CBS/ECBS planner for single-goal MAPF instances.
///
/// High level: best-first on the sum-of-f-mins lower bound; with `w > 1` a
/// focal layer picks the node with the fewest conflicts among those within
/// `w ×` the best lower bound. Low level: space-time A* with the matching
/// focal weight, counting conflicts against the node's other paths.
#[derive(Debug, Clone)]
pub struct CbsPlanner {
    /// Suboptimality factor `w ≥ 1` (1 = optimal CBS).
    pub weight: f64,
    /// Budget on high-level node expansions.
    pub max_expansions: usize,
    /// Low-level search horizon.
    pub max_time: usize,
}

impl Default for CbsPlanner {
    fn default() -> Self {
        CbsPlanner {
            weight: 1.0,
            max_expansions: 20_000,
            max_time: 512,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    constraints: Vec<Constraints>,
    paths: Vec<Vec<wsp_model::VertexId>>,
    /// Per-agent low-level lower bounds.
    f_mins: Vec<usize>,
    conflicts: usize,
}

impl Node {
    /// Sum-of-costs of the node's paths (≥ its lower bound).
    fn cost(&self) -> usize {
        self.paths.iter().map(|p| p.len().saturating_sub(1)).sum()
    }
    fn lower_bound(&self) -> usize {
        self.f_mins.iter().sum()
    }
}

impl CbsPlanner {
    /// Solves a single-goal MAPF instance.
    ///
    /// # Panics
    ///
    /// Panics if any agent has an itinerary with more or fewer than one
    /// goal (use [`PrioritizedPlanner`](crate::PrioritizedPlanner) or
    /// [`IteratedPlanner`](crate::IteratedPlanner) for multi-goal routing).
    ///
    /// # Errors
    ///
    /// [`MapfError::NoSolution`] if some agent cannot reach its goal under
    /// any constraints; [`MapfError::Timeout`] if the expansion budget runs
    /// out.
    pub fn solve(&self, problem: &MapfProblem<'_>) -> Result<MapfSolution, MapfError> {
        let n = problem.agent_count();
        let goals: Vec<wsp_model::VertexId> = problem
            .itineraries()
            .iter()
            .map(|it| {
                assert_eq!(it.len(), 1, "CBS handles single-goal itineraries");
                it[0]
            })
            .collect();

        let astar = SpaceTimeAstar {
            max_time: self.max_time,
            focal_weight: self.weight,
        };

        // One search scratch for every low-level replan of this solve.
        let mut scratch = crate::SearchScratch::new();

        // Root node.
        let mut root = Node {
            constraints: vec![Constraints::default(); n],
            paths: vec![Vec::new(); n],
            f_mins: vec![0; n],
            conflicts: 0,
        };
        for (a, &goal) in goals.iter().enumerate() {
            let seg = astar
                .plan_with_scratch(
                    problem.graph(),
                    &PlanQuery {
                        start: problem.starts()[a],
                        start_time: 0,
                        goal,
                        reservations: None,
                        constraints: Some(&root.constraints[a]),
                        conflict_paths: Some(&root.paths),
                        require_parkable: false,
                    },
                    &mut scratch,
                )
                .ok_or(MapfError::NoSolution { agent: Some(a) })?;
            root.paths[a] = seg.path;
            root.f_mins[a] = seg.f_min;
        }
        root.conflicts = MapfSolution {
            paths: root.paths.clone(),
        }
        .validate(problem.graph())
        .len();

        // Ordered by (lower bound, conflicts, id) for focal scans.
        let mut open: BTreeSet<(usize, usize, u64)> = BTreeSet::new();
        let mut arena: Vec<Node> = Vec::new();
        let push = |open: &mut BTreeSet<(usize, usize, u64)>, arena: &mut Vec<Node>, node: Node| {
            let id = arena.len() as u64;
            open.insert((node.lower_bound(), node.conflicts, id));
            arena.push(node);
        };
        push(&mut open, &mut arena, root);

        let mut expanded = 0usize;
        while let Some(&first) = open.first() {
            if expanded >= self.max_expansions {
                return Err(MapfError::Timeout { expanded });
            }
            expanded += 1;

            // Focal selection on the high level.
            let lb_min = first.0;
            let bound = if self.weight > 1.0 {
                (self.weight * lb_min as f64).floor() as usize
            } else {
                lb_min
            };
            let chosen = *open
                .range(..=(bound, usize::MAX, u64::MAX))
                .min_by_key(|&&(lb, c, _)| (c, lb))
                .expect("first element is always in range");
            open.remove(&chosen);
            let node = arena[chosen.2 as usize].clone();
            debug_assert!(node.cost() >= node.lower_bound());

            let solution = MapfSolution {
                paths: node.paths.clone(),
            };
            let Some(conflict) = solution.first_conflict() else {
                return Ok(solution);
            };

            // Branch: constrain each conflicting agent in turn.
            let (a, b) = match conflict {
                Conflict::Vertex { a, b, .. } | Conflict::Edge { a, b, .. } => (a, b),
            };
            for agent in [a, b] {
                let mut child = node.clone();
                match conflict {
                    Conflict::Vertex { t, at, .. } => {
                        child.constraints[agent].forbid_vertex(at, t);
                    }
                    Conflict::Edge { t, from, to, .. } => {
                        if agent == a {
                            child.constraints[agent].forbid_edge(from, to, t);
                        } else {
                            child.constraints[agent].forbid_edge(to, from, t);
                        }
                    }
                }
                // Replan just that agent against the sibling paths.
                let others: Vec<Vec<wsp_model::VertexId>> = child
                    .paths
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != agent)
                    .map(|(_, p)| p.clone())
                    .collect();
                let Some(seg) = astar.plan_with_scratch(
                    problem.graph(),
                    &PlanQuery {
                        start: problem.starts()[agent],
                        start_time: 0,
                        goal: goals[agent],
                        reservations: None,
                        constraints: Some(&child.constraints[agent]),
                        conflict_paths: Some(&others),
                        require_parkable: false,
                    },
                    &mut scratch,
                ) else {
                    continue; // this branch is a dead end
                };
                child.paths[agent] = seg.path;
                child.f_mins[agent] = seg.f_min;
                child.conflicts = MapfSolution {
                    paths: child.paths.clone(),
                }
                .validate(problem.graph())
                .len();
                push(&mut open, &mut arena, child);
            }
        }
        Err(MapfError::NoSolution { agent: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::{FloorplanGraph, GridMap, VertexId};

    fn graph(art: &str) -> FloorplanGraph {
        FloorplanGraph::from_grid(&GridMap::from_ascii(art).unwrap())
    }

    fn v(g: &FloorplanGraph, x: u32, y: u32) -> VertexId {
        g.vertex_at((x, y).into()).unwrap()
    }

    #[test]
    fn head_on_conflict_resolved_optimally() {
        // Two agents crossing on a corridor with one passing bay.
        //   y=1: .....
        //   y=0: ..x..   -> wait, keep it open instead:
        let g = graph(".....\n.....");
        let p = MapfProblem::new(
            &g,
            vec![v(&g, 0, 0), v(&g, 4, 0)],
            vec![vec![v(&g, 4, 0)], vec![v(&g, 0, 0)]],
        );
        let sol = CbsPlanner::default().solve(&p).unwrap();
        assert!(sol.validate(&g).is_empty());
        // Optimal sum of costs: one agent detours via row 1 (4 + 6 = 10)
        // or both swap rows partially; CBS guarantees the optimum, which
        // for this corridor is 10.
        assert_eq!(sol.sum_of_costs(), 10);
    }

    #[test]
    fn narrow_swap_is_unsolvable() {
        let g = graph("...");
        let p = MapfProblem::new(
            &g,
            vec![v(&g, 0, 0), v(&g, 2, 0)],
            vec![vec![v(&g, 2, 0)], vec![v(&g, 0, 0)]],
        );
        let out = CbsPlanner {
            max_expansions: 2_000,
            max_time: 32,
            ..CbsPlanner::default()
        }
        .solve(&p);
        assert!(out.is_err());
    }

    #[test]
    fn ecbs_solves_with_bounded_cost() {
        let g = graph(".....\n.....\n.....");
        let starts = vec![v(&g, 0, 0), v(&g, 4, 0), v(&g, 0, 2), v(&g, 4, 2)];
        let goals = vec![
            vec![v(&g, 4, 2)],
            vec![v(&g, 0, 2)],
            vec![v(&g, 4, 0)],
            vec![v(&g, 0, 0)],
        ];
        let p = MapfProblem::new(&g, starts.clone(), goals.clone());
        let optimal = CbsPlanner::default().solve(&p).unwrap();
        let ecbs = CbsPlanner {
            weight: 1.5,
            ..CbsPlanner::default()
        }
        .solve(&p)
        .unwrap();
        assert!(ecbs.validate(&g).is_empty());
        assert!(
            (ecbs.sum_of_costs() as f64) <= 1.5 * optimal.sum_of_costs() as f64 + 1e-9,
            "ecbs {} vs optimal {}",
            ecbs.sum_of_costs(),
            optimal.sum_of_costs()
        );
    }

    #[test]
    fn expansion_budget_reported() {
        // Force a timeout with a zero-expansion budget on a conflicting
        // instance.
        let g = graph(".....\n.....");
        let p = MapfProblem::new(
            &g,
            vec![v(&g, 0, 0), v(&g, 4, 0)],
            vec![vec![v(&g, 4, 0)], vec![v(&g, 0, 0)]],
        );
        let out = CbsPlanner {
            max_expansions: 0,
            ..CbsPlanner::default()
        }
        .solve(&p);
        assert!(matches!(out, Err(MapfError::Timeout { .. })));
    }

    #[test]
    #[should_panic(expected = "single-goal")]
    fn multi_goal_panics() {
        let g = graph("...");
        let p = MapfProblem::new(&g, vec![v(&g, 0, 0)], vec![vec![v(&g, 1, 0), v(&g, 2, 0)]]);
        let _ = CbsPlanner::default().solve(&p);
    }
}
