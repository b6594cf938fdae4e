//! Flow-to-cycle decomposition via the commodity-switching graph.
//!
//! The paper (§IV-E, Properties 4.2/4.3) pairs loaded paths with unloaded
//! paths through a bijection on endpoints; this module uses a constructive
//! alternative that needs no pairing argument. Build a multigraph whose
//! nodes are `(component, commodity)` pairs with
//!
//! * movement arcs `(Cᵢ,k) → (Cⱼ,k)` of multiplicity `f_{i,j,k}`,
//! * pickup arcs `(Cᵢ,ρ₀) → (Cᵢ,ρₖ)` of multiplicity `f_in_{i,k}`,
//! * drop-off arcs `(Cᵢ,ρₖ) → (Cᵢ,ρ₀)` of multiplicity `f_out_{i,k}`.
//!
//! The §IV-D conservation constraints make this graph Eulerian-balanced, so
//! it decomposes into cycles; each cycle read back over the components is
//! exactly an agent cycle, with layer switches becoming pickup/drop-off
//! actions.

use std::collections::BTreeMap;

use crate::cycles::{AgentCycle, AgentCycleSet, CycleAction, CycleStep};
use crate::flowset::{AgentFlowSet, Commodity};
use crate::FlowError;

use wsp_traffic::ComponentId;

/// A node of the commodity-switching graph.
type Node = (ComponentId, Commodity);

/// One arc of the commodity-switching graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arc {
    /// Move to the next component, keeping the commodity.
    Move(Node),
    /// Switch layer in place: pick up (unloaded → loaded).
    Pickup(Node),
    /// Switch layer in place: drop off (loaded → unloaded).
    Dropoff(Node),
}

impl Arc {
    fn target(self) -> Node {
        match self {
            Arc::Move(n) | Arc::Pickup(n) | Arc::Dropoff(n) => n,
        }
    }
}

/// Decomposes a (balanced) agent flow set into agent cycles.
pub(crate) fn decompose(flow: &AgentFlowSet) -> Result<AgentCycleSet, FlowError> {
    // Build adjacency with expanded multiplicities.
    let mut out_arcs: BTreeMap<Node, Vec<Arc>> = BTreeMap::new();
    let mut in_degree: BTreeMap<Node, u64> = BTreeMap::new();
    let mut push = |from: Node, arc: Arc, count: u64| {
        let entry = out_arcs.entry(from).or_default();
        for _ in 0..count {
            entry.push(arc);
        }
        *in_degree.entry(arc.target()).or_insert(0) += count;
        in_degree.entry(from).or_insert(0);
    };
    for (i, j, k, n) in flow.edge_flows() {
        push((i, k), Arc::Move((j, k)), n);
    }
    for (c, p, n) in flow.pickups() {
        push(
            (c, Commodity::Unloaded),
            Arc::Pickup((c, Commodity::Loaded(p))),
            n,
        );
    }
    for (c, p, n) in flow.dropoffs() {
        push(
            (c, Commodity::Loaded(p)),
            Arc::Dropoff((c, Commodity::Unloaded)),
            n,
        );
    }

    // Balance check (holds for every flow set passing §IV-D validation).
    for (node, &indeg) in &in_degree {
        let outdeg = out_arcs.get(node).map_or(0, |v| v.len() as u64);
        if outdeg != indeg {
            return Err(FlowError::DecompositionStuck {
                detail: format!(
                    "node ({}, {}) has in-degree {indeg} but out-degree {outdeg}",
                    node.0, node.1
                ),
            });
        }
    }

    // Loop-extracting Euler walk: keep the current path simple; every time
    // the walk would revisit a node on the path, cut the loop out and emit
    // it as one agent cycle.
    let mut cursors: BTreeMap<Node, usize> = BTreeMap::new();
    let mut cycles_arcs: Vec<Vec<(Node, Arc)>> = Vec::new();
    let starts: Vec<Node> = out_arcs.keys().copied().collect();
    for start in starts {
        loop {
            // Path of (node, outgoing arc taken from that node).
            let mut path: Vec<(Node, Arc)> = Vec::new();
            let mut on_path: BTreeMap<Node, usize> = BTreeMap::new();
            let mut cur = start;
            loop {
                let cursor = cursors.entry(cur).or_insert(0);
                let arcs = out_arcs.get(&cur).map(Vec::as_slice).unwrap_or(&[]);
                if *cursor >= arcs.len() {
                    break; // `cur` exhausted
                }
                let arc = arcs[*cursor];
                *cursor += 1;
                let next = arc.target();
                if let Some(&pos) = on_path.get(&next) {
                    // Found a loop: path[pos..] plus this arc closes at `next`.
                    let mut loop_arcs: Vec<(Node, Arc)> = path.split_off(pos);
                    for (n, _) in &loop_arcs {
                        on_path.remove(n);
                    }
                    loop_arcs.push((cur, arc));
                    cycles_arcs.push(loop_arcs);
                    cur = next;
                    // `next` may equal a node still on the path prefix
                    // (it was just removed from on_path along with the loop);
                    // re-register it as the walking head.
                    if next == start && path.is_empty() {
                        // Back at an empty path: restart the outer loop so
                        // the start node can spin off further cycles.
                        break;
                    }
                    on_path.insert(cur, path.len());
                    // Note: if cur is the head we continue walking from it.
                    continue;
                }
                debug_assert_ne!(
                    next, cur,
                    "no self-loops: moves change component, switches change layer"
                );
                on_path.insert(cur, path.len());
                path.push((cur, arc));
                cur = next;
            }
            if !path.is_empty() {
                // The walk got stuck with unconsumed path arcs: the graph
                // was not balanced after all.
                return Err(FlowError::DecompositionStuck {
                    detail: format!(
                        "walk from ({}, {}) stranded {} arcs",
                        start.0,
                        start.1,
                        path.len()
                    ),
                });
            }
            // Start node exhausted?
            let arcs = out_arcs.get(&start).map(Vec::as_slice).unwrap_or(&[]);
            if cursors.get(&start).copied().unwrap_or(0) >= arcs.len() {
                break;
            }
        }
    }

    // Convert arc loops into component-level agent cycles.
    let mut cycles = Vec::with_capacity(cycles_arcs.len());
    for loop_arcs in cycles_arcs {
        cycles.push(arcs_to_cycle(&loop_arcs)?);
    }

    // Sanity: every unit of movement flow became exactly one cycle step.
    let steps: u64 = cycles.iter().map(|c: &AgentCycle| c.len() as u64).sum();
    debug_assert_eq!(steps, flow.total_edge_flow());

    Ok(AgentCycleSet::new(cycles, flow.cycle_time()))
}

/// Reads an arc loop back as an agent cycle: movement arcs emit a step for
/// the component being left; layer switches set that step's action.
fn arcs_to_cycle(loop_arcs: &[(Node, Arc)]) -> Result<AgentCycle, FlowError> {
    let mut steps: Vec<CycleStep> = Vec::new();
    let (start_node, _) = loop_arcs[0];
    let mut cur: ComponentId = start_node.0;
    let mut action = CycleAction::Travel;
    for &(from, arc) in loop_arcs {
        debug_assert_eq!(from.0, cur, "arc chain is contiguous");
        match arc {
            Arc::Pickup(to) => {
                if action != CycleAction::Travel {
                    return Err(FlowError::DecompositionStuck {
                        detail: format!("two layer switches at {cur} in one visit"),
                    });
                }
                let Commodity::Loaded(p) = to.1 else {
                    unreachable!("pickup targets a loaded layer")
                };
                action = CycleAction::Pickup(p);
            }
            Arc::Dropoff(_) => {
                if action != CycleAction::Travel {
                    return Err(FlowError::DecompositionStuck {
                        detail: format!("two layer switches at {cur} in one visit"),
                    });
                }
                let Commodity::Loaded(p) = from.1 else {
                    unreachable!("drop-off leaves a loaded layer")
                };
                action = CycleAction::Dropoff(p);
            }
            Arc::Move(to) => {
                steps.push(CycleStep {
                    component: cur,
                    action,
                });
                cur = to.0;
                action = CycleAction::Travel;
            }
        }
    }
    // A trailing layer switch belongs to the first visit (the loop closes on
    // the same component).
    if action != CycleAction::Travel {
        match steps.first_mut() {
            Some(first) if first.component == cur && first.action == CycleAction::Travel => {
                first.action = action;
            }
            _ => {
                return Err(FlowError::DecompositionStuck {
                    detail: format!("dangling layer switch at {cur}"),
                })
            }
        }
    }
    if steps.is_empty() {
        return Err(FlowError::DecompositionStuck {
            detail: format!("zero-movement loop at {cur}"),
        });
    }
    let cycle = AgentCycle::new(steps);
    if let Some(problem) = cycle.carry_inconsistency() {
        return Err(FlowError::DecompositionStuck {
            detail: format!("decomposed cycle inconsistent: {problem}"),
        });
    }
    Ok(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::ProductId;

    fn c(i: u32) -> ComponentId {
        ComponentId(i)
    }
    fn p(i: u32) -> ProductId {
        ProductId(i)
    }

    /// Ring C0 -> C1 -> C2 -> C3 -> C0; pickup at C0, drop at C2.
    fn simple_ring_flow() -> AgentFlowSet {
        let mut fs = AgentFlowSet::new(8, 10);
        let k = Commodity::Loaded(p(0));
        fs.add_pickup(c(0), p(0), 1);
        fs.add_edge_flow(c(0), c(1), k, 1);
        fs.add_edge_flow(c(1), c(2), k, 1);
        fs.add_dropoff(c(2), p(0), 1);
        fs.add_edge_flow(c(2), c(3), Commodity::Unloaded, 1);
        fs.add_edge_flow(c(3), c(0), Commodity::Unloaded, 1);
        fs
    }

    #[test]
    fn simple_ring_decomposes_to_one_cycle() {
        let set = decompose(&simple_ring_flow()).unwrap();
        assert_eq!(set.cycles().len(), 1);
        let cycle = &set.cycles()[0];
        assert_eq!(cycle.len(), 4);
        assert_eq!(cycle.deliveries_per_period(), 1);
        assert_eq!(cycle.carry_inconsistency(), None);
        assert_eq!(set.cycle_time(), 8);
        assert_eq!(set.total_agents(), 4);
    }

    #[test]
    fn doubled_flow_gives_two_cycles() {
        let mut fs = simple_ring_flow();
        // Double every multiplicity.
        let fs2 = {
            let mut out = AgentFlowSet::new(fs.cycle_time(), fs.periods());
            for (i, j, k, n) in fs.edge_flows() {
                out.add_edge_flow(i, j, k, 2 * n);
            }
            for (ci, pi, n) in fs.pickups() {
                out.add_pickup(ci, pi, 2 * n);
            }
            for (ci, pi, n) in fs.dropoffs() {
                out.add_dropoff(ci, pi, 2 * n);
            }
            out
        };
        fs = fs2;
        let set = decompose(&fs).unwrap();
        assert_eq!(set.total_agents(), 8);
        assert_eq!(set.deliveries_per_period(), 2);
        // Loop extraction yields two identical 4-cycles.
        assert_eq!(set.cycles().len(), 2);
    }

    #[test]
    fn two_products_two_rows() {
        // C0 picks p0, C1 picks p1, both drop at C2, return via C3.
        let mut fs = AgentFlowSet::new(6, 4);
        fs.add_pickup(c(0), p(0), 1);
        fs.add_edge_flow(c(0), c(1), Commodity::Loaded(p(0)), 1);
        fs.add_edge_flow(c(1), c(2), Commodity::Loaded(p(0)), 1);
        fs.add_pickup(c(1), p(1), 1);
        fs.add_edge_flow(c(1), c(2), Commodity::Loaded(p(1)), 1);
        fs.add_dropoff(c(2), p(0), 1);
        fs.add_dropoff(c(2), p(1), 1);
        fs.add_edge_flow(c(2), c(3), Commodity::Unloaded, 2);
        fs.add_edge_flow(c(3), c(0), Commodity::Unloaded, 1);
        fs.add_edge_flow(c(3), c(1), Commodity::Unloaded, 1);
        let set = decompose(&fs).unwrap();
        assert_eq!(set.deliveries_per_period(), 2);
        let delivered: Vec<ProductId> = set
            .cycles()
            .iter()
            .flat_map(|cy| cy.delivered_products())
            .collect();
        assert!(delivered.contains(&p(0)));
        assert!(delivered.contains(&p(1)));
        for cy in set.cycles() {
            assert_eq!(cy.carry_inconsistency(), None);
        }
    }

    #[test]
    fn pure_unloaded_circulation_becomes_travel_cycle() {
        let mut fs = AgentFlowSet::new(4, 2);
        fs.add_edge_flow(c(0), c(1), Commodity::Unloaded, 1);
        fs.add_edge_flow(c(1), c(0), Commodity::Unloaded, 1);
        let set = decompose(&fs).unwrap();
        assert_eq!(set.cycles().len(), 1);
        assert_eq!(set.deliveries_per_period(), 0);
        assert_eq!(set.total_agents(), 2);
    }

    #[test]
    fn unbalanced_flow_rejected() {
        let mut fs = AgentFlowSet::new(4, 2);
        fs.add_edge_flow(c(0), c(1), Commodity::Unloaded, 1);
        // No return arc: node (C1, ρ0) has in-degree 1, out-degree 0.
        let err = decompose(&fs).unwrap_err();
        assert!(matches!(err, FlowError::DecompositionStuck { .. }));
    }

    #[test]
    fn empty_flow_decomposes_to_nothing() {
        let fs = AgentFlowSet::new(4, 2);
        let set = decompose(&fs).unwrap();
        assert!(set.cycles().is_empty());
        assert_eq!(set.total_agents(), 0);
    }

    #[test]
    fn figure_eight_extracts_two_loops() {
        // Two unloaded loops sharing C0: C0->C1->C0 and C0->C2->C0.
        let mut fs = AgentFlowSet::new(4, 2);
        fs.add_edge_flow(c(0), c(1), Commodity::Unloaded, 1);
        fs.add_edge_flow(c(1), c(0), Commodity::Unloaded, 1);
        fs.add_edge_flow(c(0), c(2), Commodity::Unloaded, 1);
        fs.add_edge_flow(c(2), c(0), Commodity::Unloaded, 1);
        let set = decompose(&fs).unwrap();
        assert_eq!(set.cycles().len(), 2);
        assert_eq!(set.total_agents(), 4);
        assert_eq!(set.occupancy(c(0)), 2);
    }
}
