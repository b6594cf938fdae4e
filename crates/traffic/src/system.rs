//! Traffic systems: validated compositions of components.

use std::fmt;

use wsp_model::{VertexId, Warehouse};

use crate::component::{Component, ComponentId, ComponentKind};
use crate::scc::strongly_connected_components;

/// Sentinel for "no owning component" in the dense owner tables.
const NO_COMPONENT: u32 = wsp_model::NO_INDEX;

/// Ways a traffic-system design can violate the composition rules of §IV-A.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrafficError {
    /// A component has no vertices.
    EmptyComponent {
        /// The offending component.
        component: ComponentId,
    },
    /// A component visits the same vertex twice (paths must be simple).
    RepeatedVertex {
        /// The offending component.
        component: ComponentId,
        /// The repeated vertex.
        vertex: VertexId,
    },
    /// A component references a vertex id outside the warehouse's
    /// floorplan graph (e.g. built against a different warehouse).
    UnknownVertex {
        /// The offending component.
        component: ComponentId,
        /// The out-of-range vertex id.
        vertex: VertexId,
    },
    /// A vertex belongs to two components (components must be disjoint).
    VertexShared {
        /// The vertex in both components.
        vertex: VertexId,
        /// First owner.
        first: ComponentId,
        /// Second owner.
        second: ComponentId,
    },
    /// Consecutive path vertices are not adjacent in the floorplan graph.
    BrokenPath {
        /// The offending component.
        component: ComponentId,
        /// Index of the first vertex of the non-adjacent pair.
        at: usize,
    },
    /// A component contains both shelf-access and station vertices.
    MixedKind {
        /// The offending component.
        component: ComponentId,
    },
    /// A shelf-access or station vertex is not covered by any component.
    UncoveredVertex {
        /// The uncovered vertex.
        vertex: VertexId,
        /// `true` if it is a station vertex, `false` for shelf access.
        is_station: bool,
    },
    /// A component has fewer than 1 or more than 2 inlets/outlets.
    BadDegree {
        /// The offending component.
        component: ComponentId,
        /// Number of inlets.
        inlets: usize,
        /// Number of outlets.
        outlets: usize,
    },
    /// The floorplan has no edge from an inlet's exit to the component's
    /// entry.
    MissingEdge {
        /// Upstream component.
        from: ComponentId,
        /// Downstream component.
        to: ComponentId,
    },
    /// The traffic-system graph is not strongly connected.
    NotStronglyConnected {
        /// Number of strongly connected components found.
        scc_count: usize,
    },
    /// A connection references a component id that was never added.
    UnknownComponent {
        /// The dangling id.
        component: ComponentId,
    },
    /// The same `from → to` connection is declared more than once (the
    /// traffic-system graph has at most one arc per ordered pair).
    DuplicateConnection {
        /// Upstream component.
        from: ComponentId,
        /// Downstream component.
        to: ComponentId,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::EmptyComponent { component } => {
                write!(f, "{component} has no vertices")
            }
            TrafficError::RepeatedVertex { component, vertex } => {
                write!(f, "{component} visits {vertex} twice")
            }
            TrafficError::UnknownVertex { component, vertex } => {
                write!(
                    f,
                    "{component} references {vertex}, outside the floorplan graph"
                )
            }
            TrafficError::VertexShared {
                vertex,
                first,
                second,
            } => write!(f, "{vertex} belongs to both {first} and {second}"),
            TrafficError::BrokenPath { component, at } => {
                write!(f, "{component} path breaks adjacency at index {at}")
            }
            TrafficError::MixedKind { component } => write!(
                f,
                "{component} contains both shelf-access and station vertices"
            ),
            TrafficError::UncoveredVertex { vertex, is_station } => write!(
                f,
                "{} vertex {vertex} is not covered by any component",
                if *is_station {
                    "station"
                } else {
                    "shelf-access"
                }
            ),
            TrafficError::BadDegree {
                component,
                inlets,
                outlets,
            } => write!(
                f,
                "{component} has {inlets} inlets and {outlets} outlets (each must be 1 or 2)"
            ),
            TrafficError::MissingEdge { from, to } => {
                write!(f, "no floorplan edge from exit of {from} to entry of {to}")
            }
            TrafficError::NotStronglyConnected { scc_count } => write!(
                f,
                "traffic-system graph has {scc_count} strongly connected components (need 1)"
            ),
            TrafficError::UnknownComponent { component } => {
                write!(f, "connection references unknown {component}")
            }
            TrafficError::DuplicateConnection { from, to } => {
                write!(f, "connection {from} -> {to} is declared more than once")
            }
        }
    }
}

impl std::error::Error for TrafficError {}

/// Incrementally assembles a traffic system, then validates it against a
/// warehouse with [`TrafficSystemBuilder::build`].
///
/// See the [crate docs](crate) for a complete example.
#[derive(Debug, Clone, Default)]
pub struct TrafficSystemBuilder {
    paths: Vec<Vec<VertexId>>,
    connections: Vec<(ComponentId, ComponentId)>,
}

impl TrafficSystemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TrafficSystemBuilder::default()
    }

    /// Adds a component with the given vertex path (entry first); returns
    /// its id.
    pub fn add_component(&mut self, path: Vec<VertexId>) -> ComponentId {
        let id = ComponentId(self.paths.len() as u32);
        self.paths.push(path);
        id
    }

    /// Adds a component from grid coordinates, looking vertices up in the
    /// warehouse's floorplan graph.
    ///
    /// # Errors
    ///
    /// Returns [`wsp_model::ModelError::OutOfBounds`] if a coordinate has no
    /// traversable vertex.
    pub fn add_component_coords(
        &mut self,
        warehouse: &Warehouse,
        coords: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<ComponentId, wsp_model::ModelError> {
        let grid = warehouse.grid();
        let mut path = Vec::new();
        for (x, y) in coords {
            let at = wsp_model::Coord::new(x, y);
            let v = warehouse
                .graph()
                .vertex_at(at)
                .ok_or(wsp_model::ModelError::OutOfBounds {
                    at,
                    width: grid.width(),
                    height: grid.height(),
                })?;
            path.push(v);
        }
        Ok(self.add_component(path))
    }

    /// Declares `from` an inlet of `to` (agents may move `from → to`).
    pub fn connect(&mut self, from: ComponentId, to: ComponentId) -> &mut Self {
        self.connections.push((from, to));
        self
    }

    /// Number of components added so far.
    pub fn component_count(&self) -> usize {
        self.paths.len()
    }

    /// Validates the design against `warehouse` and produces the traffic
    /// system.
    ///
    /// # Errors
    ///
    /// Returns the first [`TrafficError`] found; use
    /// [`TrafficSystemBuilder::validate_all`] to list every violation.
    pub fn build(&self, warehouse: &Warehouse) -> Result<TrafficSystem, TrafficError> {
        match self.try_build(warehouse) {
            Ok(ts) => Ok(ts),
            Err(mut errs) => Err(errs.remove(0)),
        }
    }

    /// Lists *all* rule violations in the current design (empty = valid).
    pub fn validate_all(&self, warehouse: &Warehouse) -> Vec<TrafficError> {
        match self.try_build(warehouse) {
            Ok(_) => Vec::new(),
            Err(errs) => errs,
        }
    }

    fn try_build(&self, warehouse: &Warehouse) -> Result<TrafficSystem, Vec<TrafficError>> {
        let mut errors = Vec::new();
        let graph = warehouse.graph();
        let n = self.paths.len();

        // Rule: simple, disjoint, adjacent paths. The owner and offset
        // tables are the dense per-vertex maps the built system ships
        // with; the owner table doubles as the duplicate detector here.
        let mut owner: Vec<u32> = vec![NO_COMPONENT; graph.vertex_count()];
        let mut offset: Vec<u32> = vec![0; graph.vertex_count()];
        for (i, path) in self.paths.iter().enumerate() {
            let id = ComponentId(i as u32);
            if path.is_empty() {
                errors.push(TrafficError::EmptyComponent { component: id });
                continue;
            }
            for (k, &v) in path.iter().enumerate() {
                if v.index() >= owner.len() {
                    errors.push(TrafficError::UnknownVertex {
                        component: id,
                        vertex: v,
                    });
                    continue;
                }
                offset[v.index()] = k as u32;
                match owner[v.index()] {
                    NO_COMPONENT => owner[v.index()] = id.0,
                    prev if prev == id.0 => errors.push(TrafficError::RepeatedVertex {
                        component: id,
                        vertex: v,
                    }),
                    prev => errors.push(TrafficError::VertexShared {
                        vertex: v,
                        first: ComponentId(prev),
                        second: id,
                    }),
                }
            }
            for (k, w) in path.windows(2).enumerate() {
                if !graph.has_edge(w[0], w[1]) {
                    errors.push(TrafficError::BrokenPath {
                        component: id,
                        at: k,
                    });
                }
            }
            // Rule: no mixed shelf-access + station content.
            let has_shelf = path.iter().any(|&v| warehouse.is_shelf_access(v));
            let has_station = path.iter().any(|&v| warehouse.is_station(v));
            if has_shelf && has_station {
                errors.push(TrafficError::MixedKind { component: id });
            }
        }

        // Rule: coverage of every shelf-access and station vertex.
        for &v in warehouse.shelf_access() {
            if owner[v.index()] == NO_COMPONENT {
                errors.push(TrafficError::UncoveredVertex {
                    vertex: v,
                    is_station: false,
                });
            }
        }
        for &v in warehouse.stations() {
            if owner[v.index()] == NO_COMPONENT {
                errors.push(TrafficError::UncoveredVertex {
                    vertex: v,
                    is_station: true,
                });
            }
        }

        // Connections.
        let mut inlets: Vec<Vec<ComponentId>> = vec![Vec::new(); n];
        let mut outlets: Vec<Vec<ComponentId>> = vec![Vec::new(); n];
        for &(from, to) in &self.connections {
            if from.index() >= n {
                errors.push(TrafficError::UnknownComponent { component: from });
                continue;
            }
            if to.index() >= n {
                errors.push(TrafficError::UnknownComponent { component: to });
                continue;
            }
            if outlets[from.index()].contains(&to) {
                errors.push(TrafficError::DuplicateConnection { from, to });
                continue;
            }
            outlets[from.index()].push(to);
            inlets[to.index()].push(from);
        }

        // Rule: inlet/outlet counts and edge existence.
        for i in 0..n {
            let id = ComponentId(i as u32);
            let (ni, no) = (inlets[i].len(), outlets[i].len());
            if !(1..=2).contains(&ni) || !(1..=2).contains(&no) {
                errors.push(TrafficError::BadDegree {
                    component: id,
                    inlets: ni,
                    outlets: no,
                });
            }
            if self.paths[i].is_empty() {
                continue;
            }
            let entry = self.paths[i][0];
            for &from in &inlets[i] {
                let Some(path) = self.paths.get(from.index()) else {
                    continue;
                };
                let Some(&exit) = path.last() else { continue };
                if !graph.has_edge(exit, entry) {
                    errors.push(TrafficError::MissingEdge { from, to: id });
                }
            }
        }

        // Rule: strong connectivity.
        if n > 0 {
            let adj: Vec<Vec<usize>> = outlets
                .iter()
                .map(|outs| outs.iter().map(|c| c.index()).collect())
                .collect();
            let sccs = strongly_connected_components(&adj);
            if sccs.len() != 1 {
                errors.push(TrafficError::NotStronglyConnected {
                    scc_count: sccs.len(),
                });
            }
        }

        if !errors.is_empty() {
            return Err(errors);
        }

        let components: Vec<Component> = self
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| Component::classify(ComponentId(i as u32), p.clone(), warehouse))
            .collect();
        Ok(TrafficSystem {
            components,
            inlets,
            outlets,
            owner,
            offset,
        })
    }
}

/// A validated traffic system: disjoint one-way road components over a
/// warehouse floorplan, with a strongly connected component graph.
///
/// Produced by [`TrafficSystemBuilder::build`]; all §IV-A composition rules
/// hold by construction.
///
/// # Examples
///
/// ```
/// use wsp_model::{Direction, GridMap, Warehouse};
/// use wsp_traffic::design_perimeter_loop;
///
/// let grid = GridMap::from_ascii("...\n.#.\n.@.")?;
/// let warehouse =
///     Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West])?;
/// let ts = design_perimeter_loop(&warehouse, 3)?;
/// assert!(ts.is_strongly_connected());
/// assert!(ts.station_queues().count() >= 1);
/// assert_eq!(ts.cycle_time(), 2 * ts.max_component_len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrafficSystem {
    components: Vec<Component>,
    inlets: Vec<Vec<ComponentId>>,
    outlets: Vec<Vec<ComponentId>>,
    /// Dense per-vertex owner table, sized by the floorplan graph's
    /// `vertex_count()`; [`NO_COMPONENT`] marks unused vertices.
    owner: Vec<u32>,
    /// Dense per-vertex path offset (0 = entry) within the owning
    /// component; meaningless (0) for unused vertices. Components are
    /// disjoint simple paths, so the offset is well-defined and makes
    /// `position`/`next` queries O(1) instead of a path scan.
    offset: Vec<u32>,
}

impl TrafficSystem {
    /// All components, in id order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Number of components `|Vₛ|`.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// A component by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.components[id.index()]
    }

    /// The inlets of a component (`INLETS(Cᵢ)`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn inlets(&self, id: ComponentId) -> &[ComponentId] {
        &self.inlets[id.index()]
    }

    /// The outlets of a component (`OUTLETS(Cᵢ)`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn outlets(&self, id: ComponentId) -> &[ComponentId] {
        &self.outlets[id.index()]
    }

    /// All arcs `(Cᵢ, Cⱼ)` of the traffic-system graph `Gₛ`.
    pub fn arcs(&self) -> impl Iterator<Item = (ComponentId, ComponentId)> + '_ {
        self.components
            .iter()
            .flat_map(move |c| self.outlets(c.id()).iter().map(move |&to| (c.id(), to)))
    }

    /// Number of arcs `|Eₛ|`.
    pub fn arc_count(&self) -> usize {
        self.outlets.iter().map(Vec::len).sum()
    }

    /// The component owning a vertex, if any (vertices outside every
    /// component are the paper's *unused vertices*).
    pub fn component_of(&self, v: VertexId) -> Option<ComponentId> {
        match self.owner.get(v.index()) {
            Some(&id) if id != NO_COMPONENT => Some(ComponentId(id)),
            _ => None,
        }
    }

    /// The owning component and path offset (0 = entry) of a vertex, both
    /// O(1) via dense tables — the fast form of
    /// [`Component::position`](crate::Component::position) for hot loops.
    pub fn locate(&self, v: VertexId) -> Option<(ComponentId, u32)> {
        match self.owner.get(v.index()) {
            Some(&id) if id != NO_COMPONENT => Some((ComponentId(id), self.offset[v.index()])),
            _ => None,
        }
    }

    /// The vertex following `v` on its owning component's path (the
    /// paper's `NEXT`), `None` for exits and unused vertices; O(1).
    pub fn next_on_component(&self, v: VertexId) -> Option<VertexId> {
        let (comp, at) = self.locate(v)?;
        self.components[comp.index()]
            .path()
            .get(at as usize + 1)
            .copied()
    }

    /// The length `m` of the longest component.
    pub fn max_component_len(&self) -> usize {
        self.components
            .iter()
            .map(Component::len)
            .max()
            .unwrap_or(0)
    }

    /// The realization cycle time `t_c = 2m` of Property 4.1.
    pub fn cycle_time(&self) -> usize {
        2 * self.max_component_len()
    }

    /// Ids of all shelving-row components.
    pub fn shelving_rows(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.by_kind(ComponentKind::ShelvingRow)
    }

    /// Ids of all station-queue components.
    pub fn station_queues(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.by_kind(ComponentKind::StationQueue)
    }

    /// Ids of all transport components.
    pub fn transports(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.by_kind(ComponentKind::Transport)
    }

    fn by_kind(&self, kind: ComponentKind) -> impl Iterator<Item = ComponentId> + '_ {
        self.components
            .iter()
            .filter(move |c| c.kind() == kind)
            .map(Component::id)
    }

    /// Whether the traffic-system graph is strongly connected (always true
    /// for built systems; exposed for diagnostics and tests).
    pub fn is_strongly_connected(&self) -> bool {
        let adj: Vec<Vec<usize>> = self
            .outlets
            .iter()
            .map(|outs| outs.iter().map(|c| c.index()).collect())
            .collect();
        strongly_connected_components(&adj).len() == 1
    }

    /// A shortest component path `from → … → to` on the traffic graph
    /// (inclusive), or `None` if `to` is unreachable (cannot happen for
    /// built systems, which are strongly connected).
    pub fn component_path(&self, from: ComponentId, to: ComponentId) -> Option<Vec<ComponentId>> {
        let mut prev: Vec<u32> = vec![NO_COMPONENT; self.components.len()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        prev[from.index()] = from.0;
        while let Some(c) = queue.pop_front() {
            if c == to {
                let mut path = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = ComponentId(prev[cur.index()]);
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &n in self.outlets(c) {
                if prev[n.index()] == NO_COMPONENT {
                    prev[n.index()] = c.0;
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// Total number of vertices covered by components.
    pub fn covered_vertex_count(&self) -> usize {
        self.owner.iter().filter(|&&id| id != NO_COMPONENT).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::{Direction, GridMap, Warehouse};

    /// 5x3 map: shelf at (2,2) accessed east/west, station at (2,0).
    ///
    /// ```text
    /// y=2:  . . # . .
    /// y=1:  . . . . .
    /// y=0:  . . @ . .
    /// ```
    fn demo() -> Warehouse {
        let grid = GridMap::from_ascii("..#..\n.....\n..@..").unwrap();
        Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West]).unwrap()
    }

    /// A valid clockwise loop of four components covering both shelf-access
    /// vertices (1,2), (3,2) and the station (2,0).
    fn valid_loop(w: &Warehouse) -> (TrafficSystemBuilder, [ComponentId; 4]) {
        let mut b = TrafficSystemBuilder::new();
        let left = b
            .add_component_coords(w, [(0, 0), (0, 1), (0, 2), (1, 2)])
            .unwrap();
        let mid = b
            .add_component_coords(w, [(1, 1), (2, 1), (3, 1), (3, 2), (4, 2)])
            .unwrap();
        let right = b.add_component_coords(w, [(4, 1), (4, 0), (3, 0)]).unwrap();
        let bottom = b.add_component_coords(w, [(2, 0), (1, 0)]).unwrap();
        b.connect(left, mid); // (1,2) -> (1,1)
        b.connect(mid, right); // (4,2) -> (4,1)
        b.connect(right, bottom); // (3,0) -> (2,0)
        b.connect(bottom, left); // (1,0) -> (0,0)
        (b, [left, mid, right, bottom])
    }

    #[test]
    fn valid_loop_builds() {
        let w = demo();
        let (b, [left, mid, right, bottom]) = valid_loop(&w);
        let ts = b.build(&w).expect("valid design");
        assert_eq!(ts.component_count(), 4);
        assert!(ts.is_strongly_connected());
        assert_eq!(ts.shelving_rows().count(), 2); // left and mid hold access cells
        assert_eq!(ts.station_queues().count(), 1);
        assert_eq!(ts.transports().count(), 1);
        assert_eq!(ts.max_component_len(), 5);
        assert_eq!(ts.cycle_time(), 10);
        assert_eq!(ts.arc_count(), 4);
        assert_eq!(ts.inlets(mid), &[left]);
        assert_eq!(ts.outlets(mid), &[right]);
        assert_eq!(ts.component(bottom).kind(), ComponentKind::StationQueue);
        assert_eq!(ts.component(right).kind(), ComponentKind::Transport);
        assert_eq!(ts.covered_vertex_count(), 14);
        let path = ts.component_path(left, bottom).unwrap();
        assert_eq!(path, vec![left, mid, right, bottom]);
    }

    #[test]
    fn component_of_maps_vertices_to_owners() {
        let w = demo();
        let (b, [left, ..]) = valid_loop(&w);
        let ts = b.build(&w).unwrap();
        let v = w.graph().vertex_at(wsp_model::Coord::new(0, 1)).unwrap();
        assert_eq!(ts.component_of(v), Some(left));
        let unused = w.graph().vertex_at(wsp_model::Coord::new(2, 0));
        assert!(unused.is_some()); // station is covered
        let interior = w.graph().vertex_at(wsp_model::Coord::new(1, 0)).unwrap();
        assert!(ts.component_of(interior).is_some());
    }

    #[test]
    fn locate_agrees_with_path_scans_everywhere() {
        let w = demo();
        let (b, _) = valid_loop(&w);
        let ts = b.build(&w).unwrap();
        for v in (0..w.graph().vertex_count()).map(|i| VertexId(i as u32)) {
            match ts.component_of(v) {
                Some(comp) => {
                    let c = ts.component(comp);
                    assert_eq!(ts.locate(v), Some((comp, c.position(v).unwrap() as u32)));
                    assert_eq!(ts.next_on_component(v), c.next(v));
                }
                None => {
                    assert_eq!(ts.locate(v), None);
                    assert_eq!(ts.next_on_component(v), None);
                }
            }
        }
    }

    #[test]
    fn uncovered_shelf_access_detected() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        // A loop that misses the (3,2) access cell and the station.
        let lane = b
            .add_component_coords(&w, [(0, 1), (1, 1), (1, 2)])
            .unwrap();
        let back = b.add_component_coords(&w, [(0, 2)]).unwrap();
        b.connect(lane, back); // (1,2) -> (0,2)
        b.connect(back, lane); // (0,2) -> (0,1)
        let errs = b.validate_all(&w);
        assert!(errs.iter().any(|e| matches!(
            e,
            TrafficError::UncoveredVertex {
                is_station: false,
                ..
            }
        )));
        assert!(errs.iter().any(|e| matches!(
            e,
            TrafficError::UncoveredVertex {
                is_station: true,
                ..
            }
        )));
    }

    #[test]
    fn mixed_kind_detected() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        // Path holding both the (1,2) access cell and the (2,0) station.
        let mixed = b
            .add_component_coords(&w, [(1, 2), (1, 1), (1, 0), (2, 0)])
            .unwrap();
        b.connect(mixed, mixed);
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::MixedKind { .. })));
    }

    #[test]
    fn shared_vertex_detected() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        let a = b.add_component_coords(&w, [(0, 0), (1, 0)]).unwrap();
        let c = b.add_component_coords(&w, [(1, 0), (2, 0)]).unwrap();
        b.connect(a, c);
        b.connect(c, a);
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::VertexShared { .. })));
    }

    #[test]
    fn repeated_vertex_detected() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        let a = b
            .add_component_coords(&w, [(0, 0), (1, 0), (0, 0)])
            .unwrap();
        b.connect(a, a);
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::RepeatedVertex { .. })));
    }

    #[test]
    fn broken_path_detected() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        let a = b.add_component_coords(&w, [(0, 0), (2, 0)]).unwrap();
        b.connect(a, a);
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::BrokenPath { .. })));
    }

    #[test]
    fn empty_component_detected() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        let a = b.add_component(Vec::new());
        b.connect(a, a);
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::EmptyComponent { .. })));
    }

    #[test]
    fn missing_edge_detected() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        let a = b.add_component_coords(&w, [(0, 0)]).unwrap();
        let c = b.add_component_coords(&w, [(3, 0)]).unwrap();
        b.connect(a, c); // (0,0) and (3,0) are not adjacent
        b.connect(c, a);
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::MissingEdge { .. })));
    }

    #[test]
    fn degree_violations_detected() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        // No connections at all: 0 inlets, 0 outlets.
        b.add_component_coords(&w, [(0, 0)]).unwrap();
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::BadDegree { .. })));
    }

    #[test]
    fn out_of_range_vertex_reported_not_panicking() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        // A vertex id far outside the demo warehouse's graph (e.g. built
        // against a different warehouse).
        let a = b.add_component(vec![VertexId(9_999)]);
        b.connect(a, a);
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::UnknownVertex { .. })));
    }

    #[test]
    fn unknown_component_in_connection() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        let a = b.add_component_coords(&w, [(0, 0), (1, 0)]).unwrap();
        b.connect(a, ComponentId(99));
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::UnknownComponent { .. })));
    }

    /// 3×3 ring around a shelf, split into the station-side bottom row
    /// and the rest of the ring.
    fn two_component_ring() -> (Warehouse, TrafficSystemBuilder, ComponentId, ComponentId) {
        let grid = GridMap::from_ascii("...\n.#.\n.@.").unwrap();
        let w =
            Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West]).unwrap();
        let mut b = TrafficSystemBuilder::new();
        let a = b
            .add_component_coords(&w, [(0, 0), (1, 0), (2, 0)])
            .unwrap();
        let c = b
            .add_component_coords(&w, [(2, 1), (2, 2), (1, 2), (0, 2), (0, 1)])
            .unwrap();
        (w, b, a, c)
    }

    #[test]
    fn repeated_connection_is_rejected() {
        let (w, mut b, a, c) = two_component_ring();
        b.connect(a, c).connect(c, a);
        assert_eq!(b.build(&w).unwrap().arc_count(), 2);
        b.connect(c, a);
        assert_eq!(
            b.build(&w).unwrap_err(),
            TrafficError::DuplicateConnection { from: c, to: a }
        );
    }

    #[test]
    fn duplicate_connection_detected() {
        let (w, mut b, a, c) = two_component_ring();
        b.connect(a, c).connect(c, a).connect(c, a).connect(a, c);
        let errs = b.validate_all(&w);
        assert_eq!(
            errs,
            vec![
                TrafficError::DuplicateConnection { from: c, to: a },
                TrafficError::DuplicateConnection { from: a, to: c },
            ]
        );
        assert_eq!(
            errs[0].to_string(),
            "connection C1 -> C0 is declared more than once"
        );
    }

    #[test]
    fn disconnected_design_detected() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        // Two independent 2-cycles plus a station self-pair; no bridges.
        let a1 = b.add_component_coords(&w, [(1, 2)]).unwrap();
        let a2 = b.add_component_coords(&w, [(1, 1)]).unwrap();
        let b1 = b.add_component_coords(&w, [(3, 2)]).unwrap();
        let b2 = b.add_component_coords(&w, [(3, 1)]).unwrap();
        let s1 = b.add_component_coords(&w, [(2, 0)]).unwrap();
        let s2 = b.add_component_coords(&w, [(1, 0)]).unwrap();
        b.connect(a1, a2);
        b.connect(a2, a1);
        b.connect(b1, b2);
        b.connect(b2, b1);
        b.connect(s1, s2);
        b.connect(s2, s1);
        let errs = b.validate_all(&w);
        assert!(errs
            .iter()
            .any(|e| matches!(e, TrafficError::NotStronglyConnected { .. })));
    }

    #[test]
    fn build_returns_first_error() {
        let w = demo();
        let mut b = TrafficSystemBuilder::new();
        let a = b.add_component(Vec::new());
        b.connect(a, a);
        let err = b.build(&w).unwrap_err();
        assert!(matches!(err, TrafficError::EmptyComponent { .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = TrafficError::NotStronglyConnected { scc_count: 3 };
        assert!(e.to_string().contains("3 strongly connected"));
    }
}
