//! Graph traversals: bounded-depth BFS (AQL `FOR v IN min..max DIR start
//! edges`), unweighted and weighted shortest paths.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use mmdb_types::{Key, Result, Value};

use crate::store::{Direction, Graph, VertexHandle};

/// Specification of a bounded traversal.
#[derive(Debug, Clone)]
pub struct TraversalSpec {
    /// Minimum depth (AQL's `min..`); vertices closer than this are visited
    /// but not emitted.
    pub min_depth: usize,
    /// Maximum depth (AQL's `..max`).
    pub max_depth: usize,
    /// Direction of travel.
    pub direction: Direction,
    /// Edge collection to follow (`None` = all).
    pub edge_collection: Option<String>,
}

impl TraversalSpec {
    /// AQL's common `1..1 OUTBOUND … <edges>` form.
    pub fn out_one(edge_collection: &str) -> Self {
        TraversalSpec {
            min_depth: 1,
            max_depth: 1,
            direction: Direction::Outbound,
            edge_collection: Some(edge_collection.to_string()),
        }
    }
}

/// One emitted traversal result.
#[derive(Debug, Clone, PartialEq)]
pub struct Visited {
    /// Vertex handle, inline when it is 22 bytes or less, as a string
    /// value's text is: an executor moves it into the vertex's `_id`.
    pub vertex: Key,
    /// Depth at which it was first reached.
    pub depth: usize,
}

/// Breadth-first bounded traversal from `start`, emitting each reachable
/// vertex once, at its minimal depth, for depths in `min..=max`.
///
/// The walk goes level by level, in the order a FIFO queue would visit:
/// each level is the new neighbours of the one before, each vertex's in
/// the sorted order [`Graph::neighbors`] gives them. A `seen` set is kept
/// only when `max > 1`: one vertex's neighbours are already distinct, so
/// a walk of one hop needs only to leave out the start.
/// The walk holds the edge index's shared handles; a handle is copied
/// into a [`Key`] only when it is emitted, which allocates nothing for a
/// handle of 22 bytes or less.
pub fn traverse(graph: &Graph, start: &str, spec: &TraversalSpec) -> Result<Vec<Visited>> {
    let mut out = Vec::new();
    if spec.min_depth == 0 {
        out.push(Visited { vertex: Key::new(start), depth: 0 });
    }
    if spec.max_depth == 0 {
        return Ok(out);
    }
    let neighbors = |v: &str| graph.neighbor_handles(v, spec.direction, spec.edge_collection.as_deref());
    let mut level = neighbors(start);
    level.retain(|n| **n != *start);
    let mut seen: HashSet<Arc<str>> = HashSet::new();
    if spec.max_depth > 1 {
        seen.insert(Arc::from(start));
        seen.extend(level.iter().cloned());
    }
    for depth in 1..=spec.max_depth {
        if depth >= spec.min_depth {
            out.extend(level.iter().map(|v| Visited { vertex: Key::new(v), depth }));
        }
        if depth == spec.max_depth || level.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for v in &level {
            next.extend(neighbors(v).into_iter().filter(|n| seen.insert(Arc::clone(n))));
        }
        level = next;
    }
    Ok(out)
}

/// Result of a shortest-path search.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Vertices from start to goal inclusive.
    pub vertices: Vec<VertexHandle>,
    /// Total cost (hop count when unweighted).
    pub cost: f64,
}

/// Shortest path from `start` to `goal`. With `weight_field: None` every
/// edge costs 1 (BFS); otherwise Dijkstra over the numeric edge attribute
/// (missing/invalid weights cost 1).
pub fn shortest_path(
    graph: &Graph,
    start: &str,
    goal: &str,
    direction: Direction,
    edge_collection: Option<&str>,
    weight_field: Option<&str>,
) -> Result<Option<PathResult>> {
    #[derive(PartialEq)]
    struct State {
        cost: f64,
        vertex: String,
    }
    impl Eq for State {}
    impl PartialOrd for State {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for State {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap.
            o.cost
                .partial_cmp(&self.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| o.vertex.cmp(&self.vertex))
        }
    }

    let mut dist: HashMap<String, f64> = HashMap::new();
    let mut prev: HashMap<String, String> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(start.to_string(), 0.0);
    heap.push(State { cost: 0.0, vertex: start.to_string() });
    while let Some(State { cost, vertex }) = heap.pop() {
        if vertex == goal {
            let mut vertices = vec![goal.to_string()];
            let mut cur = goal.to_string();
            while let Some(p) = prev.get(&cur) {
                vertices.push(p.clone());
                cur = p.clone();
            }
            vertices.reverse();
            return Ok(Some(PathResult { vertices, cost }));
        }
        if cost > dist.get(&vertex).copied().unwrap_or(f64::INFINITY) {
            continue;
        }
        for edge in graph.edges_of(&vertex, direction, edge_collection)? {
            let from = edge.get_field(crate::store::FROM_FIELD).as_str()?.to_string();
            let to = edge.get_field(crate::store::TO_FIELD).as_str()?.to_string();
            let next = match direction {
                Direction::Outbound => to,
                Direction::Inbound => from,
                Direction::Any => {
                    if from == vertex {
                        to
                    } else {
                        from
                    }
                }
            };
            let w = weight_field
                .map(|f| edge.get_field(f))
                .and_then(|v| if let Value::Number(n) = v { Some(n.as_f64()) } else { None })
                .unwrap_or(1.0)
                .max(0.0);
            let nd = cost + w;
            if nd < dist.get(&next).copied().unwrap_or(f64::INFINITY) {
                dist.insert(next.clone(), nd);
                prev.insert(next.clone(), vertex.clone());
                heap.push(State { cost: nd, vertex: next });
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::from_json;
    use std::sync::Arc;

    /// A small weighted road network:
    ///   a →1→ b →1→ c →1→ d,  a →10→ d (direct but heavy)
    fn roads() -> Graph {
        let g = Graph::create("roads", Arc::default());
        g.create_vertex_collection("city").unwrap();
        g.create_edge_collection("road").unwrap();
        for k in ["a", "b", "c", "d"] {
            g.add_vertex("city", from_json(&format!(r#"{{"_key":"{k}"}}"#)).unwrap()).unwrap();
        }
        for (f, t, w) in [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 10)] {
            g.add_edge(
                "road",
                &format!("city/{f}"),
                &format!("city/{t}"),
                from_json(&format!(r#"{{"km":{w}}}"#)).unwrap(),
            )
            .unwrap();
        }
        g
    }

    #[test]
    fn one_hop_outbound_like_the_paper() {
        let g = crate::store::tests::paper_graph();
        // FOR f IN 1..1 OUTBOUND customers/1 knows
        let friends = traverse(&g, "customers/1", &TraversalSpec::out_one("knows")).unwrap();
        assert_eq!(friends.len(), 1);
        assert_eq!(friends[0].vertex, "customers/2");
        assert_eq!(friends[0].depth, 1);
    }

    #[test]
    fn depth_windows() {
        let g = roads();
        let spec = TraversalSpec {
            min_depth: 2,
            max_depth: 3,
            direction: Direction::Outbound,
            edge_collection: Some("road".into()),
        };
        let got = traverse(&g, "city/a", &spec).unwrap();
        let names: Vec<&str> = got.iter().map(|v| v.vertex.as_str()).collect();
        // Depth 1 vertices (b, direct-d) are excluded; c at 2, d at... d is
        // reached at depth 1 via the direct edge, so BFS sees it first and
        // it is *not* re-emitted at depth 3 — matching AQL's default
        // unique-vertices behaviour.
        assert_eq!(names, vec!["city/c"]);
        // min 0 includes the start.
        let spec0 = TraversalSpec { min_depth: 0, max_depth: 1, ..spec };
        let got = traverse(&g, "city/a", &spec0).unwrap();
        assert!(got.iter().any(|v| v.vertex == "city/a" && v.depth == 0));
        assert_eq!(got.len(), 3); // a, b, d
    }

    #[test]
    fn unweighted_shortest_path_prefers_fewer_hops() {
        let g = roads();
        let p = shortest_path(&g, "city/a", "city/d", Direction::Outbound, Some("road"), None)
            .unwrap()
            .unwrap();
        assert_eq!(p.vertices, vec!["city/a", "city/d"]);
        assert_eq!(p.cost, 1.0);
    }

    #[test]
    fn weighted_shortest_path_prefers_light_edges() {
        let g = roads();
        let p = shortest_path(&g, "city/a", "city/d", Direction::Outbound, Some("road"), Some("km"))
            .unwrap()
            .unwrap();
        assert_eq!(p.vertices, vec!["city/a", "city/b", "city/c", "city/d"]);
        assert_eq!(p.cost, 3.0);
    }

    #[test]
    fn unreachable_and_trivial_paths() {
        let g = roads();
        assert!(shortest_path(&g, "city/d", "city/a", Direction::Outbound, None, None)
            .unwrap()
            .is_none());
        // Inbound direction reverses reachability.
        let p = shortest_path(&g, "city/d", "city/a", Direction::Inbound, None, None)
            .unwrap()
            .unwrap();
        assert_eq!(p.vertices.first().map(String::as_str), Some("city/d"));
        let p = shortest_path(&g, "city/a", "city/a", Direction::Outbound, None, None)
            .unwrap()
            .unwrap();
        assert_eq!(p.cost, 0.0);
        assert_eq!(p.vertices, vec!["city/a"]);
    }

    #[test]
    fn any_direction_traversal() {
        let g = crate::store::tests::paper_graph();
        let spec = TraversalSpec {
            min_depth: 1,
            max_depth: 2,
            direction: Direction::Any,
            edge_collection: Some("knows".into()),
        };
        let got = traverse(&g, "customers/2", &spec).unwrap();
        let mut names: Vec<&str> = got.iter().map(|v| v.vertex.as_str()).collect();
        names.sort();
        assert_eq!(names, vec!["customers/1", "customers/3"]);
    }
}
