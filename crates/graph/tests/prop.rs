//! Property tests for the edge index and the traversal over it. The
//! index stores each edge's far endpoint, so `neighbors` never reads an
//! edge document — and must therefore be held to the documents by
//! something that does. `traverse` walks the index level by level and
//! keeps no `seen` set for one hop, so it is held to a plain queue BFS.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;

use mmdb_graph::traverse::Visited;
use mmdb_graph::{traverse, Direction, Graph, TraversalSpec};
use mmdb_types::{from_json, Key};

const VERTICES: usize = 5;
const EDGE_COLLECTIONS: [&str; 2] = ["knows", "likes"];

#[derive(Debug, Clone)]
enum Op {
    AddEdge { coll: usize, from: usize, to: usize },
    /// Re-put the i-th edge ever added between other vertices (it may be
    /// gone already, and then comes back).
    MoveEdge { edge: usize, from: usize, to: usize },
    /// Remove the i-th edge ever added (it may be gone already).
    RemoveEdge(usize),
    RemoveVertex(usize),
    /// Put a removed vertex back (a no-op error while it exists).
    AddVertex(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..EDGE_COLLECTIONS.len(), 0..VERTICES, 0..VERTICES)
                .prop_map(|(coll, from, to)| Op::AddEdge { coll, from, to }),
            (0..EDGE_COLLECTIONS.len(), 0..VERTICES, 0..VERTICES)
                .prop_map(|(coll, from, to)| Op::AddEdge { coll, from, to }),
            (0usize..40, 0..VERTICES, 0..VERTICES)
                .prop_map(|(edge, from, to)| Op::MoveEdge { edge, from, to }),
            (0usize..40).prop_map(Op::RemoveEdge),
            (0..VERTICES).prop_map(Op::RemoveVertex),
            (0..VERTICES).prop_map(Op::AddVertex),
        ],
        0..60,
    )
}

fn vertex(i: usize) -> String {
    format!("p/{i}")
}

fn add_vertex(g: &Graph, i: usize) -> bool {
    g.add_vertex("p", from_json(&format!(r#"{{"_key":"{i}"}}"#)).unwrap()).is_ok()
}

/// What `neighbors(v, dir, filter)` must return, worked out from the
/// `_from`/`_to` of the edge documents that still exist.
fn oracle(g: &Graph, created: &[String], v: &str, dir: Direction, filter: Option<&str>) -> Vec<String> {
    let mut far = BTreeSet::new();
    for handle in created {
        if filter.is_some_and(|ec| !handle.starts_with(&format!("{ec}/"))) {
            continue;
        }
        let Some(doc) = g.edge(handle).unwrap() else { continue };
        let from = doc.get_field("_from").as_str().unwrap().to_string();
        let to = doc.get_field("_to").as_str().unwrap().to_string();
        if dir != Direction::Inbound && from == v {
            far.insert(to.clone());
        }
        if dir != Direction::Outbound && to == v {
            far.insert(from);
        }
    }
    far.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn neighbors_match_the_surviving_edge_documents(ops in arb_ops()) {
        let g = Graph::create("g", Arc::default());
        g.create_vertex_collection("p").unwrap();
        for ec in EDGE_COLLECTIONS {
            g.create_edge_collection(ec).unwrap();
        }
        let mut alive = [true; VERTICES];
        for i in 0..VERTICES {
            prop_assert!(add_vertex(&g, i));
        }
        let mut created: Vec<String> = Vec::new();
        for op in ops {
            match op {
                Op::AddEdge { coll, from, to } => {
                    let added = g.add_edge(EDGE_COLLECTIONS[coll], &vertex(from), &vertex(to), from_json("{}").unwrap());
                    prop_assert_eq!(added.is_ok(), alive[from] && alive[to], "dangling edges are refused");
                    created.extend(added);
                }
                Op::MoveEdge { edge, from, to } => {
                    // Only between live vertices: `put_edge` does not look
                    // its endpoints up.
                    if let (Some(handle), true) = (created.get(edge), alive[from] && alive[to]) {
                        let (coll, key) = handle.split_once('/').unwrap();
                        let doc = format!(r#"{{"_from":"{}","_to":"{}"}}"#, vertex(from), vertex(to));
                        g.put_edge(coll, key, from_json(&doc).unwrap()).unwrap();
                    }
                }
                Op::RemoveEdge(i) => {
                    if let Some(handle) = created.get(i) {
                        let existed = g.edge(handle).unwrap().is_some();
                        prop_assert_eq!(g.remove_edge(handle).unwrap(), existed);
                    }
                }
                Op::RemoveVertex(i) => {
                    prop_assert_eq!(g.remove_vertex(&vertex(i)).unwrap(), alive[i]);
                    alive[i] = false;
                }
                Op::AddVertex(i) => {
                    prop_assert_eq!(add_vertex(&g, i), !alive[i]);
                    alive[i] = true;
                }
            }
            for i in 0..VERTICES {
                let v = vertex(i);
                for dir in [Direction::Outbound, Direction::Inbound, Direction::Any] {
                    for filter in [None, Some("knows"), Some("likes"), Some("nosuch")] {
                        prop_assert_eq!(
                            g.neighbors(&v, dir, filter).unwrap(),
                            oracle(&g, &created, &v, dir, filter),
                            "neighbors({}, {:?}, {:?})", v, dir, filter
                        );
                    }
                }
            }
        }
        // A removed vertex took its incident edges along.
        for handle in &created {
            if let Some(doc) = g.edge(handle).unwrap() {
                for end in ["_from", "_to"] {
                    let h = doc.get_field(end).as_str().unwrap();
                    prop_assert!(g.has_vertex(h).unwrap(), "{} survives with a dead endpoint {}", handle, h);
                }
            }
        }
    }

    #[test]
    fn traverse_equals_a_queue_bfs(
        edges in prop::collection::vec((0..EDGE_COLLECTIONS.len(), 0..VERTICES, 0..VERTICES), 0..16),
        start in 0..VERTICES,
        dir in prop::sample::select(vec![Direction::Outbound, Direction::Inbound, Direction::Any]),
        filter in prop::sample::select(vec![None, Some("knows"), Some("likes")]),
        min_depth in 0usize..3,
        max_depth in 0usize..3,
    ) {
        // Self-loops and parallel edges come up as they are drawn.
        let g = Graph::create("g", Arc::default());
        g.create_vertex_collection("p").unwrap();
        for ec in EDGE_COLLECTIONS {
            g.create_edge_collection(ec).unwrap();
        }
        for i in 0..VERTICES {
            prop_assert!(add_vertex(&g, i));
        }
        for &(coll, from, to) in &edges {
            g.add_edge(EDGE_COLLECTIONS[coll], &vertex(from), &vertex(to), from_json("{}").unwrap()).unwrap();
        }
        let spec = TraversalSpec {
            min_depth,
            max_depth,
            direction: dir,
            edge_collection: filter.map(str::to_string),
        };
        prop_assert_eq!(
            traverse(&g, &vertex(start), &spec).unwrap(),
            queue_bfs(&edges, &vertex(start), &spec),
            "{:?}", spec
        );
    }
}

/// The traversal as a FIFO queue BFS over the drawn edges: a `seen` set
/// that starts with the start vertex, each vertex's neighbours sorted and
/// deduplicated, every vertex emitted at its first depth in
/// `min..=max`.
fn queue_bfs(edges: &[(usize, usize, usize)], start: &str, spec: &TraversalSpec) -> Vec<Visited> {
    let neighbors = |v: &str| {
        let mut far = BTreeSet::new();
        for &(coll, from, to) in edges {
            if spec.edge_collection.as_deref().is_some_and(|ec| ec != EDGE_COLLECTIONS[coll]) {
                continue;
            }
            let (from, to) = (vertex(from), vertex(to));
            if spec.direction != Direction::Inbound && from == v {
                far.insert(to.clone());
            }
            if spec.direction != Direction::Outbound && to == v {
                far.insert(from);
            }
        }
        far
    };
    let mut out = Vec::new();
    let mut seen = HashSet::from([start.to_string()]);
    let mut queue = VecDeque::from([(start.to_string(), 0)]);
    while let Some((v, depth)) = queue.pop_front() {
        if depth >= spec.min_depth {
            out.push(Visited { vertex: Key::new(&v), depth });
        }
        if depth == spec.max_depth {
            continue;
        }
        for n in neighbors(&v) {
            if seen.insert(n.clone()) {
                queue.push_back((n, depth + 1));
            }
        }
    }
    out
}
