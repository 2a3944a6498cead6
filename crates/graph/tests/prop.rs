//! Property test for the edge index: it stores each edge's far endpoint,
//! so `neighbors` never reads an edge document — and must therefore be
//! held to the documents by something that does.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use mmdb_graph::{Direction, Graph};
use mmdb_storage::{BufferPool, DiskManager};
use mmdb_types::from_json;

const VERTICES: usize = 5;
const EDGE_COLLECTIONS: [&str; 2] = ["knows", "likes"];

#[derive(Debug, Clone)]
enum Op {
    AddEdge { coll: usize, from: usize, to: usize },
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
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::in_memory()), 64));
        let g = Graph::create("g", pool);
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
}
