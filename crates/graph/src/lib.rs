//! # mmdb-graph — the property-graph model
//!
//! ArangoDB's graph design, as the tutorial describes it: "since vertices
//! and edges of graphs are documents, this allows to mix all three data
//! models". A [`Graph`] is a set of vertex collections and edge
//! collections; edge documents carry the reserved `_from` / `_to`
//! attributes; an **edge index** ("hash index for `_from` and `_to`
//! attributes") serves adjacency in O(1).
//!
//! [`mod@traverse`] implements the AQL traversal the paper's recommendation
//! query uses (`FOR v IN 1..1 OUTBOUND c knows`): bounded-depth BFS in
//! either or both directions, plus unweighted and weighted shortest paths.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod store;
pub mod traverse;

pub use store::{Direction, Graph};
pub use traverse::{shortest_path, traverse, TraversalSpec};
