//! # mmdb-index — the index substrate
//!
//! Every index family from the tutorial's "multi-model query optimization"
//! section, implemented from scratch:
//!
//! * [`btree`] — a B+-tree with range scans (PostgreSQL/Oracle/Couchbase's
//!   workhorse; the tutorial's default for "shredded" JSON/XML fields).
//! * [`exthash`] — extendible hashing (OrientDB: "significantly faster"
//!   than trees for point lookups; ArangoDB's primary/edge indexes).
//! * [`gin`] — a Generalized Inverted iNdex over documents with both
//!   PostgreSQL modes: `jsonb_ops` (independent key and value items, serves
//!   key-exists *and* containment) and `jsonb_path_ops` (hashed path→value
//!   items, containment only but smaller and faster). Ablation E4.
//! * [`bitmap`] — bitmap + bitslice indexes (InterSystems Caché: compressed
//!   bitstrings per value; bitslice for SUM/COUNT/AVG over numeric fields).
//! * [`ordpath`] — ORDPATH node labels and a path index for tree data
//!   (Oracle XMLIndex "preserves position with a variant of the ORDPATHS
//!   numbering schema"). Ablation E8.
//! * [`rtree`] — an R-tree for the spatial model (MySQL "spatial data
//!   R-trees").
//! * [`value`] — the value index over a B+-tree that document collections
//!   (a path) and tables (a column) share: one key layout, one range read,
//!   one bound test for the scans without it.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod bitmap;
pub mod btree;
pub mod exthash;
pub mod gin;
pub mod ordpath;
pub mod rtree;
pub mod value;

pub use btree::BPlusTree;
pub use exthash::ExtendibleHashMap;
pub use gin::{GinIndex, GinMode};
pub use ordpath::OrdPath;
pub use value::ValueIndex;
