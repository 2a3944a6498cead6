//! # mmdb-types — the open data model
//!
//! The EDBT 2017 tutorial's first open challenge is the *open data model*:
//! "a flexible data model to accommodate multi-model data, providing a
//! convenient unique interface to handle data from different sources".
//!
//! This crate is that interface. Every model in `mmdb` — relational tuples,
//! JSON documents, graph vertices and edges, key/value pairs, RDF terms,
//! XML text nodes — bottoms out in a single [`Value`] type with a total
//! order, a canonical binary encoding, a hand-written JSON reader/writer,
//! and a path language for reaching into nested data.
//!
//! Nothing in here knows about storage or query processing; the higher
//! crates all depend on this one and on nothing else of ours.

pub mod cancel;
pub mod codec;
pub mod error;
pub mod json;
pub mod lock_rank;
pub mod path;
pub mod value;

pub use cancel::CancelToken;
pub use error::{Error, Result};
pub use json::{from_json, to_json, to_json_pretty};
pub use path::{Path, PathStep};
pub use value::{Number, Value};
