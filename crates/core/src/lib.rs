//! # mmdb-core — the multi-model database facade
//!
//! One [`Database`] = "multiple data models against a single, integrated
//! backend" (the tutorial's definition): relational tables, document
//! collections, property graphs, key/value buckets, an RDF store, XML
//! trees and full-text indexes share one buffer pool, one WAL, one MVCC
//! transaction domain and one query language.
//!
//! Writes flow through the MVCC store (version chains + WAL) and fan out
//! to the model stores via commit hooks, applied in commit order, and a
//! commit returns only once its writes are in them — they are, in OctopusDB terms, the
//! materialized storage views of the transaction log. [`Session`] exposes
//! cross-model transactions (UniBench Workload C); [`Database::query`]
//! runs MMQL; [`evolution`] maps data *between* models (the tutorial's
//! "model evolution" challenge); [`schema_infer`] extracts relational
//! schemas from open-schema documents.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod database;
pub mod evolution;
pub mod schema_infer;
pub mod session;

pub use database::{Database, KvView};
pub use mmdb_query::{ExecStats, OpStats};
pub use session::Session;
