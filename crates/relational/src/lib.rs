//! # mmdb-relational — the relational model
//!
//! Schema-ful tables over heap files, in the PostgreSQL mould the tutorial
//! leads its storage survey with: typed columns (including `Json` — the
//! `orders JSONB` column of the slide example), heap storage, B+-tree
//! secondary indexes.
//!
//! [`universal`] adds Sinew's alternative: a *universal relation* over
//! multi-structured data — "one column for each unique key in the data
//! set; nested data is flattened into separate columns" — with physical
//! columns only *partially materialized* (ablation E6 measures the
//! materialization effect).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod schema;
pub mod table;
pub mod universal;

pub use schema::{ColumnDef, DataType, Schema};
pub use table::Table;
pub use universal::UniversalRelation;
