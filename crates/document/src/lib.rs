//! # mmdb-document — the document model
//!
//! ArangoDB-style document collections (the tutorial's "native multi-model"
//! exemplar): every document has a primary `_key` attribute served by a
//! hash index ("primary index — hash index for document `_key` attributes
//! of all documents in a collection"); without secondary indexes a
//! collection *is* a key/value store; with them it is a queryable document
//! store. Persistent (B+-tree) indexes serve path range queries; a GIN
//! index serves containment and key-exists queries; named full-text
//! indexes over a field serve `FULLTEXT`; query-by-example does what
//! Arango's `byExample` does.
//!
//! [`flex`] adds HPE Vertica's flex tables for schemaless CSV/JSON ingest
//! with virtual → real column promotion.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod collection;
pub mod flex;

pub use collection::Collection;
pub use flex::FlexTable;
