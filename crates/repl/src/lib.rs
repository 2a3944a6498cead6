//! # mmdb-repl — log-shipping replication
//!
//! Streams the primary's WAL to read replicas and to `SUBSCRIBE`d
//! change-feed clients over the ordinary `mmdb-protocol` connection.
//! Three pieces:
//!
//! * [`feed`] — the wire shapes of the stream: runs of the primary's log
//!   bytes (for replicas), heartbeats carrying the primary's durable
//!   tail, the reset frame carrying its log header, and decoded
//!   committed-write CDC events (for `SUBSCRIBE` clients), plus
//!   [`feed::CdcBuffer`] which turns a record stream into committed-only
//!   events.
//! * [`status`] — [`ReplStatus`], the lock-free lag/health snapshot a
//!   replica exposes through `ADMIN HEALTH` and `ADMIN REPL`.
//! * [`replica`] — [`ReplicaRunner`], the background thread that
//!   connects to a primary with `REPLICA HELLO <log_id> <tail>` and
//!   takes the stream through a [`Follower`], which scans each run of
//!   bytes with the log's own scanner, lands it in the replica's log
//!   exactly as it arrived and installs each committed block through
//!   [`mmdb_txn::MvccStore::apply_replicated`]; it reconnects with backoff
//!   when the primary goes away. A replica that loses its primary keeps
//!   serving reads — the store is latched read-only for the life of the
//!   process — and reports growing staleness.
//!
//! Resume correctness: a replica's log is its primary's bytes from the
//! primary's base on, by construction, and it only ever ends at a block
//! boundary — a run lands once the log's
//! [`mmdb_storage::wal::BlockAssembler`], the same one recovery and the
//! CDC feed read the stream through, is between blocks. So its tail is a
//! position in the primary's log, and `REPLICA HELLO` from it, after a
//! reconnect or a restart, never re-applies a half-seen transaction and
//! never skips one.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod feed;
pub mod replica;
pub mod status;

pub use feed::{heartbeat_frame, log_frame, parse_frame, reset_frame, CdcBuffer, Frame};
pub use replica::{Follower, ReplicaOptions, ReplicaRunner};
pub use status::ReplStatus;

/// Failpoint sites registered by this crate (active with the
/// `failpoints` feature; see `mmdb-fault`).
///
/// * `repl.apply` — evaluated on the replica just before a streamed run
///   lands in its log (or a reset rewrites it). `error` makes the replica
///   drop the connection and retry from its log's tail, which the failure
///   left where it was.
pub const FAILPOINT_SITES: &[&str] = &["repl.apply"];
