//! # mmdb-repl — log-shipping replication
//!
//! Streams the primary's WAL to read replicas and to `SUBSCRIBE`d
//! change-feed clients over the ordinary `mmdb-protocol` connection.
//! Three pieces:
//!
//! * [`feed`] — the wire shapes of the stream: raw WAL record frames
//!   (for replicas), heartbeats carrying the primary's tail LSN, and
//!   decoded committed-write CDC events (for `SUBSCRIBE` clients),
//!   plus [`feed::CdcBuffer`] which turns a record stream into
//!   committed-only events.
//! * [`status`] — [`ReplStatus`], the lock-free lag/health snapshot a
//!   replica exposes through `ADMIN HEALTH` and `ADMIN REPL`.
//! * [`replica`] — [`ReplicaRunner`], the background thread that
//!   connects to a primary with `REPLICA HELLO <lsn>`, applies
//!   streamed transactions through [`mmdb_txn::MvccStore::apply_replicated`]
//!   (the same install path crash recovery uses, so replica state is
//!   byte-identical to a reopened primary), and reconnects with
//!   backoff when the primary goes away. A replica that loses its
//!   primary keeps serving reads — the store is latched read-only for
//!   the life of the process — and reports growing staleness.
//!
//! Resume correctness: a replica's `applied_lsn` only ever advances
//! past *complete* transactions — it moves only while the log's
//! [`mmdb_storage::wal::BlockAssembler`], the same one recovery and the
//! CDC feed read the stream through, is between blocks — so reconnecting
//! with `REPLICA HELLO <applied_lsn>` never re-applies a half-seen
//! transaction and never skips one.

pub mod feed;
pub mod replica;
pub mod status;

pub use feed::{heartbeat_frame, parse_frame, record_frame, CdcBuffer, Frame};
pub use replica::{ReplicaOptions, ReplicaRunner};
pub use status::ReplStatus;

/// Failpoint sites registered by this crate (active with the
/// `failpoints` feature; see `mmdb-fault`).
///
/// * `repl.apply` — evaluated on the replica just before a streamed
///   transaction is installed. `error` makes the replica drop the
///   connection and retry from its last applied LSN.
pub const FAILPOINT_SITES: &[&str] = &["repl.apply"];
