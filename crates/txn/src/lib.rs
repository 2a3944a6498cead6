//! # mmdb-txn — the transaction substrate
//!
//! "One system guarantees inter-model data consistency" is the tutorial's
//! core argument for multi-model over polyglot persistence, and
//! *multi-model transactions* (with per-model "hybrid consistency models")
//! is one of its six open challenges. This crate provides:
//!
//! * [`mvcc`] — a multi-version store with **snapshot isolation**:
//!   transactions read a consistent snapshot across *every* model domain
//!   and commit atomically with first-committer-wins write-conflict
//!   detection. Commits flow through the shared WAL and are replayable
//!   after a crash.
//! * [`locks`] — a strict two-phase-locking manager with wait-for-graph
//!   deadlock detection, upgrading snapshot isolation to **serializable**
//!   when requested.
//! * [`consistency`] — per-domain consistency levels (the challenge
//!   slide's "graph data and relational data may have different
//!   requirements"): `Strong` domains get full conflict detection,
//!   `Eventual` domains skip it and read latest-committed.
//!
//! Keys are `(domain, key-bytes)` pairs, where a domain names a model
//! collection (`"doc/orders"`, `"kv/cart"`, `"graph/knows"`, …) — one
//! transaction spans them all, which is exactly what UniBench Workload C
//! exercises.

pub mod consistency;
pub mod locks;
pub mod mvcc;

pub use consistency::{ConsistencyLevel, ConsistencyPolicy};
pub use locks::{LockManager, LockMode};
pub use mvcc::{
    CommittedWrite, GroupCommitStats, IsolationLevel, MvccStore, Transaction, WeakMvccStore,
};

/// Every failpoint site this crate declares (see `mmdb-fault`). The
/// crash-recovery torture suite iterates this roster, so adding a
/// `fail_point!` here without extending the list fails that suite.
pub const FAILPOINT_SITES: &[&str] = &[
    "txn.commit.before_wal",
    "txn.commit.after_wal",
    "txn.group_commit.enqueue",
    "txn.group_commit.before_sync",
    "txn.group_commit.after_sync",
];
