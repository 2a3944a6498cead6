//! # mmdb-txn — the transaction substrate
//!
//! "One system guarantees inter-model data consistency" is the tutorial's
//! core argument for multi-model over polyglot persistence, and
//! *multi-model transactions* is one of its six open challenges. This
//! crate provides:
//!
//! * [`mvcc`] — a multi-version store with **snapshot isolation**:
//!   transactions read a consistent snapshot across *every* model domain
//!   and commit atomically with first-committer-wins write-conflict
//!   detection. A **serializable** transaction also has the keys it read
//!   validated the same way at commit, so no transaction ever waits
//!   before it commits. Commits flow through the shared WAL and are
//!   replayable after a crash. Every domain gets the same guarantees:
//!   the challenge slide's per-model "hybrid consistency" is not offered.
//!
//! Keys are `(domain, key-bytes)` pairs, where a domain names a model
//! collection (`"doc/orders"`, `"kv/cart"`, `"graph/knows"`, …) — one
//! transaction spans them all, which is exactly what UniBench Workload C
//! exercises.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod mvcc;

pub use mvcc::{
    CommittedWrite, GroupCommitStats, IsolationLevel, MvccStore, Transaction, WeakMvccStore,
    WriteSet,
};

/// Every failpoint site this crate declares (see `mmdb-fault`). The
/// crash-recovery torture suite iterates this roster, so adding a
/// `fail_point!` here without extending the list fails that suite.
pub const FAILPOINT_SITES: &[&str] = &[
    "txn.group_commit.enqueue",
    "txn.group_commit.before_sync",
    "txn.group_commit.after_sync",
];
