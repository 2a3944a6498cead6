//! # mmdb-storage — the storage substrate
//!
//! Every storage strategy the EDBT 2017 tutorial surveys lives here:
//!
//! * [`heap`] — heap record files: a slot table of records of any size,
//!   addressed by [`heap::RecordId`], the slot's index, and held in
//!   memory only (the WAL is the durable copy). Every mmdb model that
//!   keeps records keeps them this way. [`buffer`] is the access counter
//!   the heaps of one store share.
//! * [`wal`] — a redo-only write-ahead log with CRC-checked records and
//!   crash recovery, shared by all models (the tutorial's "one system
//!   implements fault tolerance" argument for multi-model databases).
//!   With the version store above it, this is OctopusDB's central log;
//!   the model stores and their indexes are its storage views (E7).
//! * [`lsm`] — a memtable + SSTable log-structured merge engine in the
//!   style of Cassandra/Bigtable ("SSTables — proposed in Google system
//!   Bigtable"), used by the key/value model.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

use std::fs::File;

pub mod buffer;
pub mod heap;
pub mod lsm;
pub mod wal;

pub use buffer::BufferPool;
pub use heap::{HeapFile, RecordId};
pub use wal::{LoggedWrite, Lsn, TailedRecord, Wal, WalRecord};

/// The storage layer's one way to fsync; `sync` is `File::sync_data`
/// (contents and length, all an append-only log needs) or
/// `File::sync_all`. Announced first to the hot-thread witness
/// (`parking_lot::about_to_wait`, debug builds): a thread that must never
/// wait may not be the one that syncs.
pub(crate) fn durable_sync(
    file: &File,
    sync: fn(&File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    parking_lot::about_to_wait("fsyncing a file");
    sync(file)
}

/// Every failpoint site this crate declares (see `mmdb-fault`). The
/// crash-recovery torture suite iterates this roster, so adding a
/// `fail_point!` here without extending the list fails that suite.
pub const FAILPOINT_SITES: &[&str] = &[
    "wal.append",
    "wal.sync",
    "lsm.flush",
    "lsm.compact",
    "ckpt.wal_rewrite",
    "ckpt.marker_append",
];
