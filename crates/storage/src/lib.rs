//! # mmdb-storage — the storage substrate
//!
//! Every storage strategy the EDBT 2017 tutorial surveys lives here:
//!
//! * [`page`] / [`disk`] / [`buffer`] / [`heap`] — the classical
//!   relational-style stack: 8 KiB slotted pages in files, a CLOCK buffer
//!   pool, heap record files addressed by [`heap::RecordId`]. PostgreSQL,
//!   Oracle and DB2 store their relational *and* their JSON/XML payloads
//!   this way, so every mmdb model can too.
//! * [`wal`] — a redo-only write-ahead log with CRC-checked records and
//!   crash recovery, shared by all models (the tutorial's "one system
//!   implements fault tolerance" argument for multi-model databases).
//! * [`lsm`] — a memtable + SSTable log-structured merge engine in the
//!   style of Cassandra/Bigtable ("SSTables — proposed in Google system
//!   Bigtable"), used by the key/value model.
//! * [`logstore`] — OctopusDB's "one size fits all" architecture: a single
//!   central log of all writes, with optional *storage views* (row, column,
//!   index) materialized from it, and a view advisor that turns query
//!   optimization + index selection into one storage-view-selection
//!   problem. Benchmarked as ablation E7.

use std::fs::File;

pub mod buffer;
pub mod disk;
pub mod heap;
pub mod logstore;
pub mod lsm;
pub mod page;
pub mod snapshot;
pub mod wal;

pub use buffer::BufferPool;
pub use disk::{DiskManager, PageId, PAGE_SIZE};
pub use heap::{HeapFile, RecordId};
pub use wal::{LoggedWrite, Lsn, TailedRecord, Wal, WalRecord};

/// The storage layer's one way to fsync; `sync` is `File::sync_data`
/// (contents and length, all an append-only log or a fixed-size page file
/// needs) or `File::sync_all`. Announced first to the hot-thread witness
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
    "disk.write_page",
    "buffer.flush",
    "lsm.flush",
    "lsm.compact",
    "ckpt.snapshot_write",
    "ckpt.snapshot_rename",
    "ckpt.marker_append",
    "ckpt.wal_truncate",
];
