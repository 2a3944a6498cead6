//! The buffer pool: all that is left of it is the counter of record
//! accesses it reports.
//!
//! Each [`HeapFile`](crate::HeapFile) owns its records; the heaps that
//! share a pool count every insert, replace, delete, read and scanned
//! record in it. Nothing is cached, so no access misses.

use std::sync::atomic::{AtomicU64, Ordering};

/// The access counter the heaps of one store share.
#[derive(Default)]
pub struct BufferPool {
    hits: AtomicU64,
}

/// Access counters for observability and the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Record accesses.
    pub hits: u64,
    /// Always 0: every record is in memory, so no access misses. The
    /// field is kept because the benchmark reports it.
    pub misses: u64,
}

impl BufferPool {
    /// Count one record access.
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic statistic bumped by concurrent heaps; publishes nothing
    }

    /// Current access counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats { hits: self.hits.load(Ordering::Relaxed), misses: 0 } // relaxed: monotonic statistic; publishes nothing
    }
}
