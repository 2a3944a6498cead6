//! The buffer pool: the one home of every slotted page the heap files use.
//!
//! Pages sit in a table indexed by [`PageId`] for the life of the pool;
//! nothing is evicted, copied or written back. The write-ahead log is the
//! engine's only durable copy of the data, and the heaps on these pages
//! are views the commit hook rebuilds from it on open. Callers reach a
//! page through [`BufferPool::with_page`] / [`BufferPool::with_page_mut`],
//! which hold the pool's lock (a leaf) for the closure's duration.

use parking_lot::Mutex;

use crate::page::{PageId, SlottedPage};
use mmdb_types::{Error, Result};

#[derive(Default)]
struct PoolInner {
    pages: Vec<SlottedPage>,
    hits: u64,
}

/// Shared, thread-safe table of slotted pages.
#[derive(Default)]
pub struct BufferPool {
    inner: Mutex<PoolInner>,
}

/// Access counters for observability and the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Page accesses.
    pub hits: u64,
    /// Always 0: every page stays in the pool, so no access misses. The
    /// field is kept because the benchmark reports it.
    pub misses: u64,
}

fn unallocated(id: PageId) -> Error {
    Error::Storage(format!("access to unallocated page {id}"))
}

impl BufferPool {
    /// Allocate a fresh, empty slotted page.
    pub fn allocate_page(&self) -> PageId {
        let mut inner = self.inner.lock();
        inner.pages.push(SlottedPage::new());
        (inner.pages.len() - 1) as PageId
    }

    /// Read access to a page. Closures must not re-enter the same pool.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&SlottedPage) -> R) -> Result<R> {
        let mut inner = self.inner.lock();
        inner.hits += 1;
        let page = inner.pages.get(id as usize).ok_or_else(|| unallocated(id))?;
        Ok(f(page))
    }

    /// Write access to a page.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut SlottedPage) -> R,
    ) -> Result<R> {
        let mut inner = self.inner.lock();
        inner.hits += 1;
        let page = inner.pages.get_mut(id as usize).ok_or_else(|| unallocated(id))?;
        Ok(f(page))
    }

    /// Current access counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats { hits: self.inner.lock().hits, misses: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_your_writes() {
        let bp = BufferPool::default();
        let id = bp.allocate_page();
        let slot = bp.with_page_mut(id, |p| p.insert(b"kept")).unwrap().unwrap();
        let data = bp.with_page(id, |p| p.get(slot).map(<[u8]>::to_vec)).unwrap().unwrap();
        assert_eq!(data, b"kept");
    }

    #[test]
    fn every_access_is_a_hit_and_unallocated_pages_are_errors() {
        let bp = BufferPool::default();
        let id = bp.allocate_page();
        bp.with_page_mut(id, |p| p.insert(b"x")).unwrap().unwrap();
        for _ in 0..10 {
            bp.with_page(id, |_| ()).unwrap();
        }
        assert_eq!(bp.stats(), PoolStats { hits: 11, misses: 0 });
        assert_eq!(bp.with_page(id + 1, |_| ()).unwrap_err().kind(), "storage");
        assert_eq!(bp.with_page_mut(id + 1, |_| ()).unwrap_err().kind(), "storage");
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let bp = Arc::new(BufferPool::default());
        let ids: Vec<_> = (0..8).map(|_| bp.allocate_page()).collect();
        // Seed one record per page.
        let slots: Vec<u16> = ids
            .iter()
            .map(|&id| bp.with_page_mut(id, |p| p.insert(b"seed")).unwrap().unwrap())
            .collect();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let bp = Arc::clone(&bp);
                let ids = ids.clone();
                let slots = slots.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let k = (t * 31 + i) % ids.len();
                        let data = bp
                            .with_page(ids[k], |p| p.get(slots[k]).map(<[u8]>::to_vec))
                            .unwrap()
                            .unwrap();
                        assert_eq!(data, b"seed");
                        // Interleave writes to other slots.
                        bp.with_page_mut(ids[k], |p| {
                            let s = p.insert(b"tmp").unwrap();
                            p.delete(s).unwrap();
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for (id, slot) in ids.iter().zip(&slots) {
            let data = bp.with_page(*id, |p| p.get(*slot).map(<[u8]>::to_vec)).unwrap().unwrap();
            assert_eq!(data, b"seed");
        }
    }
}
