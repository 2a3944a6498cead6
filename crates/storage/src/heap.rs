//! Heap record files: an unordered collection of variable-length records
//! spread over slotted pages, addressed by stable [`RecordId`]s.
//!
//! This is the storage shape under every PostgreSQL table — and, per the
//! tutorial's survey, under the JSON/XML columns those tables carry. The
//! heap keeps a simple free-space map (pages with room) so inserts don't
//! rescan the file.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::disk::PageId;
use mmdb_types::{lock_rank, Error, Result};

/// Stable address of a record: page number plus slot within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page the record lives on.
    pub page: PageId,
    /// Slot within that page.
    pub slot: u16,
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.page, self.slot)
    }
}

/// A heap file of records.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    state: Mutex<HeapState>,
}

struct HeapState {
    /// All pages of this heap, in allocation order.
    pages: Vec<PageId>,
    /// Pages believed to have free space (approximate; validated on use).
    free_pages: Vec<PageId>,
    /// Live record count.
    len: usize,
}

impl HeapFile {
    fn with_state(pool: Arc<BufferPool>, state: HeapState) -> Self {
        HeapFile { pool, state: Mutex::with_rank(lock_rank::HEAP_STATE, state) }
    }

    /// Create an empty heap over the given pool.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        Ok(Self::with_state(pool, HeapState { pages: Vec::new(), free_pages: Vec::new(), len: 0 }))
    }

    /// Rebuild heap bookkeeping from an explicit page list (used when a
    /// catalog re-opens a persisted heap).
    pub fn open(pool: Arc<BufferPool>, pages: Vec<PageId>) -> Result<Self> {
        let mut len = 0usize;
        let mut free_pages = Vec::new();
        for &pid in &pages {
            let (live, has_room) =
                pool.with_page(pid, |p| (p.iter().count(), p.fits(64)))?;
            len += live;
            if has_room {
                free_pages.push(pid);
            }
        }
        Ok(Self::with_state(pool, HeapState { pages, free_pages, len }))
    }

    /// Pages owned by this heap (for catalog persistence).
    pub fn pages(&self) -> Vec<PageId> {
        self.state.lock().pages.clone()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.state.lock().len
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a record, returning its id.
    pub fn insert(&self, record: &[u8]) -> Result<RecordId> {
        let mut state = self.state.lock();
        // Try pages from the free list, last first (most recently added).
        while let Some(&pid) = state.free_pages.last() {
            let slot = self.pool.with_page_mut(pid, |p| {
                if p.fits(record.len()) {
                    p.insert(record).map(Some)
                } else {
                    Ok(None)
                }
            })??;
            match slot {
                Some(slot) => {
                    state.len += 1;
                    return Ok(RecordId { page: pid, slot });
                }
                None => {
                    state.free_pages.pop();
                }
            }
        }
        // No page had room: allocate a new one.
        let pid = self.pool.allocate_page()?;
        let slot = self.pool.with_page_mut(pid, |p| p.insert(record))??;
        state.pages.push(pid);
        state.free_pages.push(pid);
        state.len += 1;
        Ok(RecordId { page: pid, slot })
    }

    /// Fetch a record by id.
    pub fn get(&self, id: RecordId) -> Result<Vec<u8>> {
        self.pool
            .with_page(id.page, |p| p.get(id.slot).map(<[u8]>::to_vec))?
    }

    /// Delete a record by id.
    pub fn delete(&self, id: RecordId) -> Result<()> {
        self.pool.with_page_mut(id.page, |p| p.delete(id.slot))??;
        let mut state = self.state.lock();
        state.len -= 1;
        if !state.free_pages.contains(&id.page) {
            state.free_pages.push(id.page);
        }
        Ok(())
    }

    /// Update a record in place when possible; relocates to another page
    /// when the new payload no longer fits, returning the (possibly new) id.
    pub fn update(&self, id: RecordId, record: &[u8]) -> Result<RecordId> {
        let in_place = self.pool.with_page_mut(id.page, |p| match p.update(id.slot, record) {
            Ok(()) => Ok(true),
            Err(Error::Storage(msg)) if msg == "page full" => Ok(false),
            Err(e) => Err(e),
        })??;
        if in_place {
            return Ok(id);
        }
        self.delete(id)?;
        self.insert(record)
    }

    /// Full scan, materializing `(id, record)` pairs page by page.
    pub fn scan(&self) -> Result<Vec<(RecordId, Vec<u8>)>> {
        let pages = self.state.lock().pages.clone();
        let mut out = Vec::new();
        for pid in pages {
            self.pool.with_page(pid, |p| {
                for (slot, rec) in p.iter() {
                    out.push((RecordId { page: pid, slot }, rec.to_vec()));
                }
            })?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn heap() -> HeapFile {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::in_memory()), 8));
        HeapFile::create(pool).unwrap()
    }

    #[test]
    fn insert_get_delete() {
        let h = heap();
        let id = h.insert(b"record one").unwrap();
        assert_eq!(h.get(id).unwrap(), b"record one");
        assert_eq!(h.len(), 1);
        h.delete(id).unwrap();
        assert!(h.get(id).is_err());
        assert!(h.is_empty());
    }

    #[test]
    fn spans_many_pages() {
        let h = heap();
        let big = vec![5u8; 3000]; // ~2 per page
        let ids: Vec<_> = (0..20).map(|_| h.insert(&big).unwrap()).collect();
        assert!(h.pages().len() >= 8, "3000B records should spread over pages");
        for id in &ids {
            assert_eq!(h.get(*id).unwrap().len(), 3000);
        }
        assert_eq!(h.len(), 20);
    }

    #[test]
    fn scan_returns_all_live_records() {
        let h = heap();
        let a = h.insert(b"a").unwrap();
        let b = h.insert(b"b").unwrap();
        let c = h.insert(b"c").unwrap();
        h.delete(b).unwrap();
        let got = h.scan().unwrap();
        let ids: Vec<_> = got.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![a, c]);
    }

    #[test]
    fn update_in_place_and_relocating() {
        let h = heap();
        let id = h.insert(&vec![1u8; 4000]).unwrap();
        // Fill the id's page so a grow must relocate.
        while h
            .pool
            .with_page(id.page, |p| p.fits(1000))
            .unwrap()
        {
            h.insert(&vec![2u8; 1000]).unwrap();
        }
        let shrunk = h.update(id, b"tiny").unwrap();
        assert_eq!(shrunk, id, "shrinking update stays in place");
        let grown = h.update(shrunk, &vec![3u8; 7000]).unwrap();
        assert_ne!(grown.page, id.page, "growing update must relocate");
        assert_eq!(h.get(grown).unwrap(), vec![3u8; 7000]);
    }

    #[test]
    fn deleted_space_is_reused() {
        let h = heap();
        let ids: Vec<_> = (0..10).map(|_| h.insert(&vec![9u8; 700]).unwrap()).collect();
        let pages_before = h.pages().len();
        for id in ids {
            h.delete(id).unwrap();
        }
        for _ in 0..10 {
            h.insert(&vec![8u8; 700]).unwrap();
        }
        assert_eq!(h.pages().len(), pages_before, "reinserts should reuse freed pages");
    }

    #[test]
    fn open_rebuilds_state() {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::in_memory()), 8));
        let h = HeapFile::create(Arc::clone(&pool)).unwrap();
        let id = h.insert(b"persisted").unwrap();
        h.insert(b"two").unwrap();
        let pages = h.pages();
        drop(h);
        let h2 = HeapFile::open(pool, pages).unwrap();
        assert_eq!(h2.len(), 2);
        assert_eq!(h2.get(id).unwrap(), b"persisted");
        // New inserts land in existing free space.
        h2.insert(b"three").unwrap();
        assert_eq!(h2.len(), 3);
    }
}
