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
use crate::page::{PageId, SlottedPage};
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
    /// Create an empty heap over the given pool.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let state = HeapState { pages: Vec::new(), free_pages: Vec::new(), len: 0 };
        Ok(HeapFile { pool, state: Mutex::with_rank(lock_rank::HEAP_STATE, state) })
    }

    /// Pages owned by this heap, in allocation order.
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
        let pid = self.pool.allocate_page();
        let slot = self.pool.with_page_mut(pid, |p| p.insert(record))??;
        state.pages.push(pid);
        state.free_pages.push(pid);
        state.len += 1;
        Ok(RecordId { page: pid, slot })
    }

    /// Read a record by id in place: `read` gets the record's bytes on
    /// the page, under the pool's lock, a leaf, so `read` takes no lock.
    /// Callers decode here instead of copying the bytes out first.
    pub fn get_with<R>(&self, id: RecordId, read: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.pool.with_page(id.page, |p| p.get(id.slot).map(read))?
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

    /// Full scan in place: `visit` gets each live record's id and bytes,
    /// in page and slot order, under the pool's lock, a leaf, so `visit`
    /// takes no lock. The lock is taken once per record, not per page, so
    /// a scan holds it for one record's decode at a time.
    pub fn scan_with(&self, mut visit: impl FnMut(RecordId, &[u8]) -> Result<()>) -> Result<()> {
        let pages = self.state.lock().pages.clone();
        for page in pages {
            let slots = self.pool.with_page(page, SlottedPage::slots)?;
            for slot in 0..slots {
                self.pool.with_page(page, |p| match p.live(slot) {
                    Some(rec) => visit(RecordId { page, slot }, rec),
                    None => Ok(()),
                })??;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> HeapFile {
        HeapFile::create(Arc::default()).unwrap()
    }

    #[test]
    fn insert_get_delete() {
        let h = heap();
        let id = h.insert(b"record one").unwrap();
        assert_eq!(h.get_with(id, <[u8]>::to_vec).unwrap(), b"record one");
        assert_eq!(h.len(), 1);
        h.delete(id).unwrap();
        assert!(h.get_with(id, <[u8]>::to_vec).is_err());
        assert!(h.is_empty());
    }

    #[test]
    fn spans_many_pages() {
        let h = heap();
        let big = vec![5u8; 3000]; // ~2 per page
        let ids: Vec<_> = (0..20).map(|_| h.insert(&big).unwrap()).collect();
        assert!(h.pages().len() >= 8, "3000B records should spread over pages");
        for id in &ids {
            assert_eq!(h.get_with(*id, <[u8]>::len).unwrap(), 3000);
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
        let mut got = Vec::new();
        h.scan_with(|id, rec| {
            got.push((id, rec.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(got, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
        // A visitor's error ends the scan and is returned.
        let mut seen = 0;
        let err = h.scan_with(|_, _| {
            seen += 1;
            Err(Error::Storage("stop".into()))
        });
        assert_eq!((err.unwrap_err().kind(), seen), ("storage", 1));
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
        assert_eq!(h.get_with(grown, <[u8]>::to_vec).unwrap(), vec![3u8; 7000]);
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
}
