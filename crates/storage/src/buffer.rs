//! A CLOCK buffer pool over a [`DiskManager`].
//!
//! The pool caches a fixed number of pages. Callers access pages through
//! [`BufferPool::with_page`] / [`BufferPool::with_page_mut`], which pin the
//! frame for the duration of the closure; eviction (second-chance CLOCK)
//! only considers unpinned frames and writes dirty victims back first.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::disk::{DiskManager, PageId, PAGE_SIZE};
use crate::page::SlottedPage;
use mmdb_types::{lock_rank, Error, Result};

struct Frame {
    page_id: PageId,
    page: SlottedPage,
    dirty: bool,
    pins: u32,
    referenced: bool,
}

struct PoolInner {
    frames: Vec<Option<Frame>>,
    map: HashMap<PageId, usize>,
    clock_hand: usize,
    hits: u64,
    misses: u64,
}

/// Shared, thread-safe buffer pool of slotted pages.
pub struct BufferPool {
    disk: Arc<DiskManager>,
    inner: Mutex<PoolInner>,
    capacity: usize,
}

/// Cache statistics for observability and the storage benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that had to read from the backend.
    pub misses: u64,
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`.
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            disk,
            inner: Mutex::with_rank(
                lock_rank::POOL_INNER,
                PoolInner {
                    frames: (0..capacity).map(|_| None).collect(),
                    map: HashMap::new(),
                    clock_hand: 0,
                    hits: 0,
                    misses: 0,
                },
            ),
            capacity,
        }
    }

    /// The underlying disk manager (for page allocation).
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// Allocate a fresh page and format it as an empty slotted page.
    pub fn allocate_page(&self) -> Result<PageId> {
        let id = self.disk.allocate();
        // Materialize the empty page so later reads of it succeed.
        self.disk.write_page(id, SlottedPage::new().bytes().as_slice())?;
        Ok(id)
    }

    /// Read access to a page. The frame is pinned for the closure's
    /// duration (the pool mutex is held, keeping the implementation simple;
    /// closures must not re-enter the pool for the *same* pool instance).
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&SlottedPage) -> R) -> Result<R> {
        let mut inner = self.inner.lock();
        let idx = self.load(&mut inner, id)?;
        let frame = inner.frames[idx].as_mut().expect("loaded"); // lint: allow(panic, load() just pinned this frame index, so the slot is occupied)
        frame.referenced = true;
        Ok(f(&frame.page))
    }

    /// Write access to a page; marks the frame dirty.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut SlottedPage) -> R,
    ) -> Result<R> {
        let mut inner = self.inner.lock();
        let idx = self.load(&mut inner, id)?;
        let frame = inner.frames[idx].as_mut().expect("loaded"); // lint: allow(panic, load() just pinned this frame index, so the slot is occupied)
        frame.referenced = true;
        frame.dirty = true;
        Ok(f(&mut frame.page))
    }

    fn load(&self, inner: &mut PoolInner, id: PageId) -> Result<usize> {
        if let Some(&idx) = inner.map.get(&id) {
            inner.hits += 1;
            return Ok(idx);
        }
        inner.misses += 1;
        let idx = self.find_victim(inner)?;
        if let Some(old) = inner.frames[idx].take() {
            if old.dirty {
                self.disk.write_page(old.page_id, old.page.bytes().as_slice())?;
            }
            inner.map.remove(&old.page_id);
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        self.disk.read_page(id, &mut buf)?;
        let page = SlottedPage::from_bytes(&buf)?;
        inner.frames[idx] = Some(Frame {
            page_id: id,
            page,
            dirty: false,
            pins: 0,
            referenced: true,
        });
        inner.map.insert(id, idx);
        Ok(idx)
    }

    fn find_victim(&self, inner: &mut PoolInner) -> Result<usize> {
        // First pass: any empty frame.
        if let Some(idx) = inner.frames.iter().position(Option::is_none) {
            return Ok(idx);
        }
        // CLOCK: sweep until a frame with referenced == false and no pins.
        // Two full sweeps guarantee termination when nothing is pinned.
        for _ in 0..self.capacity * 2 {
            let idx = inner.clock_hand;
            inner.clock_hand = (inner.clock_hand + 1) % self.capacity;
            let frame = inner.frames[idx].as_mut().expect("full"); // lint: allow(panic, eviction only runs once every frame slot is occupied)
            if frame.pins > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
            } else {
                return Ok(idx);
            }
        }
        Err(Error::Storage("buffer pool exhausted: all frames pinned".into()))
    }

    /// Write all dirty frames back and fsync.
    pub fn flush_all(&self) -> Result<()> {
        mmdb_fault::fail_point!("buffer.flush", |msg| Error::Storage(format!(
            "buffer flush: {msg}"
        )));
        let mut inner = self.inner.lock();
        for frame in inner.frames.iter_mut().flatten() {
            if frame.dirty {
                self.disk.write_page(frame.page_id, frame.page.bytes().as_slice())?;
                frame.dirty = false;
            }
        }
        self.disk.sync()
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock();
        PoolStats { hits: inner.hits, misses: inner.misses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Arc::new(DiskManager::in_memory()), frames)
    }

    #[test]
    fn read_your_writes_through_cache() {
        let bp = pool(4);
        let id = bp.allocate_page().unwrap();
        let slot = bp.with_page_mut(id, |p| p.insert(b"cached")).unwrap().unwrap();
        let data = bp.with_page(id, |p| p.get(slot).map(<[u8]>::to_vec)).unwrap().unwrap();
        assert_eq!(data, b"cached");
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let bp = pool(2);
        let ids: Vec<_> = (0..6).map(|_| bp.allocate_page().unwrap()).collect();
        let mut slots = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let rec = format!("record-{i}");
            slots.push(bp.with_page_mut(id, |p| p.insert(rec.as_bytes())).unwrap().unwrap());
        }
        // With 2 frames and 6 pages, most pages were evicted; re-read all.
        for (i, &id) in ids.iter().enumerate() {
            let rec = bp
                .with_page(id, |p| p.get(slots[i]).map(<[u8]>::to_vec))
                .unwrap()
                .unwrap();
            assert_eq!(rec, format!("record-{i}").as_bytes());
        }
        let s = bp.stats();
        assert!(s.misses >= 6, "evictions should force re-reads: {s:?}");
    }

    #[test]
    fn hits_counted_for_resident_pages() {
        let bp = pool(4);
        let id = bp.allocate_page().unwrap();
        bp.with_page_mut(id, |p| p.insert(b"x")).unwrap().unwrap();
        for _ in 0..10 {
            bp.with_page(id, |_| ()).unwrap();
        }
        let s = bp.stats();
        assert!(s.hits >= 10);
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        use std::sync::Arc as A;
        let bp = A::new(pool(4));
        let ids: Vec<_> = (0..8).map(|_| bp.allocate_page().unwrap()).collect();
        // Seed one record per page.
        let slots: Vec<u16> = ids
            .iter()
            .map(|&id| bp.with_page_mut(id, |p| p.insert(b"seed")).unwrap().unwrap())
            .collect();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let bp = A::clone(&bp);
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

    #[test]
    fn flush_all_persists_to_disk() {
        let disk = Arc::new(DiskManager::in_memory());
        let bp = BufferPool::new(Arc::clone(&disk), 2);
        let id = bp.allocate_page().unwrap();
        let slot = bp.with_page_mut(id, |p| p.insert(b"durable")).unwrap().unwrap();
        bp.flush_all().unwrap();
        // Bypass the pool and read the raw page.
        let mut buf = vec![0u8; PAGE_SIZE];
        disk.read_page(id, &mut buf).unwrap();
        let page = SlottedPage::from_bytes(&buf).unwrap();
        assert_eq!(page.get(slot).unwrap(), b"durable");
    }
}
