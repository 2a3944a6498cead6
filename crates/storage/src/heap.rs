//! Heap record files: an unordered collection of variable-length records
//! addressed by stable [`RecordId`]s.
//!
//! A heap is a slot table: slot `i` holds record `i` as its own boxed
//! slice, or nothing once the record is deleted, and a free list hands
//! deleted slots to later inserts. A record of any size fits, and a
//! replace never moves a record, so an id stays valid until its record is
//! deleted. The write-ahead log is the engine's only durable copy of the
//! data; the heaps are views the commit hook rebuilds from it on open.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use mmdb_types::{Error, Result};

/// Stable address of a record: its slot in the heap's slot table.
pub type RecordId = u32;

/// A heap file of records.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    /// A leaf lock: readers decode records under it, and take nothing.
    slots: Mutex<Slots>,
}

#[derive(Default)]
struct Slots {
    records: Vec<Option<Box<[u8]>>>,
    /// Slots whose record was deleted, reused last-freed first.
    free: Vec<RecordId>,
}

impl Slots {
    fn live_mut(&mut self, id: RecordId) -> Result<&mut Option<Box<[u8]>>> {
        match self.records.get_mut(id as usize) {
            Some(slot @ Some(_)) => Ok(slot),
            _ => Err(no_record(id)),
        }
    }
}

fn no_record(id: RecordId) -> Error {
    Error::Storage(format!("no record in slot {id}"))
}

impl HeapFile {
    /// An empty heap whose accesses count in `pool`.
    pub fn new(pool: Arc<BufferPool>) -> HeapFile {
        HeapFile { pool, slots: Mutex::new(Slots::default()) }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        let slots = self.slots.lock();
        slots.records.len() - slots.free.len()
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a record, taking its bytes, and return its id.
    pub fn insert(&self, record: Vec<u8>) -> Result<RecordId> {
        let record = Some(record.into_boxed_slice());
        let mut slots = self.slots.lock();
        self.pool.hit();
        if let Some(id) = slots.free.pop() {
            slots.records[id as usize] = record;
            return Ok(id);
        }
        let id = RecordId::try_from(slots.records.len())
            .map_err(|_| Error::Storage("heap slot table is full".into()))?;
        slots.records.push(record);
        Ok(id)
    }

    /// Replace the record at `id` with `record`, taking its bytes; the id
    /// stays the record's.
    pub fn replace(&self, id: RecordId, record: Vec<u8>) -> Result<()> {
        let record = record.into_boxed_slice();
        let mut slots = self.slots.lock();
        self.pool.hit();
        *slots.live_mut(id)? = Some(record);
        Ok(())
    }

    /// Read a record by id in place: `read` gets the record's bytes under
    /// the heap's lock, a leaf, so `read` takes no lock. Callers decode
    /// here instead of copying the bytes out first.
    pub fn get_with<R>(&self, id: RecordId, read: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.try_get_with(id, read).ok_or_else(|| no_record(id))
    }

    /// As [`get_with`](Self::get_with), but `None` when slot `id` holds
    /// no record: for an id read under a lock that no longer covers it.
    pub fn try_get_with<R>(&self, id: RecordId, read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let slots = self.slots.lock();
        self.pool.hit();
        slots.records.get(id as usize)?.as_deref().map(read)
    }

    /// Delete a record by id; its slot goes to a later insert.
    pub fn delete(&self, id: RecordId) -> Result<()> {
        let mut slots = self.slots.lock();
        self.pool.hit();
        *slots.live_mut(id)? = None;
        slots.free.push(id);
        Ok(())
    }

    /// Full scan in place: `visit` gets each live record's id and bytes,
    /// in slot order, under the heap's lock, a leaf, so `visit` takes no
    /// lock. The lock is taken once per record, so a scan holds it for
    /// one record's decode at a time.
    pub fn scan_with(&self, mut visit: impl FnMut(RecordId, &[u8]) -> Result<()>) -> Result<()> {
        let mut next = 0;
        loop {
            let slots = self.slots.lock();
            let mut live = slots.records.iter().enumerate().skip(next);
            let Some((at, record)) = live.find_map(|(at, r)| Some((at, r.as_deref()?))) else {
                return Ok(());
            };
            self.pool.hit();
            visit(at as RecordId, record)?;
            next = at + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> HeapFile {
        HeapFile::new(Arc::default())
    }

    fn ids(h: &HeapFile) -> Vec<RecordId> {
        let mut ids = Vec::new();
        h.scan_with(|id, _| {
            ids.push(id);
            Ok(())
        })
        .unwrap();
        ids
    }

    #[test]
    fn insert_get_delete() {
        let h = heap();
        let id = h.insert(b"record one".to_vec()).unwrap();
        assert_eq!(h.get_with(id, <[u8]>::to_vec).unwrap(), b"record one");
        assert_eq!(h.len(), 1);
        h.delete(id).unwrap();
        assert_eq!(h.get_with(id, <[u8]>::to_vec).unwrap_err().kind(), "storage");
        assert_eq!(h.delete(id).unwrap_err().kind(), "storage");
        assert_eq!(h.replace(id, b"x".to_vec()).unwrap_err().kind(), "storage");
        assert!(h.is_empty());
    }

    #[test]
    fn a_record_of_a_mebibyte_round_trips_and_keeps_its_id() {
        let h = heap();
        let small = h.insert(b"small".to_vec()).unwrap();
        let big: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        let id = h.insert(big.clone()).unwrap();
        assert_eq!(h.get_with(id, <[u8]>::to_vec).unwrap(), big);
        // Growing and shrinking a record leave it, and its neighbour, where
        // they are.
        h.replace(small, vec![3u8; 1 << 20]).unwrap();
        h.replace(id, b"tiny".to_vec()).unwrap();
        assert_eq!(h.get_with(small, <[u8]>::len).unwrap(), 1 << 20);
        assert_eq!(h.get_with(id, <[u8]>::to_vec).unwrap(), b"tiny");
        assert_eq!((h.len(), ids(&h)), (2, vec![small, id]));
    }

    #[test]
    fn scan_returns_all_live_records_in_slot_order() {
        let h = heap();
        let a = h.insert(b"a".to_vec()).unwrap();
        let b = h.insert(b"b".to_vec()).unwrap();
        let c = h.insert(b"c".to_vec()).unwrap();
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
    fn deleted_slots_are_reused() {
        let h = heap();
        let first: Vec<_> = (0..10).map(|i| h.insert(vec![i; 700]).unwrap()).collect();
        for &id in &first {
            h.delete(id).unwrap();
        }
        let mut again: Vec<_> = (0..10).map(|i| h.insert(vec![i; 700]).unwrap()).collect();
        again.sort_unstable();
        assert_eq!(again, first, "reinserts take the freed slots");
        assert_eq!(h.insert(b"new".to_vec()).unwrap(), 10);
    }

    #[test]
    fn every_access_counts_in_the_pool() {
        let pool = Arc::new(BufferPool::default());
        let h = HeapFile::new(Arc::clone(&pool));
        let id = h.insert(b"x".to_vec()).unwrap();
        h.insert(b"y".to_vec()).unwrap();
        h.get_with(id, |_| ()).unwrap();
        h.replace(id, b"z".to_vec()).unwrap();
        h.delete(id).unwrap();
        h.scan_with(|_, _| Ok(())).unwrap();
        assert_eq!((pool.stats().hits, pool.stats().misses), (6, 0));
    }
}
