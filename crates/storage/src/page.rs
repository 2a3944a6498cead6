//! Slotted pages — the classical in-page record layout.
//!
//! Layout of an 8 KiB page:
//!
//! ```text
//! +--------------+-----------------------+------------------+
//! | header 16 B  | slot array (grows →)  | ← record payload |
//! +--------------+-----------------------+------------------+
//! ```
//!
//! The header stores slot count and the free-space boundary. Each 4-byte
//! slot holds `(offset: u16, len: u16)`; a deleted slot has `len == 0` and
//! `offset == 0`. Record payloads grow from the end of the page toward the
//! slot array; [`SlottedPage::compact`] reclaims holes left by deletes and
//! in-place-shrink updates.

use mmdb_types::{Error, Result};

/// Fixed page size, 8 KiB like PostgreSQL's default.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within one buffer pool.
pub type PageId = u64;

const HEADER_SIZE: usize = 16;
const SLOT_SIZE: usize = 4;
/// Largest payload a single page can host.
pub const MAX_RECORD_SIZE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// A typed view over one page's bytes providing slotted-record operations.
///
/// The page owns its buffer (a boxed array) so it can live in the buffer
/// pool's page table.
pub struct SlottedPage {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl SlottedPage {
    /// A fresh, empty page.
    pub fn new() -> Self {
        #[expect(clippy::expect_used, reason = "a vec of exactly PAGE_SIZE bytes; the fixed-size conversion is infallible")]
        let mut p = SlottedPage {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().expect("size"),
        };
        p.set_slot_count(0);
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.data[0], self.data[1]])
    }

    fn set_slot_count(&mut self, n: u16) {
        self.data[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    fn set_free_end(&mut self, v: u16) {
        self.data[2..4].copy_from_slice(&v.to_le_bytes());
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let base = HEADER_SIZE + idx as usize * SLOT_SIZE;
        (
            u16::from_le_bytes([self.data[base], self.data[base + 1]]),
            u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]),
        )
    }

    fn set_slot(&mut self, idx: u16, offset: u16, len: u16) {
        let base = HEADER_SIZE + idx as usize * SLOT_SIZE;
        self.data[base..base + 2].copy_from_slice(&offset.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Contiguous free bytes between the slot array and the payload area.
    pub fn contiguous_free(&self) -> usize {
        self.free_end() as usize - (HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE)
    }

    /// Total reclaimable free bytes (contiguous + holes from deletes).
    pub fn total_free(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .map(|i| self.slot(i).1 as usize)
            .sum();
        PAGE_SIZE - HEADER_SIZE - self.slot_count() as usize * SLOT_SIZE - live
    }

    /// Number of slots (live + dead).
    pub fn slots(&self) -> u16 {
        self.slot_count()
    }

    /// Whether `len` more bytes fit, possibly after compaction, possibly
    /// reusing a dead slot.
    pub fn fits(&self, len: usize) -> bool {
        let slot_cost = if self.find_dead_slot().is_some() { 0 } else { SLOT_SIZE };
        self.total_free() >= len + slot_cost
    }

    fn find_dead_slot(&self) -> Option<u16> {
        (0..self.slot_count()).find(|&i| {
            let (off, len) = self.slot(i);
            off == 0 && len == 0
        })
    }

    /// Insert a record, returning its slot number.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        if record.len() > MAX_RECORD_SIZE {
            return Err(Error::Storage(format!(
                "record of {} bytes exceeds page capacity",
                record.len()
            )));
        }
        if record.is_empty() {
            return Err(Error::Storage("empty records are not storable".into()));
        }
        if !self.fits(record.len()) {
            return Err(Error::Storage("page full".into()));
        }
        let reuse = self.find_dead_slot();
        let slot_cost = if reuse.is_some() { 0 } else { SLOT_SIZE };
        if self.contiguous_free() < record.len() + slot_cost {
            self.compact();
        }
        let new_end = self.free_end() as usize - record.len();
        self.data[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end as u16);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        self.set_slot(slot, new_end as u16, record.len() as u16);
        Ok(slot)
    }

    /// Read a record by slot.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        if slot >= self.slot_count() {
            return Err(Error::Storage(format!("slot {slot} out of range")));
        }
        self.live(slot)
            .ok_or_else(|| Error::NotFound(format!("slot {slot} is deleted")))
    }

    /// Delete a record; the slot is reusable and its space reclaimable.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        self.get(slot)?; // range & liveness check
        self.set_slot(slot, 0, 0);
        Ok(())
    }

    /// Update in place. Shrinking/equal updates reuse the old location;
    /// growing updates need page space (caller must relocate when this
    /// returns `Err(Storage("page full"))`).
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Result<()> {
        let (off, len) = {
            self.get(slot)?;
            self.slot(slot)
        };
        if record.len() <= len as usize {
            let off = off as usize;
            self.data[off..off + record.len()].copy_from_slice(record);
            self.set_slot(slot, off as u16, record.len() as u16);
            return Ok(());
        }
        // Grow: free the old space, then place like an insert into this slot.
        self.set_slot(slot, 0, 0);
        if self.total_free() < record.len() {
            // Restore the old record's slot before failing.
            self.set_slot(slot, off, len);
            return Err(Error::Storage("page full".into()));
        }
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        let new_end = self.free_end() as usize - record.len();
        self.data[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end as u16);
        self.set_slot(slot, new_end as u16, record.len() as u16);
        Ok(())
    }

    /// The record in `slot`, or `None` when the slot is dead or past the
    /// last one.
    pub fn live(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        (len != 0).then(|| &self.data[off as usize..off as usize + len as usize])
    }

    /// Iterate live `(slot, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |i| Some((i, self.live(i)?)))
    }

    /// Rewrite all live records contiguously at the page end, eliminating
    /// holes. Slot numbers are stable (they are external identifiers).
    pub fn compact(&mut self) {
        let live: Vec<(u16, Vec<u8>)> = self
            .iter()
            .map(|(slot, rec)| (slot, rec.to_vec()))
            .collect();
        let mut end = PAGE_SIZE;
        for (slot, rec) in &live {
            end -= rec.len();
            self.data[end..end + rec.len()].copy_from_slice(rec);
            self.set_slot(*slot, end as u16, rec.len() as u16);
        }
        self.set_free_end(end as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_ne!(a, b);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"aaa").unwrap();
        let _b = p.insert(b"bbb").unwrap();
        p.delete(a).unwrap();
        assert!(p.get(a).is_err());
        let c = p.insert(b"ccc").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
        assert_eq!(p.get(c).unwrap(), b"ccc");
    }

    #[test]
    fn update_shrink_and_grow() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"0123456789").unwrap();
        p.update(s, b"abc").unwrap();
        assert_eq!(p.get(s).unwrap(), b"abc");
        p.update(s, b"a longer record than before").unwrap();
        assert_eq!(p.get(s).unwrap(), b"a longer record than before");
    }

    #[test]
    fn fill_page_then_overflow() {
        let mut p = SlottedPage::new();
        let rec = vec![7u8; 100];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        assert!(n >= 70, "should fit ~78 x 104-byte entries, got {n}");
        assert!(matches!(p.insert(&rec), Err(Error::Storage(_))));
    }

    #[test]
    fn compaction_reclaims_holes() {
        let mut p = SlottedPage::new();
        let rec = vec![1u8; 1000];
        let mut slots = Vec::new();
        while p.fits(rec.len()) {
            slots.push(p.insert(&rec).unwrap());
        }
        // Delete every other record: total free grows but contiguous
        // space stays small until compaction.
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        let big = vec![2u8; 2500];
        assert!(p.fits(big.len()));
        let s = p.insert(&big).unwrap(); // triggers internal compaction
        assert_eq!(p.get(s).unwrap(), &big[..]);
        // Survivors are intact after compaction.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.get(*s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn oversized_and_empty_records_rejected() {
        let mut p = SlottedPage::new();
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_err());
        assert!(p.insert(b"").is_err());
    }

    #[test]
    fn failed_grow_update_preserves_old_record() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"small").unwrap();
        // Fill the page so growth cannot succeed.
        while p.fits(64) {
            p.insert(&[9u8; 64]).unwrap();
        }
        let huge = vec![3u8; 7000];
        assert!(p.update(s, &huge).is_err());
        assert_eq!(p.get(s).unwrap(), b"small", "old record must survive a failed update");
    }

    #[test]
    fn iter_skips_deleted() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b).unwrap();
        let live: Vec<u16> = p.iter().map(|(s, _)| s).collect();
        assert_eq!(live, vec![a, c]);
    }
}
