//! A log-structured merge engine: memtable + SSTables.
//!
//! Cassandra — the tutorial's column-family example — stores everything in
//! *SSTables (Sorted String Tables), proposed in Google's Bigtable*. This
//! module reproduces that stack in miniature: an in-memory sorted memtable
//! absorbs writes; when it exceeds a threshold it is flushed to an
//! immutable, bloom-filtered, sorted run; size-tiered compaction merges
//! runs; deletes are tombstones that survive until full compaction.
//!
//! The key/value model (`mmdb-kv`) runs on this engine.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use mmdb_types::{Error, Result};

/// A write: present value or tombstone.
type Entry = Option<Vec<u8>>;

/// Simple double-hashed bloom filter over byte keys.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: usize,
    n_hashes: u32,
}

impl BloomFilter {
    /// Size the filter for `n` keys at ~1% false-positive rate.
    pub fn with_capacity(n: usize) -> Self {
        let n_bits = (n.max(1) * 10).next_power_of_two();
        BloomFilter {
            bits: vec![0u64; n_bits / 64 + 1],
            n_bits,
            n_hashes: 7,
        }
    }

    fn hash2(key: &[u8]) -> (u64, u64) {
        // FNV-1a with two different offsets gives independent-enough hashes.
        let mut h1: u64 = 0xcbf29ce484222325;
        let mut h2: u64 = 0x9e3779b97f4a7c15;
        for &b in key {
            h1 = (h1 ^ b as u64).wrapping_mul(0x100000001b3);
            h2 = (h2 ^ b as u64).wrapping_mul(0xc2b2ae3d27d4eb4f);
        }
        (h1, h2.max(1))
    }

    /// Record a key.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = Self::hash2(key);
        for i in 0..self.n_hashes {
            let bit = (h1.wrapping_add(h2.wrapping_mul(i as u64)) % self.n_bits as u64) as usize;
            self.bits[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// May the key be present? (false ⇒ definitely absent).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = Self::hash2(key);
        (0..self.n_hashes).all(|i| {
            let bit = (h1.wrapping_add(h2.wrapping_mul(i as u64)) % self.n_bits as u64) as usize;
            self.bits[bit / 64] & (1 << (bit % 64)) != 0
        })
    }
}

/// An immutable sorted run.
pub struct SsTable {
    entries: Vec<(Vec<u8>, Entry)>,
    bloom: BloomFilter,
}

impl SsTable {
    fn from_sorted(entries: Vec<(Vec<u8>, Entry)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "must be sorted+deduped");
        let mut bloom = BloomFilter::with_capacity(entries.len());
        for (k, _) in &entries {
            bloom.insert(k);
        }
        SsTable { entries, bloom }
    }

    /// Point lookup. `None` = key absent from this run; `Some(None)` =
    /// tombstone; `Some(Some(v))` = live value.
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        if !self.bloom.may_contain(key) {
            return None;
        }
        self.entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Number of entries (incl. tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the run holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Flush the memtable once it holds this many bytes of keys+values.
    pub memtable_bytes: usize,
    /// Merge a tier once it accumulates this many runs.
    pub tier_fanout: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig { memtable_bytes: 1 << 20, tier_fanout: 4 }
    }
}

/// Counters exposed for the storage benches and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct LsmStats {
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compaction merges performed.
    pub compactions: u64,
    /// Lookups short-circuited by a bloom filter.
    pub bloom_skips: u64,
}

/// The LSM tree.
pub struct LsmTree {
    config: LsmConfig,
    memtable: BTreeMap<Vec<u8>, Entry>,
    memtable_bytes: usize,
    /// Runs from newest (index 0) to oldest.
    tables: Vec<SsTable>,
    flushes: u64,
    compactions: u64,
    /// Atomic so that a lookup, which counts here, needs only `&self`.
    bloom_skips: AtomicU64,
}

impl LsmTree {
    /// New empty tree.
    pub fn new(config: LsmConfig) -> Self {
        LsmTree {
            config,
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            tables: Vec::new(),
            flushes: 0,
            compactions: 0,
            bloom_skips: AtomicU64::new(0),
        }
    }

    /// Insert or overwrite.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        self.write(key, Some(value))
    }

    /// Delete (writes a tombstone).
    pub fn delete(&mut self, key: Vec<u8>) -> Result<()> {
        self.write(key, None)
    }

    fn write(&mut self, key: Vec<u8>, entry: Entry) -> Result<()> {
        if key.is_empty() {
            return Err(Error::Storage("empty keys are not allowed".into()));
        }
        self.memtable_bytes += key.len() + entry.as_ref().map_or(0, Vec::len);
        self.memtable.insert(key, entry);
        if self.memtable_bytes >= self.config.memtable_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Point lookup across memtable then runs, newest first.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(e) = self.memtable.get(key) {
            return e.clone();
        }
        for t in &self.tables {
            if !t.bloom.may_contain(key) {
                self.bloom_skips.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed, monotonic statistic bumped by concurrent readers; publishes nothing)
                continue;
            }
            if let Some(e) = t.get(key) {
                return e.clone();
            }
        }
        None
    }

    /// Force the memtable into an SSTable run.
    pub fn flush(&mut self) -> Result<()> {
        mmdb_fault::fail_point!("lsm.flush", |msg| Error::Storage(format!(
            "lsm flush: {msg}"
        )));
        if self.memtable.is_empty() {
            return Ok(());
        }
        let entries: Vec<(Vec<u8>, Entry)> = std::mem::take(&mut self.memtable).into_iter().collect();
        self.memtable_bytes = 0;
        self.tables.insert(0, SsTable::from_sorted(entries));
        self.flushes += 1;
        self.maybe_compact()
    }

    fn maybe_compact(&mut self) -> Result<()> {
        // Size-tiered: when there are `tier_fanout` runs of similar size,
        // merge them. Simplification: merge the newest `tier_fanout` runs
        // whenever the run count reaches the fanout.
        while self.tables.len() >= self.config.tier_fanout {
            mmdb_fault::fail_point!("lsm.compact", |msg| Error::Storage(format!(
                "lsm compaction: {msg}"
            )));
            let group: Vec<SsTable> = self.tables.drain(0..self.config.tier_fanout).collect();
            // If this merge consumes every run, tombstones can be dropped.
            let drop_tombstones = self.tables.is_empty();
            let merged = merge_runs(group, drop_tombstones);
            self.tables.insert(0, merged);
            self.compactions += 1;
            if self.tables.len() < self.config.tier_fanout {
                break;
            }
        }
        Ok(())
    }

    /// Merge everything into a single run, dropping tombstones.
    pub fn compact_full(&mut self) -> Result<()> {
        self.flush()?;
        mmdb_fault::fail_point!("lsm.compact", |msg| Error::Storage(format!(
            "lsm compaction: {msg}"
        )));
        if self.tables.len() <= 1 {
            // Still rewrite a single run to purge tombstones.
            if let Some(t) = self.tables.pop() {
                self.tables.push(merge_runs(vec![t], true));
                self.compactions += 1;
            }
            return Ok(());
        }
        let group: Vec<SsTable> = self.tables.drain(..).collect();
        self.tables.push(merge_runs(group, true));
        self.compactions += 1;
        Ok(())
    }

    /// Range scan over live entries, `start..end` (end exclusive; `None` =
    /// unbounded), newest version wins.
    pub fn scan(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> Vec<(Vec<u8>, Vec<u8>)> {
        // Collect newest-wins view via a merge map; memtable is newest.
        let mut view: BTreeMap<&[u8], &Entry> = BTreeMap::new();
        for t in self.tables.iter().rev() {
            for (k, e) in &t.entries {
                view.insert(k.as_slice(), e);
            }
        }
        for (k, e) in &self.memtable {
            view.insert(k.as_slice(), e);
        }
        view.into_iter()
            .filter(|(k, _)| start.is_none_or(|s| *k >= s) && end.is_none_or(|e| *k < e))
            .filter_map(|(k, e)| e.as_ref().map(|v| (k.to_vec(), v.clone())))
            .collect()
    }

    /// Live key count (scans; for tests and stats).
    pub fn live_len(&self) -> usize {
        self.scan(None, None).len()
    }

    /// Current number of runs.
    pub fn run_count(&self) -> usize {
        self.tables.len()
    }

    /// Engine counters.
    pub fn stats(&self) -> LsmStats {
        LsmStats {
            flushes: self.flushes,
            compactions: self.compactions,
            bloom_skips: self.bloom_skips.load(Ordering::Relaxed), // lint: allow(relaxed, monotonic statistic; publishes nothing)
        }
    }
}

impl Default for LsmTree {
    fn default() -> Self {
        Self::new(LsmConfig::default())
    }
}

/// K-way merge of runs (index 0 = newest wins).
fn merge_runs(runs: Vec<SsTable>, drop_tombstones: bool) -> SsTable {
    let mut merged: BTreeMap<Vec<u8>, Entry> = BTreeMap::new();
    // Oldest first, newer overwrites.
    for run in runs.into_iter().rev() {
        for (k, e) in run.entries {
            merged.insert(k, e);
        }
    }
    let entries: Vec<(Vec<u8>, Entry)> = merged
        .into_iter()
        .filter(|(_, e)| !(drop_tombstones && e.is_none()))
        .collect();
    SsTable::from_sorted(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> LsmTree {
        LsmTree::new(LsmConfig { memtable_bytes: 256, tier_fanout: 3 })
    }

    fn k(i: u32) -> Vec<u8> {
        format!("key-{i:05}").into_bytes()
    }

    #[test]
    fn put_get_delete() {
        let mut t = LsmTree::default();
        t.put(b"a".to_vec(), b"1".to_vec()).unwrap();
        assert_eq!(t.get(b"a"), Some(b"1".to_vec()));
        t.delete(b"a".to_vec()).unwrap();
        assert_eq!(t.get(b"a"), None);
        assert!(t.put(Vec::new(), b"x".to_vec()).is_err());
    }

    #[test]
    fn reads_cross_flushed_runs() {
        let mut t = small_tree();
        for i in 0..200 {
            t.put(k(i), format!("v{i}").into_bytes()).unwrap();
        }
        assert!(t.stats().flushes > 0, "small memtable must have flushed");
        for i in 0..200 {
            assert_eq!(t.get(&k(i)), Some(format!("v{i}").into_bytes()), "key {i}");
        }
    }

    #[test]
    fn newest_version_wins_across_runs() {
        let mut t = small_tree();
        for round in 0..5 {
            for i in 0..50 {
                t.put(k(i), format!("r{round}").into_bytes()).unwrap();
            }
            t.flush().unwrap();
        }
        for i in 0..50 {
            assert_eq!(t.get(&k(i)), Some(b"r4".to_vec()));
        }
    }

    #[test]
    fn tombstones_shadow_older_runs_until_full_compaction() {
        let mut t = small_tree();
        t.put(k(1), b"v".to_vec()).unwrap();
        t.flush().unwrap();
        t.delete(k(1)).unwrap();
        t.flush().unwrap();
        assert_eq!(t.get(&k(1)), None);
        t.compact_full().unwrap();
        assert_eq!(t.get(&k(1)), None);
        assert_eq!(t.run_count(), 1);
        assert_eq!(t.live_len(), 0);
        // After full compaction the tombstone itself is gone.
        assert_eq!(t.tables[0].len(), 0);
    }

    #[test]
    fn compaction_bounds_run_count() {
        let mut t = small_tree();
        for i in 0..2000 {
            t.put(k(i), vec![b'x'; 16]).unwrap();
        }
        assert!(t.run_count() < 6, "tiered compaction should bound runs, got {}", t.run_count());
        assert!(t.stats().compactions > 0);
        assert_eq!(t.live_len(), 2000);
    }

    #[test]
    fn scan_ranges_and_order() {
        let mut t = small_tree();
        for i in (0..100).rev() {
            t.put(k(i), format!("{i}").into_bytes()).unwrap();
        }
        t.delete(k(50)).unwrap();
        let all = t.scan(None, None);
        assert_eq!(all.len(), 99);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan must be sorted");
        let mid = t.scan(Some(&k(10)), Some(&k(20)));
        assert_eq!(mid.len(), 10);
        assert_eq!(mid[0].0, k(10));
        assert_eq!(mid.last().unwrap().0, k(19));
    }

    #[test]
    fn bloom_filter_has_no_false_negatives() {
        let mut b = BloomFilter::with_capacity(1000);
        for i in 0..1000u32 {
            b.insert(&i.to_le_bytes());
        }
        for i in 0..1000u32 {
            assert!(b.may_contain(&i.to_le_bytes()));
        }
        // And a usefully low false-positive rate.
        let fps = (10_000u32..20_000)
            .filter(|i| b.may_contain(&i.to_le_bytes()))
            .count();
        assert!(fps < 500, "false positive rate too high: {fps}/10000");
    }

    #[test]
    fn bloom_skips_are_counted() {
        let mut t = small_tree();
        for i in 0..200 {
            t.put(k(i), b"v".to_vec()).unwrap();
        }
        t.flush().unwrap();
        for i in 10_000..10_100 {
            assert_eq!(t.get(&k(i)), None);
        }
        assert!(t.stats().bloom_skips > 0);
    }
}
