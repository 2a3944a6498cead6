//! Extendible hashing — directory-doubling hash index.
//!
//! The tutorial notes OrientDB offers extendible hashing as "significantly
//! faster" than its SB-trees for point lookups, and ArangoDB builds its
//! primary and edge indexes on hash tables. An extendible hash map keeps a
//! directory of `2^global_depth` bucket pointers; overflowing buckets split
//! locally, doubling the directory only when a bucket's local depth catches
//! up with the global depth — so growth never rehashes the whole table.
//!
//! Ablation E5 compares this structure against the B+-tree: faster point
//! ops, no range scans (`range` simply doesn't exist here — the tutorial's
//! ArangoDB note: hash indexes ⇒ "no range queries").

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

const BUCKET_CAPACITY: usize = 8;

struct Bucket<K, V> {
    local_depth: u8,
    /// The low `local_depth` hash bits shared by everything in this bucket
    /// (lets splits repoint only the affected directory slots).
    pattern: u64,
    entries: Vec<(K, V)>,
}

/// An extendible hash map.
pub struct ExtendibleHashMap<K, V> {
    /// Directory: `2^global_depth` slots, each an index into `buckets`.
    directory: Vec<usize>,
    buckets: Vec<Bucket<K, V>>,
    global_depth: u8,
    len: usize,
}

impl<K: Hash + Eq + Clone, V> Default for ExtendibleHashMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone, V> ExtendibleHashMap<K, V> {
    /// Empty map with a one-bucket directory.
    pub fn new() -> Self {
        ExtendibleHashMap {
            directory: vec![0],
            buckets: vec![Bucket { local_depth: 0, pattern: 0, entries: Vec::new() }],
            global_depth: 0,
            len: 0,
        }
    }

    fn hash<Q: Hash + ?Sized>(key: &Q) -> u64 {
        // FNV-1a-seeded SipHash-free hasher: use the std DefaultHasher for
        // quality; determinism within a process is all we need.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    fn dir_index(&self, hash: u64) -> usize {
        // Low `global_depth` bits select the directory slot.
        (hash & ((1u64 << self.global_depth) - 1)) as usize
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current directory size (2^global_depth) — exposed for tests/benches.
    pub fn directory_size(&self) -> usize {
        self.directory.len()
    }

    /// Point lookup, by any borrowed form of the key (`&str` for a
    /// `String` key), so a probe need not build a `K`.
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let b = self.directory[self.dir_index(Self::hash(key))];
        self.buckets[b]
            .entries
            .iter()
            .find(|(k, _)| k.borrow() == key)
            .map(|(_, v)| v)
    }

    /// Insert or overwrite, returning any previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        loop {
            let h = Self::hash(&key);
            let bi = self.directory[self.dir_index(h)];
            let bucket = &mut self.buckets[bi];
            if let Some((_, v)) = bucket.entries.iter_mut().find(|(k, _)| *k == key) {
                return Some(std::mem::replace(v, value));
            }
            if bucket.entries.len() < BUCKET_CAPACITY {
                bucket.entries.push((key, value));
                self.len += 1;
                return None;
            }
            self.split_bucket(bi);
            // Retry: the split may or may not have made room (skewed hashes
            // can need several rounds).
        }
    }

    /// Remove a key, returning its value; takes the key like [`get`](Self::get).
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let bi = self.directory[self.dir_index(Self::hash(key))];
        let bucket = &mut self.buckets[bi];
        let pos = bucket.entries.iter().position(|(k, _)| k.borrow() == key)?;
        self.len -= 1;
        Some(bucket.entries.swap_remove(pos).1)
    }

    /// Iterate all entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        // Each bucket appears possibly many times in the directory; iterate
        // buckets directly to avoid duplicates.
        self.buckets.iter().flat_map(|b| b.entries.iter().map(|(k, v)| (k, v)))
    }

    fn split_bucket(&mut self, bi: usize) {
        let local = self.buckets[bi].local_depth;
        if local == self.global_depth {
            // Double the directory.
            #[expect(clippy::panic, reason = "2^62 directory entries exceeds addressable memory; unreachable capacity invariant")]
            if self.global_depth >= 62 {
                panic!("extendible hash directory limit reached");
            }
            let old = self.directory.clone();
            self.directory.extend(old);
            self.global_depth += 1;
        }
        let new_local = local + 1;
        // Partition entries by the new distinguishing bit.
        let entries = std::mem::take(&mut self.buckets[bi].entries);
        self.buckets[bi].local_depth = new_local;
        let bit = 1u64 << local;
        let pattern = self.buckets[bi].pattern;
        let new_pattern = pattern | bit;
        let new_bi = self.buckets.len();
        self.buckets.push(Bucket { local_depth: new_local, pattern: new_pattern, entries: Vec::new() });
        for (k, v) in entries {
            let h = Self::hash(&k);
            if h & bit != 0 {
                self.buckets[new_bi].entries.push((k, v));
            } else {
                self.buckets[bi].entries.push((k, v));
            }
        }
        // Repoint exactly the directory slots carrying the new pattern:
        // they are `new_pattern + k·2^new_local` — no full-directory scan.
        let step = 1usize << new_local;
        let mut slot = new_pattern as usize;
        while slot < self.directory.len() {
            self.directory[slot] = new_bi;
            slot += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m = ExtendibleHashMap::new();
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("a", 2), Some(1));
        assert_eq!(m.get(&"a"), Some(&2));
        assert_eq!(m.remove(&"a"), Some(2));
        assert_eq!(m.remove(&"a"), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_through_directory_doubling() {
        let mut m = ExtendibleHashMap::new();
        for i in 0..10_000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 10_000);
        assert!(m.directory_size() > 64, "directory should have doubled repeatedly");
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 3)), "key {i}");
        }
        for i in 10_000..10_100u64 {
            assert_eq!(m.get(&i), None);
        }
    }

    #[test]
    fn iter_sees_each_entry_once() {
        let mut m = ExtendibleHashMap::new();
        for i in 0..1000u32 {
            m.insert(i, ());
        }
        let mut keys: Vec<u32> = m.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn mixed_churn_matches_hashmap() {
        let mut m = ExtendibleHashMap::new();
        let mut shadow = std::collections::HashMap::new();
        let mut state = 99u64;
        for _ in 0..30_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (state >> 33) % 5000;
            if state.is_multiple_of(4) {
                assert_eq!(m.remove(&k), shadow.remove(&k));
            } else {
                assert_eq!(m.insert(k, state), shadow.insert(k, state));
            }
        }
        assert_eq!(m.len(), shadow.len());
        for (k, v) in &shadow {
            assert_eq!(m.get(k), Some(v));
        }
    }

    #[test]
    fn string_keys() {
        let mut m = ExtendibleHashMap::new();
        for i in 0..500 {
            m.insert(format!("cart:{i}"), format!("order:{i}"));
        }
        assert_eq!(m.get(&"cart:250".to_string()), Some(&"order:250".to_string()));
    }

    #[test]
    fn string_keys_are_found_and_removed_by_str() {
        let mut m: ExtendibleHashMap<String, usize> = ExtendibleHashMap::new();
        for i in 0..500 {
            m.insert(format!("order-{i}"), i);
        }
        for i in (0..500).step_by(7) {
            assert_eq!(m.get(format!("order-{i}").as_str()), Some(&i));
        }
        assert_eq!(m.get("order-500"), None);
        assert_eq!(m.remove("order-250"), Some(250));
        assert_eq!(m.get("order-250"), None);
        assert_eq!(m.len(), 499);
    }
}
