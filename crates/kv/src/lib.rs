//! # mmdb-kv — the key/value model
//!
//! Riak-style buckets of key/value pairs ("key/value pairs in buckets"),
//! stored on the Cassandra-style LSM engine from `mmdb_storage::lsm`.
//! Values are arbitrary [`Value`]s, so a "simple" key/value pair can carry
//! a whole document — the tutorial's observation that the document model
//! is "key/value where the value is complex" runs in the other direction
//! too.
//!
//! The store is the home of UniBench's shopping-cart data
//! (`customer_id → order_no`).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

use parking_lot::RwLock;

use mmdb_storage::lsm::{LsmConfig, LsmStats, LsmTree};
use mmdb_types::codec::{value_from_bytes, value_to_bytes};
use mmdb_types::{Error, Result, Value};

/// A bucket: its key/value pairs on one LSM tree, behind one leaf lock.
/// In the engine, the catalog's entry for the bucket's name holds it.
pub struct Bucket {
    tree: RwLock<LsmTree>,
}

impl Default for Bucket {
    fn default() -> Self {
        Self::new(LsmConfig::default())
    }
}

impl Bucket {
    /// New empty bucket on a tree with this config.
    pub fn new(config: LsmConfig) -> Self {
        Bucket { tree: RwLock::new(LsmTree::new(config)) }
    }

    /// Store a value under a key.
    pub fn put(&self, key: &str, value: Value) -> Result<()> {
        self.tree.write().put(key.as_bytes().to_vec(), value_to_bytes(&value))
    }

    /// Fetch a value.
    pub fn get(&self, key: &str) -> Result<Option<Value>> {
        self.tree.read().get(key.as_bytes()).map(|bytes| value_from_bytes(&bytes)).transpose()
    }

    /// Delete a key (a tombstone, whether or not the key is there).
    pub fn delete(&self, key: &str) -> Result<()> {
        self.tree.write().delete(key.as_bytes().to_vec())
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, sorted.
    pub fn scan_prefix(&self, prefix: &str) -> Result<Vec<(String, Value)>> {
        // Prefix scan = range [prefix, prefix+1).
        let start = prefix.as_bytes().to_vec();
        let mut end = start.clone();
        // Increment the last byte that isn't 0xFF to form the exclusive bound.
        while let Some(&last) = end.last() {
            #[expect(clippy::expect_used, reason = "the while-let just matched Some, so end is nonempty")]
            if last == 0xFF {
                end.pop();
            } else {
                *end.last_mut().expect("nonempty") += 1;
                break;
            }
        }
        let raw = self.tree.read().scan(Some(&start), (!end.is_empty()).then_some(&end[..]));
        raw.into_iter()
            .map(|(k, v)| {
                let key = String::from_utf8(k).map_err(|_| Error::Storage("non-utf8 key".into()))?;
                Ok((key, value_from_bytes(&v)?))
            })
            .collect()
    }

    /// Every pair in the bucket, sorted by key.
    pub fn scan_all(&self) -> Result<Vec<(String, Value)>> {
        self.scan_prefix("")
    }

    /// LSM engine counters.
    pub fn stats(&self) -> LsmStats {
        self.tree.read().stats()
    }

    /// Force-compact the tree.
    pub fn compact(&self) -> Result<()> {
        self.tree.write().compact_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket() -> Bucket {
        Bucket::new(LsmConfig { memtable_bytes: 512, tier_fanout: 3 })
    }

    #[test]
    fn the_paper_shopping_cart() {
        // Slide 26: "1" → "34e5e759", "2" → "0c6df508".
        let b = bucket();
        b.put("1", Value::str("34e5e759")).unwrap();
        b.put("2", Value::str("0c6df508")).unwrap();
        assert_eq!(b.get("2").unwrap(), Some(Value::str("0c6df508")));
        assert_eq!(b.get("3").unwrap(), None);
    }

    #[test]
    fn a_get_completes_while_another_reader_holds_the_bucket() {
        let b = bucket();
        b.put("1", Value::str("34e5e759")).unwrap();
        let held = b.tree.read();
        let got = std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let b = &b;
            scope.spawn(move || tx.send(b.get("1")));
            let got = rx.recv_timeout(std::time::Duration::from_secs(10));
            // Released before the verdict, so that a `get` that did wait
            // for the guard fails the test instead of hanging it.
            drop(held);
            got
        });
        assert_eq!(got.expect("get must not wait for a reader").unwrap(), Some(Value::str("34e5e759")));
    }

    #[test]
    fn complex_values_roundtrip() {
        let b = bucket();
        let doc = mmdb_types::from_json(r#"{"items":[1,2,3],"total":66.5}"#).unwrap();
        b.put("rich", doc.clone()).unwrap();
        assert_eq!(b.get("rich").unwrap(), Some(doc));
    }

    #[test]
    fn delete_of_a_present_or_absent_key_leaves_it_absent() {
        let b = bucket();
        b.put("k", Value::int(1)).unwrap();
        b.delete("k").unwrap();
        assert_eq!(b.get("k").unwrap(), None);
        b.delete("k").unwrap();
        b.delete("never").unwrap();
        assert_eq!(b.get("k").unwrap(), None);
        assert!(b.scan_all().unwrap().is_empty());
    }

    #[test]
    fn many_keys_cross_lsm_flushes() {
        let b = bucket();
        for i in 0..500 {
            b.put(&format!("user:{i:04}"), Value::int(i)).unwrap();
        }
        assert!(b.stats().flushes > 0);
        assert_eq!(b.scan_all().unwrap().len(), 500);
        for i in (0..500).step_by(37) {
            assert_eq!(b.get(&format!("user:{i:04}")).unwrap(), Some(Value::int(i)));
        }
    }

    #[test]
    fn prefix_scans() {
        let b = bucket();
        for (k, v) in [("user:1", 1), ("user:2", 2), ("order:9", 9)] {
            b.put(k, Value::int(v)).unwrap();
        }
        let users = b.scan_prefix("user:").unwrap();
        assert_eq!(users.len(), 2);
        assert_eq!(users[0].0, "user:1");
        assert_eq!(b.scan_all().unwrap().len(), 3);
        assert!(b.scan_prefix("zzz").unwrap().is_empty());
    }

    #[test]
    fn compact_preserves_data() {
        let b = bucket();
        for i in 0..300 {
            b.put(&format!("k{i}"), Value::int(i)).unwrap();
        }
        for i in 0..150 {
            b.delete(&format!("k{i}")).unwrap();
        }
        b.compact().unwrap();
        assert_eq!(b.scan_all().unwrap().len(), 150);
        assert_eq!(b.get("k200").unwrap(), Some(Value::int(200)));
        assert_eq!(b.get("k100").unwrap(), None);
    }
}
