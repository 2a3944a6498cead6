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

use std::collections::HashMap;

use parking_lot::RwLock;

use mmdb_storage::lsm::{LsmConfig, LsmStats, LsmTree};
use mmdb_types::codec::{value_from_bytes, value_to_bytes};
use mmdb_types::{lock_rank, Error, Result, Value};

/// A key/value store of named buckets.
pub struct KvStore {
    buckets: RwLock<HashMap<String, RwLock<LsmTree>>>,
    config: LsmConfig,
}

impl Default for KvStore {
    fn default() -> Self {
        Self::new(LsmConfig::default())
    }
}

impl KvStore {
    /// New store; each bucket gets its own LSM tree with this config.
    pub fn new(config: LsmConfig) -> Self {
        KvStore { buckets: RwLock::with_rank(lock_rank::KV_BUCKETS, HashMap::new()), config }
    }

    /// Create a bucket. Errors if it already exists.
    pub fn create_bucket(&self, name: &str) -> Result<()> {
        let mut buckets = self.buckets.write();
        if buckets.contains_key(name) {
            return Err(Error::AlreadyExists(format!("bucket '{name}'")));
        }
        buckets.insert(name.to_string(), RwLock::new(LsmTree::new(self.config.clone())));
        Ok(())
    }

    /// Drop a bucket and its contents.
    pub fn drop_bucket(&self, name: &str) -> Result<()> {
        self.buckets
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(format!("bucket '{name}'")))
    }

    /// Whether a bucket of this name exists.
    pub fn has_bucket(&self, name: &str) -> bool {
        self.buckets.read().contains_key(name)
    }

    /// List bucket names (sorted).
    pub fn buckets(&self) -> Vec<String> {
        let mut names: Vec<String> = self.buckets.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn with_bucket<R>(&self, name: &str, f: impl FnOnce(&RwLock<LsmTree>) -> R) -> Result<R> {
        let buckets = self.buckets.read();
        let b = buckets
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("bucket '{name}'")))?;
        Ok(f(b))
    }

    /// Store a value under a key.
    pub fn put(&self, bucket: &str, key: &str, value: Value) -> Result<()> {
        self.with_bucket(bucket, |b| {
            b.write().put(key.as_bytes().to_vec(), value_to_bytes(&value).to_vec())
        })?
    }

    /// Fetch a value.
    pub fn get(&self, bucket: &str, key: &str) -> Result<Option<Value>> {
        self.with_bucket(bucket, |b| {
            b.read()
                .get(key.as_bytes())
                .map(|bytes| value_from_bytes(&bytes))
                .transpose()
        })?
    }

    /// Delete a key. Returns whether the key existed.
    pub fn delete(&self, bucket: &str, key: &str) -> Result<bool> {
        self.with_bucket(bucket, |b| {
            let mut tree = b.write();
            let existed = tree.get(key.as_bytes()).is_some();
            tree.delete(key.as_bytes().to_vec())?;
            Ok(existed)
        })?
    }

    /// Apply several writes to one bucket at once (single lock hold — the
    /// "simple API" batch operation of DynamoDB's flavour).
    pub fn put_batch(&self, bucket: &str, entries: Vec<(String, Value)>) -> Result<()> {
        self.with_bucket(bucket, |b| {
            let mut tree = b.write();
            for (k, v) in entries {
                tree.put(k.into_bytes(), value_to_bytes(&v).to_vec())?;
            }
            Ok(())
        })?
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, sorted.
    pub fn scan_prefix(&self, bucket: &str, prefix: &str) -> Result<Vec<(String, Value)>> {
        // Prefix scan = range [prefix, prefix+1).
        let start = prefix.as_bytes().to_vec();
        let mut end = start.clone();
        // Increment the last byte that isn't 0xFF to form the exclusive bound.
        while let Some(&last) = end.last() {
            if last == 0xFF {
                end.pop();
            } else {
                *end.last_mut().expect("nonempty") += 1; // lint: allow(panic, while-let just matched Some, so end is nonempty)
                break;
            }
        }
        self.with_bucket(bucket, |b| {
            let tree = b.read();
            let raw = if end.is_empty() {
                tree.scan(Some(&start), None)
            } else {
                tree.scan(Some(&start), Some(&end))
            };
            raw.into_iter()
                .map(|(k, v)| {
                    let key = String::from_utf8(k)
                        .map_err(|_| Error::Storage("non-utf8 key".into()))?;
                    Ok((key, value_from_bytes(&v)?))
                })
                .collect::<Result<Vec<_>>>()
        })?
    }

    /// Every pair in the bucket, sorted by key.
    pub fn scan_all(&self, bucket: &str) -> Result<Vec<(String, Value)>> {
        self.scan_prefix(bucket, "")
    }

    /// Number of live keys in a bucket.
    pub fn len(&self, bucket: &str) -> Result<usize> {
        self.with_bucket(bucket, |b| b.read().live_len())
    }

    /// LSM engine counters for a bucket.
    pub fn stats(&self, bucket: &str) -> Result<LsmStats> {
        self.with_bucket(bucket, |b| b.read().stats())
    }

    /// Force-compact a bucket.
    pub fn compact(&self, bucket: &str) -> Result<()> {
        self.with_bucket(bucket, |b| b.write().compact_full())?
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KvStore {
        let s = KvStore::new(LsmConfig { memtable_bytes: 512, tier_fanout: 3 });
        s.create_bucket("cart").unwrap();
        s
    }

    #[test]
    fn the_paper_shopping_cart() {
        // Slide 26: "1" → "34e5e759", "2" → "0c6df508".
        let s = store();
        s.put("cart", "1", Value::str("34e5e759")).unwrap();
        s.put("cart", "2", Value::str("0c6df508")).unwrap();
        assert_eq!(s.get("cart", "2").unwrap(), Some(Value::str("0c6df508")));
        assert_eq!(s.get("cart", "3").unwrap(), None);
    }

    #[test]
    fn bucket_lifecycle() {
        let s = store();
        assert!(s.create_bucket("cart").is_err());
        s.create_bucket("sessions").unwrap();
        assert_eq!(s.buckets(), vec!["cart", "sessions"]);
        assert!(s.has_bucket("cart") && !s.has_bucket("nope"));
        s.drop_bucket("sessions").unwrap();
        assert!(s.drop_bucket("sessions").is_err());
        assert!(s.put("sessions", "k", Value::Null).is_err());
        assert!(matches!(s.get("nope", "k"), Err(Error::NotFound(_))));
    }

    #[test]
    fn a_get_completes_while_another_reader_holds_the_bucket() {
        let s = store();
        s.put("cart", "1", Value::str("34e5e759")).unwrap();
        let buckets = s.buckets.read();
        let held = buckets.get("cart").unwrap().read();
        let got = std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let s = &s;
            scope.spawn(move || tx.send(s.get("cart", "1")));
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
        let s = store();
        let doc = mmdb_types::from_json(r#"{"items":[1,2,3],"total":66.5}"#).unwrap();
        s.put("cart", "rich", doc.clone()).unwrap();
        assert_eq!(s.get("cart", "rich").unwrap(), Some(doc));
    }

    #[test]
    fn delete_reports_existence() {
        let s = store();
        s.put("cart", "k", Value::int(1)).unwrap();
        assert!(s.delete("cart", "k").unwrap());
        assert!(!s.delete("cart", "k").unwrap());
        assert_eq!(s.get("cart", "k").unwrap(), None);
    }

    #[test]
    fn many_keys_cross_lsm_flushes() {
        let s = store();
        for i in 0..500 {
            s.put("cart", &format!("user:{i:04}"), Value::int(i)).unwrap();
        }
        assert!(s.stats("cart").unwrap().flushes > 0);
        assert_eq!(s.len("cart").unwrap(), 500);
        for i in (0..500).step_by(37) {
            assert_eq!(s.get("cart", &format!("user:{i:04}")).unwrap(), Some(Value::int(i)));
        }
    }

    #[test]
    fn prefix_scans() {
        let s = store();
        s.put_batch(
            "cart",
            vec![
                ("user:1".into(), Value::int(1)),
                ("user:2".into(), Value::int(2)),
                ("order:9".into(), Value::int(9)),
            ],
        )
        .unwrap();
        let users = s.scan_prefix("cart", "user:").unwrap();
        assert_eq!(users.len(), 2);
        assert_eq!(users[0].0, "user:1");
        assert_eq!(s.scan_all("cart").unwrap().len(), 3);
        assert!(s.scan_prefix("cart", "zzz").unwrap().is_empty());
    }

    #[test]
    fn compact_preserves_data() {
        let s = store();
        for i in 0..300 {
            s.put("cart", &format!("k{i}"), Value::int(i)).unwrap();
        }
        for i in 0..150 {
            s.delete("cart", &format!("k{i}")).unwrap();
        }
        s.compact("cart").unwrap();
        assert_eq!(s.len("cart").unwrap(), 150);
        assert_eq!(s.get("cart", "k200").unwrap(), Some(Value::int(200)));
        assert_eq!(s.get("cart", "k100").unwrap(), None);
    }
}
