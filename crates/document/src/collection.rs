//! Document collections: heap-stored JSON documents with `_key` identity.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use mmdb_index::gin::DocId;
use mmdb_index::{BPlusTree, ExtendibleHashMap, GinIndex, GinMode};
use mmdb_storage::{BufferPool, HeapFile, RecordId};
use mmdb_types::codec::{decode_projected, key_of, value_from_bytes, value_to_bytes};
use mmdb_types::{lock_rank, Error, Path, Projection, Result, Value};

/// The reserved primary-key attribute, as in ArangoDB.
pub const KEY_FIELD: &str = "_key";

struct CollectionIndexes {
    /// `_key` → record id (ArangoDB's primary *hash* index).
    primary: ExtendibleHashMap<String, RecordId>,
    /// Persistent (B+-tree) indexes: path text → the parsed path and its
    /// tree, (encoded value ++ key) → rid.
    persistent: HashMap<String, (Path, BPlusTree<Vec<u8>, RecordId>)>,
    /// Optional GIN index with its docid bookkeeping.
    gin: Option<GinState>,
}

struct GinState {
    index: GinIndex,
    by_key: HashMap<String, DocId>,
    by_id: HashMap<DocId, String>,
}

/// A document collection.
pub struct Collection {
    name: String,
    heap: HeapFile,
    indexes: RwLock<CollectionIndexes>,
    next_key: AtomicU64,
}

fn as_ref_bound(b: &Bound<Vec<u8>>) -> Bound<&Vec<u8>> {
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn sec_key(value: &Value, doc_key: &str) -> Vec<u8> {
    let mut k = key_of(value);
    k.push(0);
    k.extend_from_slice(doc_key.as_bytes());
    k
}

impl Collection {
    /// Create an empty collection on a buffer pool.
    pub fn create(name: &str, pool: Arc<BufferPool>) -> Result<Collection> {
        Ok(Collection {
            name: name.to_string(),
            heap: HeapFile::new(pool),
            indexes: RwLock::with_rank(
                lock_rank::DOCUMENT_INDEXES,
                CollectionIndexes {
                    primary: ExtendibleHashMap::new(),
                    persistent: HashMap::new(),
                    gin: None,
                },
            ),
            next_key: AtomicU64::new(1),
        })
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Live document count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no documents exist.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Insert a document (must be an object) under a key no document
    /// holds: its `_key`, or a generated one when it has none. Returns the
    /// key.
    pub fn insert(&self, doc: Value) -> Result<String> {
        let key = self.insert_key(&doc)?;
        self.put(&key, doc)?;
        Ok(key)
    }

    /// The key an [`insert`](Self::insert) of `doc` takes: its `_key`, or a
    /// generated one when it has none. `AlreadyExists` when a document
    /// holds it.
    pub fn insert_key(&self, doc: &Value) -> Result<String> {
        let key = match doc.as_object()?.get(KEY_FIELD) {
            Some(Value::String(k)) => k.to_string(),
            Some(other) => {
                return Err(Error::Schema(format!(
                    "_key must be a string, got {}",
                    other.type_name()
                )))
            }
            None => self.next_key.fetch_add(1, Ordering::SeqCst).to_string(),
        };
        if self.contains_key(&key) {
            return Err(Error::AlreadyExists(format!(
                "document '{key}' in collection '{}'",
                self.name
            )));
        }
        Ok(key)
    }

    /// Create or replace the document with this `_key`: the one body that
    /// writes a document and keeps the primary, persistent and GIN
    /// indexes in step. The document's `_key`, if present, must be `key`;
    /// a missing one is set. The old document is fetched only when a
    /// persistent or GIN index has entries of it to move.
    pub fn put(&self, key: &str, mut doc: Value) -> Result<()> {
        {
            let obj = doc.as_object_mut()?;
            match obj.get(KEY_FIELD) {
                None => {
                    obj.insert(KEY_FIELD, Value::str(key));
                }
                Some(Value::String(k)) if k == key => {}
                Some(_) => {
                    return Err(Error::Schema(format!("_key of document '{key}' does not match")))
                }
            }
        }
        let bytes = value_to_bytes(&doc);
        // Held throughout, so the set of indexes cannot change between
        // deciding whether the old document is needed and using it.
        let mut idx = self.indexes.write();
        let old_rid = idx.primary.get(key).copied();
        let old = match old_rid {
            Some(rid) if !idx.persistent.is_empty() || idx.gin.is_some() => {
                Some(self.fetch(rid, &Projection::ALL)?)
            }
            _ => None,
        };
        let rid = match old_rid {
            Some(rid) => {
                self.heap.replace(rid, bytes)?;
                rid
            }
            None => {
                let rid = self.heap.insert(bytes)?;
                idx.primary.insert(key.to_string(), rid);
                rid
            }
        };
        for (path, tree) in idx.persistent.values_mut() {
            let new = path.eval_point(&doc)?;
            if let Some(old) = &old {
                let old = path.eval_point(old)?;
                if old == new {
                    continue;
                }
                tree.remove(&sec_key(old, key));
            }
            tree.insert(sec_key(new, key), rid);
        }
        if let Some(gin) = &mut idx.gin {
            match (gin.by_key.get(key), &old) {
                (Some(&id), Some(old)) => {
                    gin.index.remove(id, old);
                    gin.index.insert(id, &doc);
                }
                _ => {
                    // GIN doc ids must never be reused, so draw them from
                    // the same monotone counter as generated keys.
                    let id: DocId = self.next_key.fetch_add(1, Ordering::SeqCst);
                    gin.index.insert(id, &doc);
                    gin.by_key.insert(key.to_string(), id);
                    gin.by_id.insert(id, key.to_string());
                }
            }
        }
        Ok(())
    }

    /// Insert from JSON text.
    pub fn insert_json(&self, json: &str) -> Result<String> {
        self.insert(mmdb_types::from_json(json)?)
    }

    /// Decode what `p` keeps of the document at `rid`, straight from its
    /// record.
    fn fetch(&self, rid: RecordId, p: &Projection) -> Result<Value> {
        self.heap.get_with(rid, |bytes| decode_projected(bytes, p))?
    }

    /// Fetch by `_key`.
    pub fn get(&self, key: &str) -> Result<Option<Value>> {
        self.get_projected(key, &Projection::ALL)
    }

    /// Fetch what `p` keeps of the document with this `_key`.
    pub fn get_projected(&self, key: &str, p: &Projection) -> Result<Option<Value>> {
        let rid = { self.indexes.read().primary.get(key).copied() };
        rid.map(|r| self.fetch(r, p)).transpose()
    }

    /// Whether a document with this `_key` exists: a primary-index probe,
    /// no heap fetch and no decode.
    pub fn contains_key(&self, key: &str) -> bool {
        self.indexes.read().primary.get(key).is_some()
    }

    /// Remove by `_key`; returns whether it existed. Like [`put`](Self::put),
    /// it fetches the old document only when an index has entries of it.
    pub fn remove(&self, key: &str) -> Result<bool> {
        let mut idx = self.indexes.write();
        let Some(rid) = idx.primary.get(key).copied() else { return Ok(false) };
        let old = if idx.persistent.is_empty() && idx.gin.is_none() {
            Value::Null
        } else {
            self.fetch(rid, &Projection::ALL)?
        };
        self.heap.delete(rid)?;
        idx.primary.remove(key);
        for (path, tree) in idx.persistent.values_mut() {
            tree.remove(&sec_key(path.eval_point(&old)?, key));
        }
        if let Some(gin) = &mut idx.gin {
            if let Some(id) = gin.by_key.remove(key) {
                gin.by_id.remove(&id);
                gin.index.remove(id, &old);
            }
        }
        Ok(true)
    }

    /// All documents (unordered).
    pub fn all(&self) -> Result<Vec<Value>> {
        self.all_projected(&Projection::ALL)
    }

    /// What `p` keeps of every document (unordered).
    pub fn all_projected(&self, p: &Projection) -> Result<Vec<Value>> {
        let mut docs = Vec::with_capacity(self.len());
        self.heap.scan_with(|_, bytes| {
            docs.push(decode_projected(bytes, p)?);
            Ok(())
        })?;
        Ok(docs)
    }

    /// Create a persistent (B+-tree) index on a path, backfilling.
    pub fn create_persistent_index(&self, path_text: &str) -> Result<()> {
        let path = Path::parse(path_text)?;
        if !path.is_point() {
            return Err(Error::Unsupported("wildcard paths cannot be indexed yet".into()));
        }
        let mut idx = self.indexes.write();
        if idx.persistent.contains_key(path_text) {
            return Err(Error::AlreadyExists(format!("index on '{path_text}'")));
        }
        let mut tree = BPlusTree::new();
        self.heap.scan_with(|rid, bytes| {
            let doc = value_from_bytes(bytes)?;
            let key = doc.get_field(KEY_FIELD).as_str().unwrap_or("");
            tree.insert(sec_key(path.eval_point(&doc)?, key), rid);
            Ok(())
        })?;
        idx.persistent.insert(path_text.to_string(), (path, tree));
        Ok(())
    }

    /// Create the collection's GIN index (one per collection), backfilling.
    pub fn create_gin_index(&self, mode: GinMode) -> Result<()> {
        let mut idx = self.indexes.write();
        if idx.gin.is_some() {
            return Err(Error::AlreadyExists("gin index".into()));
        }
        let mut gin = GinState { index: GinIndex::new(mode), by_key: HashMap::new(), by_id: HashMap::new() };
        self.heap.scan_with(|_, bytes| {
            let doc = value_from_bytes(bytes)?;
            let key = doc.get_field(KEY_FIELD).as_str().unwrap_or("").to_string();
            let id: DocId = self.next_key.fetch_add(1, Ordering::SeqCst);
            gin.index.insert(id, &doc);
            gin.by_key.insert(key.clone(), id);
            gin.by_id.insert(id, key);
            Ok(())
        })?;
        idx.gin = Some(gin);
        Ok(())
    }

    /// Indexed paths (sorted).
    pub fn indexed_paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.indexes.read().persistent.keys().cloned().collect();
        v.sort();
        v
    }

    /// Range query on a path: `lo..=hi`, using the persistent index when
    /// available. Returns `(docs, used_index)`.
    pub fn range(&self, path_text: &str, lo: &Value, hi: &Value) -> Result<(Vec<Value>, bool)> {
        self.range_bounds(path_text, Bound::Included(lo), Bound::Included(hi), &Projection::ALL)
    }

    /// Range query with explicit bounds on each side, returning at least
    /// what `p` keeps of each document. Without an index on the path, each
    /// document is decoded whole to test the bounds and returned whole.
    pub fn range_bounds(
        &self,
        path_text: &str,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        p: &Projection,
    ) -> Result<(Vec<Value>, bool)> {
        {
            let idx = self.indexes.read();
            if let Some((_, tree)) = idx.persistent.get(path_text) {
                // Secondary keys are `key_of(value) ++ 0 ++ doc_key`; a 0x00
                // suffix covers the value's smallest entry and 0xFF its
                // largest, turning value bounds into byte bounds.
                let lo_key = match lo {
                    Bound::Included(v) => {
                        let mut k = key_of(v);
                        k.push(0);
                        Bound::Included(k)
                    }
                    Bound::Excluded(v) => {
                        let mut k = key_of(v);
                        k.push(0xFF);
                        Bound::Included(k)
                    }
                    Bound::Unbounded => Bound::Unbounded,
                };
                let hi_key = match hi {
                    Bound::Included(v) => {
                        let mut k = key_of(v);
                        k.push(0xFF);
                        Bound::Included(k)
                    }
                    Bound::Excluded(v) => {
                        let mut k = key_of(v);
                        k.push(0);
                        Bound::Excluded(k)
                    }
                    Bound::Unbounded => Bound::Unbounded,
                };
                let rids: Vec<RecordId> = tree
                    .range(as_ref_bound(&lo_key), as_ref_bound(&hi_key))
                    .map(|(_, rid)| *rid)
                    .collect();
                drop(idx);
                let mut docs = Vec::with_capacity(rids.len());
                for rid in rids {
                    docs.push(self.fetch(rid, p)?);
                }
                return Ok((docs, true));
            }
        }
        let path = Path::parse(path_text)?;
        let mut docs = Vec::new();
        for doc in self.all()? {
            let v = path.eval_point(&doc)?;
            let above = match lo {
                Bound::Included(l) => v >= l,
                Bound::Excluded(l) => v > l,
                Bound::Unbounded => true,
            };
            let below = match hi {
                Bound::Included(h) => v <= h,
                Bound::Excluded(h) => v < h,
                Bound::Unbounded => true,
            };
            if above && below {
                docs.push(doc);
            }
        }
        Ok((docs, false))
    }

    /// Query by example: documents containing the pattern (jsonb `@>`
    /// semantics). Uses the GIN index when present. Returns
    /// `(docs, used_index)`.
    pub fn by_example(&self, pattern: &Value) -> Result<(Vec<Value>, bool)> {
        {
            let idx = self.indexes.read();
            if let Some(gin) = &idx.gin {
                if let Ok(candidates) = gin.index.contains_candidates(pattern) {
                    let keys: Vec<String> = candidates
                        .iter()
                        .filter_map(|id| gin.by_id.get(id).cloned())
                        .collect();
                    drop(idx);
                    let mut docs = Vec::new();
                    for key in keys {
                        if let Some(doc) = self.get(&key)? {
                            if doc.contains(pattern) {
                                docs.push(doc);
                            }
                        }
                    }
                    return Ok((docs, true));
                }
            }
        }
        let docs = self
            .all()?
            .into_iter()
            .filter(|d| d.contains(pattern))
            .collect();
        Ok((docs, false))
    }

    /// Documents with the given top-level-or-nested key (GIN `?`); needs a
    /// `jsonb_ops` GIN index.
    pub fn with_key(&self, field: &str) -> Result<Vec<Value>> {
        let idx = self.indexes.read();
        let gin = idx
            .gin
            .as_ref()
            .ok_or_else(|| Error::Unsupported("key-exists needs a GIN index".into()))?;
        let ids = gin.index.key_exists(field)?;
        let keys: Vec<String> = ids.iter().filter_map(|id| gin.by_id.get(id).cloned()).collect();
        drop(idx);
        let mut docs = Vec::new();
        for key in keys {
            if let Some(doc) = self.get(&key)? {
                docs.push(doc);
            }
        }
        Ok(docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::from_json;

    fn coll() -> Collection {
        Collection::create("orders", Arc::default()).unwrap()
    }

    fn paper_order() -> Value {
        from_json(
            r#"{"_key":"0c6df508","orderlines":[
                {"product_no":"2724f","product_name":"Toy","price":66},
                {"product_no":"3424g","product_name":"Book","price":40}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn insert_get_roundtrip_with_explicit_key() {
        let c = coll();
        let key = c.insert(paper_order()).unwrap();
        assert_eq!(key, "0c6df508");
        let doc = c.get("0c6df508").unwrap().unwrap();
        assert_eq!(
            doc.get_field("orderlines").get_index(0).get_field("product_no"),
            &Value::str("2724f")
        );
        assert!(c.get("missing").unwrap().is_none());
    }

    #[test]
    fn auto_key_generation() {
        let c = coll();
        let k1 = c.insert(from_json(r#"{"a":1}"#).unwrap()).unwrap();
        let k2 = c.insert(from_json(r#"{"a":2}"#).unwrap()).unwrap();
        assert_ne!(k1, k2);
        assert_eq!(c.get(&k1).unwrap().unwrap().get_field("a"), &Value::int(1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn key_constraints() {
        let c = coll();
        c.insert(paper_order()).unwrap();
        assert!(matches!(c.insert(paper_order()), Err(Error::AlreadyExists(_))));
        assert!(c.insert(from_json(r#"{"_key":7}"#).unwrap()).is_err());
        assert!(c.insert(Value::int(3)).is_err(), "documents must be objects");
    }

    #[test]
    fn put_creates_and_replaces() {
        let c = coll();
        c.put("k", from_json(r#"{"status":"new","total":10}"#).unwrap()).unwrap();
        assert_eq!(c.get("k").unwrap().unwrap().get_field("_key"), &Value::str("k"));
        c.put("k", from_json(r#"{"_key":"k","status":"paid"}"#).unwrap()).unwrap();
        let doc = c.get("k").unwrap().unwrap();
        assert_eq!(doc.get_field("status"), &Value::str("paid"));
        assert_eq!(doc.get_field("total"), &Value::Null, "put replaces wholesale");
        assert_eq!(c.len(), 1);
        let mismatch = c.put("k", from_json(r#"{"_key":"other"}"#).unwrap());
        assert!(matches!(mismatch, Err(Error::Schema(_))));
        assert!(matches!(c.insert(from_json(r#"{"_key":"k"}"#).unwrap()), Err(Error::AlreadyExists(_))));
    }

    #[test]
    fn remove_documents() {
        let c = coll();
        c.insert(paper_order()).unwrap();
        assert!(c.remove("0c6df508").unwrap());
        assert!(!c.remove("0c6df508").unwrap());
        assert!(c.is_empty());
    }

    #[test]
    fn persistent_index_range_queries() {
        let c = coll();
        for i in 0..100 {
            c.insert_json(&format!(r#"{{"_key":"d{i}","price":{}}}"#, i * 10)).unwrap();
        }
        let (docs, used) = c.range("price", &Value::int(100), &Value::int(190)).unwrap();
        assert!(!used);
        assert_eq!(docs.len(), 10);
        c.create_persistent_index("price").unwrap();
        let (docs2, used) = c.range("price", &Value::int(100), &Value::int(190)).unwrap();
        assert!(used);
        assert_eq!(docs2.len(), 10);
        assert!(c.create_persistent_index("price").is_err());
        assert_eq!(c.indexed_paths(), vec!["price".to_string()]);
        // Index maintenance across a re-put and a remove.
        c.put("d15", from_json(r#"{"price":5000}"#).unwrap()).unwrap();
        c.remove("d12").unwrap();
        let (docs3, _) = c.range("price", &Value::int(100), &Value::int(190)).unwrap();
        assert_eq!(docs3.len(), 8);
    }

    #[test]
    fn nested_path_index() {
        let c = coll();
        c.insert(paper_order()).unwrap();
        c.insert_json(r#"{"_key":"x","orderlines":[{"price":10}]}"#).unwrap();
        c.create_persistent_index("orderlines[0].price").unwrap();
        let (docs, used) = c
            .range("orderlines[0].price", &Value::int(50), &Value::int(100))
            .unwrap();
        assert!(used);
        assert_eq!(docs.len(), 1);
        assert!(c.create_persistent_index("orderlines[*].price").is_err());
    }

    #[test]
    fn by_example_with_and_without_gin() {
        let c = coll();
        c.insert(paper_order()).unwrap();
        c.insert_json(r#"{"_key":"other","orderlines":[{"product_name":"Pen","price":2}]}"#)
            .unwrap();
        let pattern = from_json(r#"{"orderlines":[{"product_name":"Toy"}]}"#).unwrap();
        let (docs, used) = c.by_example(&pattern).unwrap();
        assert!(!used);
        assert_eq!(docs.len(), 1);
        c.create_gin_index(GinMode::JsonbOps).unwrap();
        let (docs2, used) = c.by_example(&pattern).unwrap();
        assert!(used);
        assert_eq!(docs2.len(), 1);
        assert_eq!(docs2[0].get_field("_key"), &Value::str("0c6df508"));
    }

    #[test]
    fn gin_key_exists_and_maintenance() {
        let c = coll();
        c.create_gin_index(GinMode::JsonbOps).unwrap();
        c.insert_json(r#"{"_key":"a","tags":["x"]}"#).unwrap();
        c.insert_json(r#"{"_key":"b","notes":"hi"}"#).unwrap();
        assert_eq!(c.with_key("tags").unwrap().len(), 1);
        c.remove("a").unwrap();
        assert!(c.with_key("tags").unwrap().is_empty());
        // A re-put re-indexes.
        c.put("b", from_json(r#"{"tags":["y"]}"#).unwrap()).unwrap();
        assert_eq!(c.with_key("tags").unwrap().len(), 1);
        assert!(c.create_gin_index(GinMode::JsonbOps).is_err());
    }

    #[test]
    fn with_key_requires_gin() {
        let c = coll();
        assert!(matches!(c.with_key("x"), Err(Error::Unsupported(_))));
    }
}
