//! Document collections: heap-stored JSON documents with `_key` identity.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use mmdb_index::gin::DocId;
use mmdb_index::{BPlusTree, ExtendibleHashMap, GinIndex, GinMode};
use mmdb_storage::{BufferPool, HeapFile, RecordId};
use mmdb_types::codec::{key_of, value_from_bytes, value_to_bytes};
use mmdb_types::{lock_rank, Error, Path, Result, Value};

/// The reserved primary-key attribute, as in ArangoDB.
pub const KEY_FIELD: &str = "_key";

struct CollectionIndexes {
    /// `_key` → record id (ArangoDB's primary *hash* index).
    primary: ExtendibleHashMap<String, RecordId>,
    /// Persistent (B+-tree) indexes: path → (encoded value ++ key) → rid.
    persistent: HashMap<String, BPlusTree<Vec<u8>, RecordId>>,
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
            heap: HeapFile::create(pool)?,
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

    /// Insert a document (must be an object). A missing `_key` gets an
    /// auto-generated one; the (possibly generated) key is returned.
    pub fn insert(&self, mut doc: Value) -> Result<String> {
        let obj = doc.as_object_mut()?;
        let key = match obj.get(KEY_FIELD) {
            Some(Value::String(k)) => k.clone(),
            Some(other) => {
                return Err(Error::Schema(format!(
                    "_key must be a string, got {}",
                    other.type_name()
                )))
            }
            None => {
                let k = self.next_key.fetch_add(1, Ordering::SeqCst).to_string();
                obj.insert(KEY_FIELD, Value::str(&k));
                k
            }
        };
        {
            let idx = self.indexes.read();
            if idx.primary.get(&key).is_some() {
                return Err(Error::AlreadyExists(format!(
                    "document '{key}' in collection '{}'",
                    self.name
                )));
            }
        }
        let rid = self.heap.insert(&value_to_bytes(&doc))?;
        let mut idx = self.indexes.write();
        idx.primary.insert(key.clone(), rid);
        for (path_text, tree) in idx.persistent.iter_mut() {
            let path = Path::parse(path_text)?;
            tree.insert(sec_key(path.eval_point(&doc)?, &key), rid);
        }
        if let Some(gin) = &mut idx.gin {
            // GIN doc ids must never be reused, so draw them from the same
            // monotone counter as generated keys.
            let id: DocId = self.next_key.fetch_add(1, Ordering::SeqCst);
            gin.index.insert(id, &doc);
            gin.by_key.insert(key.clone(), id);
            gin.by_id.insert(id, key.clone());
        }
        Ok(key)
    }

    /// Insert from JSON text.
    pub fn insert_json(&self, json: &str) -> Result<String> {
        self.insert(mmdb_types::from_json(json)?)
    }

    /// Fetch by `_key`.
    pub fn get(&self, key: &str) -> Result<Option<Value>> {
        let rid = { self.indexes.read().primary.get(&key.to_string()).copied() };
        rid.map(|r| value_from_bytes(&self.heap.get(r)?)).transpose()
    }

    /// Whether a document with this `_key` exists: a primary-index probe,
    /// no heap fetch and no decode.
    pub fn contains_key(&self, key: &str) -> bool {
        self.indexes.read().primary.get(&key.to_string()).is_some()
    }

    /// Replace a document wholesale (the `_key` in `doc`, if present, must
    /// match).
    pub fn update(&self, key: &str, mut doc: Value) -> Result<()> {
        {
            let obj = doc.as_object_mut()?;
            match obj.get(KEY_FIELD) {
                None => {
                    obj.insert(KEY_FIELD, Value::str(key));
                }
                Some(Value::String(k)) if k == key => {}
                Some(_) => return Err(Error::Schema("_key mismatch in update".into())),
            }
        }
        let rid = {
            self.indexes
                .read()
                .primary
                .get(&key.to_string())
                .copied()
                .ok_or_else(|| Error::NotFound(format!("document '{key}'")))?
        };
        let old = value_from_bytes(&self.heap.get(rid)?)?;
        let new_rid = self.heap.update(rid, &value_to_bytes(&doc))?;
        let mut idx = self.indexes.write();
        if new_rid != rid {
            idx.primary.insert(key.to_string(), new_rid);
        }
        for (path_text, tree) in idx.persistent.iter_mut() {
            let path = Path::parse(path_text)?;
            let (ov, nv) = (path.eval_point(&old)?, path.eval_point(&doc)?);
            if ov != nv || new_rid != rid {
                tree.remove(&sec_key(ov, key));
                tree.insert(sec_key(nv, key), new_rid);
            }
        }
        if let Some(gin) = &mut idx.gin {
            if let Some(&id) = gin.by_key.get(key) {
                gin.index.remove(id, &old);
                gin.index.insert(id, &doc);
            }
        }
        Ok(())
    }

    /// Merge-patch: set the given top-level fields, keep the rest.
    pub fn patch(&self, key: &str, patch: &Value) -> Result<()> {
        let mut doc = self
            .get(key)?
            .ok_or_else(|| Error::NotFound(format!("document '{key}'")))?;
        {
            let obj = doc.as_object_mut()?;
            for (k, v) in patch.as_object()?.iter() {
                if k == KEY_FIELD {
                    continue;
                }
                obj.insert(k.to_string(), v.clone());
            }
        }
        self.update(key, doc)
    }

    /// Remove by `_key`; returns whether it existed.
    pub fn remove(&self, key: &str) -> Result<bool> {
        let rid = { self.indexes.read().primary.get(&key.to_string()).copied() };
        let Some(rid) = rid else { return Ok(false) };
        let old = value_from_bytes(&self.heap.get(rid)?)?;
        self.heap.delete(rid)?;
        let mut idx = self.indexes.write();
        idx.primary.remove(&key.to_string());
        for (path_text, tree) in idx.persistent.iter_mut() {
            let path = Path::parse(path_text)?;
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
        self.heap
            .scan()?
            .into_iter()
            .map(|(_, bytes)| value_from_bytes(&bytes))
            .collect()
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
        for (rid, bytes) in self.heap.scan()? {
            let doc = value_from_bytes(&bytes)?;
            let key = doc.get_field(KEY_FIELD).as_str().unwrap_or("").to_string();
            tree.insert(sec_key(path.eval_point(&doc)?, &key), rid);
        }
        idx.persistent.insert(path_text.to_string(), tree);
        Ok(())
    }

    /// Create the collection's GIN index (one per collection), backfilling.
    pub fn create_gin_index(&self, mode: GinMode) -> Result<()> {
        let mut idx = self.indexes.write();
        if idx.gin.is_some() {
            return Err(Error::AlreadyExists("gin index".into()));
        }
        let mut gin = GinState { index: GinIndex::new(mode), by_key: HashMap::new(), by_id: HashMap::new() };
        for (_, bytes) in self.heap.scan()? {
            let doc = value_from_bytes(&bytes)?;
            let key = doc.get_field(KEY_FIELD).as_str().unwrap_or("").to_string();
            let id: DocId = self.next_key.fetch_add(1, Ordering::SeqCst);
            gin.index.insert(id, &doc);
            gin.by_key.insert(key.clone(), id);
            gin.by_id.insert(id, key);
        }
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
        self.range_bounds(path_text, Bound::Included(lo), Bound::Included(hi))
    }

    /// Range query with explicit bounds on each side.
    pub fn range_bounds(
        &self,
        path_text: &str,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<(Vec<Value>, bool)> {
        let path = Path::parse(path_text)?;
        {
            let idx = self.indexes.read();
            if let Some(tree) = idx.persistent.get(path_text) {
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
                    docs.push(value_from_bytes(&self.heap.get(rid)?)?);
                }
                return Ok((docs, true));
            }
        }
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
    use mmdb_storage::DiskManager;
    use mmdb_types::from_json;

    fn coll() -> Collection {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::in_memory()), 64));
        Collection::create("orders", pool).unwrap()
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
    fn update_and_patch() {
        let c = coll();
        c.insert_json(r#"{"_key":"k","status":"new","total":10}"#).unwrap();
        c.update("k", from_json(r#"{"status":"paid"}"#).unwrap()).unwrap();
        let doc = c.get("k").unwrap().unwrap();
        assert_eq!(doc.get_field("status"), &Value::str("paid"));
        assert_eq!(doc.get_field("total"), &Value::Null, "update replaces wholesale");
        c.patch("k", &from_json(r#"{"total":20}"#).unwrap()).unwrap();
        let doc = c.get("k").unwrap().unwrap();
        assert_eq!(doc.get_field("status"), &Value::str("paid"));
        assert_eq!(doc.get_field("total"), &Value::int(20));
        assert!(c.update("missing", from_json("{}").unwrap()).is_err());
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
        // Index maintenance across update and remove.
        c.update("d15", from_json(r#"{"price":5000}"#).unwrap()).unwrap();
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
        // Update re-indexes.
        c.update("b", from_json(r#"{"tags":["y"]}"#).unwrap()).unwrap();
        assert_eq!(c.with_key("tags").unwrap().len(), 1);
        assert!(c.create_gin_index(GinMode::JsonbOps).is_err());
    }

    #[test]
    fn with_key_requires_gin() {
        let c = coll();
        assert!(matches!(c.with_key("x"), Err(Error::Unsupported(_))));
    }
}
