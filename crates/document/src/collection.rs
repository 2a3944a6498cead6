//! Document collections: heap-stored JSON documents with `_key` identity.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use mmdb_index::value::within;
use mmdb_index::{ExtendibleHashMap, GinIndex, GinMode, ValueIndex};
use mmdb_storage::{BufferPool, HeapFile, RecordId};
use mmdb_text::{score::bm25_search, TextIndex, TextQuery};
use mmdb_types::codec::{decode_projected, value_from_bytes, value_to_bytes};
use mmdb_types::{lock_rank, Error, Path, Projection, Result, Value};

/// The reserved primary-key attribute, as in ArangoDB.
pub const KEY_FIELD: &str = "_key";

/// Every index of a collection, behind its one lock. The secondary
/// indexes name a document by its heap [`RecordId`]: a replace keeps the
/// id, and a slot is freed, for a later insert to reuse, only with this
/// lock write-held and the document's entries removed.
struct CollectionIndexes {
    /// `_key` → record id (ArangoDB's primary *hash* index).
    primary: ExtendibleHashMap<String, RecordId>,
    /// Persistent indexes: path text → the parsed path and its index,
    /// each document filed under its `_key`.
    persistent: HashMap<String, (Path, ValueIndex)>,
    /// Optional GIN index.
    gin: Option<GinIndex>,
    /// Full-text indexes by name: the indexed top-level field and the
    /// inverted index over its text.
    fulltext: HashMap<String, (String, TextIndex)>,
}

impl CollectionIndexes {
    /// Whether an index besides the primary one holds entries of a
    /// document, which a put or remove must move.
    fn has_secondary(&self) -> bool {
        !self.persistent.is_empty() || self.gin.is_some() || !self.fulltext.is_empty()
    }
}

/// A document collection, with its primary, persistent, GIN and full-text
/// indexes kept in step by [`put`](Self::put) and [`remove`](Self::remove).
pub struct Collection {
    name: String,
    heap: HeapFile,
    indexes: RwLock<CollectionIndexes>,
    next_key: AtomicU64,
}

/// The text a full-text index on `field` takes from `doc`: a string as
/// it is, any other value as its text, nothing for a missing field.
fn field_text<'a>(doc: &'a Value, field: &str) -> Option<Cow<'a, str>> {
    match doc.get_field(field) {
        Value::String(s) => Some(Cow::Borrowed(s)),
        Value::Null => None,
        other => Some(Cow::Owned(other.to_string())),
    }
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
                    fulltext: HashMap::new(),
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
    /// writes a document and keeps the primary, persistent, GIN and
    /// full-text indexes in step. The document's `_key`, if present, must
    /// be `key`; a missing one is set. The old document is fetched only
    /// when a secondary index has entries of it to move.
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
            Some(rid) if idx.has_secondary() => Some(self.fetch(rid, &Projection::ALL)?),
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
        for (path, index) in idx.persistent.values_mut() {
            let old = old.as_ref().map(|old| path.eval_point(old)).transpose()?;
            index.update(old, path.eval_point(&doc)?, key.as_bytes(), rid);
        }
        if let Some(gin) = &mut idx.gin {
            if let Some(old) = &old {
                gin.remove(rid, old);
            }
            gin.insert(rid, &doc);
        }
        for (field, text) in idx.fulltext.values_mut() {
            let new = field_text(&doc, field);
            let old = old.as_ref().and_then(|old| field_text(old, field));
            if old == new {
                continue;
            }
            if let Some(old) = old {
                text.remove(rid, &old);
            }
            if let Some(new) = new {
                text.index(rid, &new);
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

    /// What `p` keeps of a document an index named, fetched with the index
    /// lock released: `None` for a slot freed since, and a slot reused
    /// since gives its new document, as a concurrent put may change any
    /// answer read from the live view.
    fn fetch_hit(&self, rid: RecordId, p: &Projection) -> Result<Option<Value>> {
        self.heap.try_get_with(rid, |bytes| decode_projected(bytes, p)).transpose()
    }

    /// [`fetch_hit`](Self::fetch_hit) for each id, skipping freed slots.
    fn fetch_hits(&self, rids: Vec<RecordId>, p: &Projection) -> Result<Vec<Value>> {
        let mut docs = Vec::with_capacity(rids.len());
        for rid in rids {
            docs.extend(self.fetch_hit(rid, p)?);
        }
        Ok(docs)
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
        let old = if idx.has_secondary() { self.fetch(rid, &Projection::ALL)? } else { Value::Null };
        self.heap.delete(rid)?;
        idx.primary.remove(key);
        for (path, index) in idx.persistent.values_mut() {
            index.remove(path.eval_point(&old)?, key.as_bytes());
        }
        if let Some(gin) = &mut idx.gin {
            gin.remove(rid, &old);
        }
        for (field, text) in idx.fulltext.values_mut() {
            if let Some(old) = field_text(&old, field) {
                text.remove(rid, &old);
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

    /// Create a persistent index on a path, backfilling.
    pub fn create_persistent_index(&self, path_text: &str) -> Result<()> {
        let path = Path::parse(path_text)?;
        if !path.is_point() {
            return Err(Error::Unsupported("wildcard paths cannot be indexed yet".into()));
        }
        let mut idx = self.indexes.write();
        if idx.persistent.contains_key(path_text) {
            return Err(Error::AlreadyExists(format!("index on '{path_text}'")));
        }
        let mut index = ValueIndex::new();
        self.heap.scan_with(|rid, bytes| {
            let doc = value_from_bytes(bytes)?;
            let key = doc.get_field(KEY_FIELD).as_str().unwrap_or("");
            index.insert(path.eval_point(&doc)?, key.as_bytes(), rid);
            Ok(())
        })?;
        idx.persistent.insert(path_text.to_string(), (path, index));
        Ok(())
    }

    /// Create the collection's GIN index (one per collection), backfilling.
    pub fn create_gin_index(&self, mode: GinMode) -> Result<()> {
        let mut idx = self.indexes.write();
        if idx.gin.is_some() {
            return Err(Error::AlreadyExists("gin index".into()));
        }
        let mut gin = GinIndex::new(mode);
        self.heap.scan_with(|rid, bytes| {
            gin.insert(rid, &value_from_bytes(bytes)?);
            Ok(())
        })?;
        idx.gin = Some(gin);
        Ok(())
    }

    /// Create a full-text index named `name` on the top-level `field`,
    /// backfilling.
    pub fn create_fulltext_index(&self, name: &str, field: &str) -> Result<()> {
        let mut idx = self.indexes.write();
        if idx.fulltext.contains_key(name) {
            return Err(Error::AlreadyExists(format!("fulltext index '{name}'")));
        }
        let mut text = TextIndex::default();
        self.heap.scan_with(|rid, bytes| {
            if let Some(t) = field_text(&value_from_bytes(bytes)?, field) {
                text.index(rid, &t);
            }
            Ok(())
        })?;
        idx.fulltext.insert(name.to_string(), (field.to_string(), text));
        Ok(())
    }

    /// Run `search` over the full-text index `name` under the index lock.
    fn search_fulltext<R>(&self, name: &str, search: impl FnOnce(&TextIndex) -> R) -> Result<R> {
        let idx = self.indexes.read();
        let (_, text) = idx
            .fulltext
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("fulltext index '{name}'")))?;
        Ok(search(text))
    }

    /// What `p` keeps of each document the full-text index `name` matches
    /// for `query` (a [`TextQuery::parse`] string), in record id order.
    pub fn fulltext(&self, name: &str, query: &str, p: &Projection) -> Result<Vec<Value>> {
        let rids = self.search_fulltext(name, |text| TextQuery::parse(query).eval(text))?;
        self.fetch_hits(rids, p)
    }

    /// The `limit` best BM25 hits of `query` in the full-text index
    /// `name`: each document with its score, best first.
    pub fn fulltext_ranked(&self, name: &str, query: &str, limit: usize) -> Result<Vec<(Value, f64)>> {
        let hits = self.search_fulltext(name, |text| bm25_search(text, query, limit))?;
        let mut out = Vec::with_capacity(hits.len());
        for hit in hits {
            if let Some(doc) = self.fetch_hit(hit.doc, &Projection::ALL)? {
                out.push((doc, hit.score));
            }
        }
        Ok(out)
    }

    /// Indexed paths (sorted).
    pub fn indexed_paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.indexes.read().persistent.keys().cloned().collect();
        v.sort();
        v
    }

    /// The documents whose value at `path_text` lies within `lo..hi`,
    /// each with at least what `p` keeps: through the path's persistent
    /// index when it has one (in index order), else a scan that decodes
    /// each document whole to test it and returns it whole. Returns
    /// `(docs, used_index)`.
    pub fn range(
        &self,
        path_text: &str,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        p: &Projection,
    ) -> Result<(Vec<Value>, bool)> {
        let rids = self.indexes.read().persistent.get(path_text).map(|(_, index)| index.range(lo, hi));
        if let Some(rids) = rids {
            return Ok((self.fetch_hits(rids, p)?, true));
        }
        let path = Path::parse(path_text)?;
        let mut docs = Vec::new();
        for doc in self.all()? {
            if within(path.eval_point(&doc)?, lo, hi) {
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
                if let Ok(candidates) = gin.contains_candidates(pattern) {
                    drop(idx);
                    let mut docs = self.fetch_hits(candidates, &Projection::ALL)?;
                    docs.retain(|doc| doc.contains(pattern));
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
        let rids = gin.key_exists(field)?;
        drop(idx);
        self.fetch_hits(rids, &Projection::ALL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::from_json;

    fn coll() -> Collection {
        Collection::create("orders", Arc::default()).unwrap()
    }

    /// The documents whose `path` lies within `lo..=hi`, and whether the
    /// read used an index.
    fn between(c: &Collection, path: &str, lo: i64, hi: i64) -> (Vec<Value>, bool) {
        let (lo, hi) = (Value::int(lo), Value::int(hi));
        c.range(path, Bound::Included(&lo), Bound::Included(&hi), &Projection::ALL).unwrap()
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
    fn persistent_index_serves_ranges() {
        let c = coll();
        for i in 0..100 {
            c.insert_json(&format!(r#"{{"_key":"d{i}","price":{}}}"#, i * 10)).unwrap();
        }
        let (docs, used) = between(&c, "price", 100, 190);
        assert!(!used);
        assert_eq!(docs.len(), 10);
        c.create_persistent_index("price").unwrap();
        let (docs2, used) = between(&c, "price", 100, 190);
        assert!(used);
        assert_eq!(keys(docs2), keys(docs), "index order is price order, as the heap's here");
        assert!(c.create_persistent_index("price").is_err());
        assert_eq!(c.indexed_paths(), vec!["price".to_string()]);
        // Index maintenance across a re-put and a remove.
        c.put("d15", from_json(r#"{"price":5000}"#).unwrap()).unwrap();
        c.remove("d12").unwrap();
        let (docs3, _) = between(&c, "price", 100, 190);
        assert_eq!(docs3.len(), 8);
        // Open bounds, and a projection the index read keeps to.
        let nine_ninety = Value::int(990);
        let price = Projection::of([Path::parse("price").unwrap()]);
        let (above, _) = c.range("price", Bound::Excluded(&nine_ninety), Bound::Unbounded, &price).unwrap();
        assert_eq!(above, [Value::object([("price", Value::int(5000))])]);
        let (below, _) = c.range("price", Bound::Unbounded, Bound::Excluded(&Value::int(20)), &price).unwrap();
        assert_eq!(below.len(), 2);
    }

    #[test]
    fn nested_path_index() {
        let c = coll();
        c.insert(paper_order()).unwrap();
        c.insert_json(r#"{"_key":"x","orderlines":[{"price":10}]}"#).unwrap();
        c.create_persistent_index("orderlines[0].price").unwrap();
        let (docs, used) = between(&c, "orderlines[0].price", 50, 100);
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

    fn keys(docs: Vec<Value>) -> Vec<String> {
        docs.iter().map(|d| d.get_field(KEY_FIELD).as_str().unwrap().to_string()).collect()
    }

    #[test]
    fn fulltext_index_lifecycle() {
        let c = coll();
        c.insert_json(r#"{"_key":"p1","description":"a wooden toy train"}"#).unwrap();
        c.insert_json(r#"{"_key":"p2","description":"a paperback book"}"#).unwrap();
        c.create_fulltext_index("product_text", "description").unwrap();
        let search = |q: &str| keys(c.fulltext("product_text", q, &Projection::ALL).unwrap());
        assert_eq!(search("toy"), vec!["p1"]);
        assert_eq!(search("paperback book"), vec!["p2"]);
        assert!(search("bicycle").is_empty());
        assert_eq!(c.fulltext_ranked("product_text", "book toy", 10).unwrap().len(), 2);
        assert!(matches!(c.create_fulltext_index("product_text", "x"), Err(Error::AlreadyExists(_))));
        assert!(matches!(c.fulltext("nope", "toy", &Projection::ALL), Err(Error::NotFound(_))));
        // A put reaches the index.
        c.insert_json(r#"{"_key":"p3","description":"toy robot"}"#).unwrap();
        assert_eq!(search("robot"), vec!["p3"]);
        assert_eq!(search("toy"), vec!["p1", "p3"]);
    }

    #[test]
    fn a_replace_moves_its_postings_and_keeps_its_record_id() {
        let c = coll();
        c.insert_json(r#"{"_key":"p1","description":"a wooden toy train"}"#).unwrap();
        c.insert_json(r#"{"_key":"p2","description":"a paperback book"}"#).unwrap();
        c.create_fulltext_index("product_text", "description").unwrap();
        let rid = |key: &str| c.indexes.read().primary.get(key).copied().unwrap();
        let before = rid("p1");
        c.put("p1", from_json(r#"{"description":"a steel robot"}"#).unwrap()).unwrap();
        assert_eq!(rid("p1"), before);
        let search = |q: &str| keys(c.fulltext("product_text", q, &Projection::ALL).unwrap());
        assert_eq!(search("robot"), vec!["p1"]);
        assert!(search("toy").is_empty(), "the old postings are gone");
        assert!(search("train").is_empty());
        assert_eq!(search("book"), vec!["p2"]);
        let idx = c.indexes.read();
        assert_eq!(idx.fulltext["product_text"].1.doc_count(), 2);
    }

    #[test]
    fn a_removed_document_or_field_leaves_no_postings() {
        let c = coll();
        for (key, text) in [("p1", "a wooden toy"), ("p2", "a toy train"), ("p3", "a book")] {
            c.insert(Value::object([("_key", Value::str(key)), ("description", Value::str(text))]))
                .unwrap();
        }
        c.create_fulltext_index("product_text", "description").unwrap();
        c.remove("p1").unwrap();
        c.put("p2", Value::object([("other", Value::int(1))])).unwrap();
        assert_eq!(c.indexes.read().fulltext["product_text"].1.doc_count(), 1);
        let search = |q: &str| keys(c.fulltext("product_text", q, &Projection::ALL).unwrap());
        assert!(search("toy").is_empty());
        assert_eq!(search("book"), vec!["p3"]);
        // p4 takes p1's freed slot, and only its own text finds it.
        c.insert_json(r#"{"_key":"p4","description":"a kite"}"#).unwrap();
        assert_eq!(search("kite"), vec!["p4"]);
        assert!(search("wooden").is_empty());
    }

    #[test]
    fn with_key_requires_gin() {
        let c = coll();
        assert!(matches!(c.with_key("x"), Err(Error::Unsupported(_))));
    }
}
