//! The [`World`]: every model store a query can reach.
//!
//! One `World` is the "single, integrated backend" of the multi-model
//! definition — MMQL names resolve against it in order: document
//! collection, relational table, key/value bucket. Graphs, the triple
//! store, registered XML documents and full-text indexes are reached
//! through cross-model functions (`DOC`, `KV_GET`, `TRIPLES`, `XPATH`,
//! `FULLTEXT`, `SHORTEST_PATH`, …).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mmdb_document::Collection;
use mmdb_graph::Graph;
use mmdb_kv::KvStore;
use mmdb_rdf::TripleStore;
use mmdb_relational::Catalog;
use mmdb_storage::BufferPool;
use mmdb_text::inverted::DocId as TextDocId;
use mmdb_text::TextIndex;
use mmdb_types::{lock_rank, Error, Projection, Result, Value};
use mmdb_xml::Tree;

/// A registered full-text index: over one field of one collection.
pub struct FulltextIndex {
    /// Source document collection.
    pub collection: String,
    /// Indexed (top-level) field.
    pub field: String,
    /// The inverted index.
    pub index: TextIndex,
    /// Text doc id → document `_key`.
    pub keys: HashMap<TextDocId, String>,
    /// Document `_key` → text doc id, the inverse of `keys`: re-indexing
    /// a document finds its id here instead of searching `keys`.
    ids: HashMap<String, TextDocId>,
    next_id: TextDocId,
}

/// Global access-path counters: how often the executor served a named
/// source from an index versus falling back to a full store scan. Fed by
/// [`World::scan_source`] and the executor's `IndexScan` operator; read
/// by the server's `ADMIN STATS`. Plain relaxed atomics — one increment
/// per operator application, nothing per row.
#[derive(Default)]
pub struct AccessStats {
    index_scans: std::sync::atomic::AtomicU64,
    full_scans: std::sync::atomic::AtomicU64,
}

impl AccessStats {
    /// Record an index-served scan.
    pub fn note_index_scan(&self) {
        self.index_scans.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Record a full store scan.
    pub fn note_full_scan(&self) {
        self.full_scans.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Index-served scans so far.
    pub fn index_scans(&self) -> u64 {
        self.index_scans.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Full store scans so far.
    pub fn full_scans(&self) -> u64 {
        self.full_scans.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// All reachable model stores.
pub struct World {
    pool: Arc<BufferPool>,
    /// Relational tables.
    pub catalog: Catalog,
    /// Document collections by name.
    pub collections: RwLock<HashMap<String, Arc<Collection>>>,
    /// Property graphs by name; MMQL traversals search all graphs for the
    /// named edge collection.
    pub graphs: RwLock<HashMap<String, Arc<Graph>>>,
    /// The key/value store.
    pub kv: KvStore,
    /// The RDF triple store.
    pub rdf: RwLock<TripleStore>,
    /// Registered XML/JSON trees by name (the `XPATH` function's targets).
    pub xml_docs: RwLock<HashMap<String, Arc<Tree>>>,
    /// Full-text indexes by name.
    pub fulltext: RwLock<HashMap<String, FulltextIndex>>,
    /// Spatial indexes by name: R-trees over `(rect, payload)` entries
    /// (the `GEO_WITHIN` / `GEO_NEAREST` functions' targets).
    pub spatial: RwLock<HashMap<String, mmdb_index::rtree::RTree<Value>>>,
    /// Index-hit vs full-scan counters across all queries.
    pub access: AccessStats,
}

impl Default for World {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl World {
    /// A fully in-memory world.
    pub fn in_memory() -> World {
        let pool = Arc::new(BufferPool::default());
        World {
            catalog: Catalog::new(Arc::clone(&pool)),
            pool,
            collections: RwLock::new(HashMap::new()),
            graphs: RwLock::with_rank(lock_rank::WORLD_GRAPHS, HashMap::new()),
            kv: KvStore::default(),
            rdf: RwLock::new(TripleStore::default()),
            xml_docs: RwLock::new(HashMap::new()),
            fulltext: RwLock::with_rank(lock_rank::WORLD_FULLTEXT, HashMap::new()),
            spatial: RwLock::new(HashMap::new()),
            access: AccessStats::default(),
        }
    }

    /// The record-access counter every heap of this world shares.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Create a document collection.
    pub fn create_collection(&self, name: &str) -> Result<Arc<Collection>> {
        let mut colls = self.collections.write();
        if colls.contains_key(name) {
            return Err(Error::AlreadyExists(format!("collection '{name}'")));
        }
        let c = Arc::new(Collection::create(name, Arc::clone(&self.pool))?);
        colls.insert(name.to_string(), Arc::clone(&c));
        Ok(c)
    }

    /// Look up a document collection.
    pub fn collection(&self, name: &str) -> Result<Arc<Collection>> {
        self.collections
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("collection '{name}'")))
    }

    /// Create a property graph.
    pub fn create_graph(&self, name: &str) -> Result<Arc<Graph>> {
        let mut graphs = self.graphs.write();
        if graphs.contains_key(name) {
            return Err(Error::AlreadyExists(format!("graph '{name}'")));
        }
        let g = Arc::new(Graph::create(name, Arc::clone(&self.pool)));
        graphs.insert(name.to_string(), Arc::clone(&g));
        Ok(g)
    }

    /// Look up a graph.
    pub fn graph(&self, name: &str) -> Result<Arc<Graph>> {
        self.graphs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("graph '{name}'")))
    }

    /// Find the graph owning an edge collection (MMQL traversal clauses
    /// name only the edge collection, as AQL does).
    pub fn graph_with_edges(&self, edge_collection: &str) -> Result<Arc<Graph>> {
        for g in self.graphs.read().values() {
            if g.edge_collection_exists(edge_collection) {
                return Ok(Arc::clone(g));
            }
        }
        Err(Error::NotFound(format!("edge collection '{edge_collection}'")))
    }

    /// Register an XML/JSON tree under a name.
    pub fn register_xml(&self, name: &str, tree: Tree) {
        self.xml_docs.write().insert(name.to_string(), Arc::new(tree));
    }

    /// Fetch a registered tree.
    pub fn xml_doc(&self, name: &str) -> Result<Arc<Tree>> {
        self.xml_docs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("xml document '{name}'")))
    }

    /// Create (and backfill) a full-text index over `collection.field`.
    pub fn create_fulltext_index(&self, name: &str, collection: &str, field: &str) -> Result<()> {
        let coll = self.collection(collection)?;
        let mut ft = self.fulltext.write();
        if ft.contains_key(name) {
            return Err(Error::AlreadyExists(format!("fulltext index '{name}'")));
        }
        let mut idx = FulltextIndex {
            collection: collection.to_string(),
            field: field.to_string(),
            index: TextIndex::default(),
            keys: HashMap::new(),
            ids: HashMap::new(),
            next_id: 0,
        };
        for doc in coll.all()? {
            idx.index_document(&doc);
        }
        ft.insert(name.to_string(), idx);
        Ok(())
    }

    /// Notify full-text indexes about a (re)indexed document.
    pub fn fulltext_touch(&self, collection: &str, doc: &Value) {
        let mut ft = self.fulltext.write();
        for idx in ft.values_mut() {
            if idx.collection == collection {
                idx.index_document(doc);
            }
        }
    }

    /// Drop a removed document from its collection's full-text indexes.
    pub fn fulltext_remove(&self, collection: &str, key: &str) {
        let mut ft = self.fulltext.write();
        for idx in ft.values_mut() {
            if idx.collection == collection {
                idx.remove_document(key);
            }
        }
    }

    /// Create an empty named spatial index.
    pub fn create_spatial_index(&self, name: &str) -> Result<()> {
        let mut sp = self.spatial.write();
        if sp.contains_key(name) {
            return Err(Error::AlreadyExists(format!("spatial index '{name}'")));
        }
        sp.insert(name.to_string(), mmdb_index::rtree::RTree::new());
        Ok(())
    }

    /// Insert a point (or rectangle via equal corners) into a spatial index.
    pub fn spatial_insert(&self, name: &str, x: f64, y: f64, payload: Value) -> Result<()> {
        let mut sp = self.spatial.write();
        let tree = sp
            .get_mut(name)
            .ok_or_else(|| Error::NotFound(format!("spatial index '{name}'")))?;
        tree.insert(mmdb_index::rtree::Rect::point(x, y), payload);
        Ok(())
    }

    /// How a bare name resolves (for EXPLAIN-style output and tests).
    pub fn resolve_source(&self, name: &str) -> Option<&'static str> {
        if self.collections.read().contains_key(name) {
            Some("document-collection")
        } else if self.catalog.table(name).is_ok() {
            Some("relational-table")
        } else if self.kv.has_bucket(name) {
            Some("kv-bucket")
        } else {
            None
        }
    }

    /// Materialize a bare `FOR x IN name` source as an array of objects:
    /// what `project` keeps of each document; relational rows as column
    /// objects and kv entries as `{_key, value}`, both whole.
    pub fn scan_source(&self, name: &str, project: &Projection) -> Result<Vec<Value>> {
        if let Ok(coll) = self.collection(name) {
            self.access.note_full_scan();
            return coll.all_projected(project);
        }
        if let Ok(table) = self.catalog.table(name) {
            self.access.note_full_scan();
            let rows = table.scan()?;
            return Ok(rows.into_iter().map(|row| table.schema().object_from_row(row)).collect());
        }
        if self.kv.has_bucket(name) {
            self.access.note_full_scan();
            return Ok(self
                .kv
                .scan_all(name)?
                .into_iter()
                .map(|(k, v)| Value::object([("_key", Value::str(k)), ("value", v)]))
                .collect());
        }
        Err(Error::NotFound(format!(
            "'{name}' is not a collection, table or bucket"
        )))
    }
}

impl FulltextIndex {
    fn index_document(&mut self, doc: &Value) {
        let Ok(key) = doc.get_field("_key").as_str() else { return };
        let text = match doc.get_field(&self.field) {
            Value::String(s) => s.to_string(),
            Value::Null => return self.remove_document(key),
            other => other.to_string(),
        };
        // Reuse the id when re-indexing the same key.
        let id = match self.ids.get(key) {
            Some(&id) => id,
            None => {
                self.next_id += 1;
                self.ids.insert(key.to_string(), self.next_id);
                self.keys.insert(self.next_id, key.to_string());
                self.next_id
            }
        };
        self.index.index(id, &text);
    }

    fn remove_document(&mut self, key: &str) {
        if let Some(id) = self.ids.remove(key) {
            self.keys.remove(&id);
            self.index.remove(id);
        }
    }

    /// Matching document keys for a text query string.
    pub fn search(&self, query: &str) -> Vec<String> {
        mmdb_text::TextQuery::parse(query)
            .eval(&self.index)
            .into_iter()
            .filter_map(|id| self.keys.get(&id).cloned())
            .collect()
    }

    /// BM25-ranked `(key, score)` hits.
    pub fn search_ranked(&self, query: &str, limit: usize) -> Vec<(String, f64)> {
        mmdb_text::score::bm25_search(&self.index, query, limit)
            .into_iter()
            .filter_map(|h| self.keys.get(&h.doc).map(|k| (k.clone(), h.score)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_relational::{ColumnDef, DataType, Schema};

    #[test]
    fn source_resolution_order() {
        let w = World::in_memory();
        w.create_collection("orders").unwrap();
        w.catalog
            .create_table(
                "customers",
                Schema::new(vec![ColumnDef::new("id", DataType::Int)], "id").unwrap(),
            )
            .unwrap();
        w.kv.create_bucket("cart").unwrap();
        assert_eq!(w.resolve_source("orders"), Some("document-collection"));
        assert_eq!(w.resolve_source("customers"), Some("relational-table"));
        assert_eq!(w.resolve_source("cart"), Some("kv-bucket"));
        assert_eq!(w.resolve_source("nope"), None);
        assert!(w.scan_source("nope", &Projection::ALL).is_err());
    }

    #[test]
    fn scan_source_shapes() {
        let w = World::in_memory();
        let c = w.create_collection("docs").unwrap();
        c.insert_json(r#"{"_key":"a","x":1}"#).unwrap();
        let t = w
            .catalog
            .create_table(
                "t",
                Schema::new(
                    vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("n", DataType::Text)],
                    "id",
                )
                .unwrap(),
            )
            .unwrap();
        t.insert(vec![Value::int(1), Value::str("row")]).unwrap();
        w.kv.create_bucket("b").unwrap();
        w.kv.put("b", "k1", Value::int(9)).unwrap();

        let scan = |name: &str| w.scan_source(name, &Projection::ALL).unwrap();
        assert_eq!(scan("docs")[0].get_field("x"), &Value::int(1));
        assert_eq!(scan("t")[0].get_field("n"), &Value::str("row"));
        let kv = scan("b");
        assert_eq!(kv[0].get_field("_key"), &Value::str("k1"));
        assert_eq!(kv[0].get_field("value"), &Value::int(9));
    }

    #[test]
    fn fulltext_index_lifecycle() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        c.insert_json(r#"{"_key":"p1","description":"a wooden toy train"}"#).unwrap();
        c.insert_json(r#"{"_key":"p2","description":"a paperback book"}"#).unwrap();
        w.create_fulltext_index("product_text", "products", "description").unwrap();
        let ft = w.fulltext.read();
        let idx = ft.get("product_text").unwrap();
        assert_eq!(idx.search("toy"), vec!["p1"]);
        assert_eq!(idx.search("paperback book"), vec!["p2"]);
        assert!(idx.search("bicycle").is_empty());
        let ranked = idx.search_ranked("book toy", 10);
        assert_eq!(ranked.len(), 2);
        drop(ft);
        assert!(w.create_fulltext_index("product_text", "products", "description").is_err());
        // New documents reach the index via fulltext_touch.
        let doc = mmdb_types::from_json(r#"{"_key":"p3","description":"toy robot"}"#).unwrap();
        c.insert(doc.clone()).unwrap();
        w.fulltext_touch("products", &doc);
        let ft = w.fulltext.read();
        assert_eq!(ft.get("product_text").unwrap().search("robot"), vec!["p3"]);
    }

    #[test]
    fn reindexing_a_key_reuses_its_id_and_replaces_its_postings() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        c.insert_json(r#"{"_key":"p1","description":"a wooden toy train"}"#).unwrap();
        c.insert_json(r#"{"_key":"p2","description":"a paperback book"}"#).unwrap();
        w.create_fulltext_index("product_text", "products", "description").unwrap();
        let id_of = |key: &str| {
            let ft = w.fulltext.read();
            let idx = ft.get("product_text").unwrap();
            let ids: Vec<TextDocId> =
                idx.keys.iter().filter(|(_, k)| k.as_str() == key).map(|(&id, _)| id).collect();
            assert_eq!(ids.len(), 1, "one id per key, got {ids:?} for {key}");
            assert_eq!(idx.ids.get(key), Some(&ids[0]), "both maps agree");
            ids[0]
        };
        let before = id_of("p1");
        let doc = mmdb_types::from_json(r#"{"_key":"p1","description":"a steel robot"}"#).unwrap();
        w.fulltext_touch("products", &doc);
        assert_eq!(id_of("p1"), before);
        let ft = w.fulltext.read();
        let idx = ft.get("product_text").unwrap();
        assert_eq!((idx.keys.len(), idx.ids.len(), idx.index.doc_count()), (2, 2, 2));
        assert_eq!(idx.search("robot"), vec!["p1"]);
        assert!(idx.search("toy").is_empty(), "the old postings are gone");
        assert!(idx.search("train").is_empty());
        assert_eq!(idx.search("book"), vec!["p2"]);
    }

    #[test]
    fn a_removed_document_or_field_leaves_no_postings() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        for (key, text) in [("p1", "a wooden toy"), ("p2", "a toy train"), ("p3", "a book")] {
            c.insert(Value::object([("_key", Value::str(key)), ("description", Value::str(text))]))
                .unwrap();
        }
        w.create_fulltext_index("product_text", "products", "description").unwrap();
        w.fulltext_remove("products", "p1");
        w.fulltext_touch("products", &Value::object([("_key", Value::str("p2"))]));
        let ft = w.fulltext.read();
        let idx = ft.get("product_text").unwrap();
        assert_eq!((idx.keys.len(), idx.ids.len(), idx.index.doc_count()), (1, 1, 1));
        assert!(idx.search("toy").is_empty());
        assert_eq!(idx.search("book"), vec!["p3"]);
    }
}
