//! The [`World`]: every model store a query can reach.
//!
//! One `World` is the "single, integrated backend" of the multi-model
//! definition — MMQL names resolve against it in order: document
//! collection, relational table, key/value bucket. Graphs, the triple
//! store, registered XML documents and full-text indexes (which live in
//! their collections) are reached through cross-model functions (`DOC`,
//! `KV_GET`, `TRIPLES`, `XPATH`, `FULLTEXT`, `SHORTEST_PATH`, …).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mmdb_document::Collection;
use mmdb_graph::Graph;
use mmdb_kv::KvStore;
use mmdb_rdf::TripleStore;
use mmdb_relational::Catalog;
use mmdb_storage::BufferPool;
use mmdb_types::{lock_rank, Error, Projection, Result, Value};
use mmdb_xml::Tree;

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

/// All reachable model stores. Each collection keeps its own indexes,
/// full-text ones included; the spatial R-trees are the one index kind
/// held here.
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

    /// Find the collection owning a full-text index (`FULLTEXT` names only
    /// the index). `collections` is a leaf lock, so the collections are
    /// cloned out of it before each one's index lock is taken.
    pub fn collection_with_fulltext(&self, index: &str) -> Result<Arc<Collection>> {
        let colls: Vec<Arc<Collection>> = self.collections.read().values().cloned().collect();
        colls
            .into_iter()
            .find(|c| c.has_fulltext_index(index))
            .ok_or_else(|| Error::NotFound(format!("fulltext index '{index}'")))
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
    /// what `project` keeps of each document, each relational row as an
    /// object of the columns `project` reads, and kv entries whole, as
    /// `{_key, value}`.
    pub fn scan_source(&self, name: &str, project: &Projection) -> Result<Vec<Value>> {
        if let Ok(coll) = self.collection(name) {
            self.access.note_full_scan();
            return coll.all_projected(project);
        }
        if let Ok(table) = self.catalog.table(name) {
            self.access.note_full_scan();
            return table.scan_projected(project);
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
    fn fulltext_finds_the_collection_that_owns_the_index() {
        let w = World::in_memory();
        w.create_collection("orders").unwrap();
        let c = w.create_collection("products").unwrap();
        c.create_fulltext_index("product_text", "description").unwrap();
        assert_eq!(w.collection_with_fulltext("product_text").unwrap().name(), "products");
        assert_eq!(w.collection_with_fulltext("nope").err().unwrap().kind(), "not_found");
    }
}
