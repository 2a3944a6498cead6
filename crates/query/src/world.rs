//! The [`World`]: every model store a query can reach.
//!
//! One `World` is the "single, integrated backend" of the multi-model
//! definition. Its [`Catalog`] is one namespace across the models: a name
//! is one container (collection, table, bucket, graph or tree) or one part
//! of one (a graph's vertex or edge collection, a collection's full-text
//! index), and every lookup is one probe of it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mmdb_document::Collection;
use mmdb_graph::Graph;
use mmdb_kv::Bucket;
use mmdb_rdf::TripleStore;
use mmdb_relational::{Schema, Table};
use mmdb_storage::BufferPool;
use mmdb_types::{Error, Projection, Result, Value};
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

/// What a catalog name holds.
#[derive(Clone)]
pub enum Container {
    /// A document collection.
    Collection(Arc<Collection>),
    /// A relational table.
    Table(Arc<Table>),
    /// A key/value bucket.
    Bucket(Arc<Bucket>),
    /// A property graph.
    Graph(Arc<Graph>),
    /// A registered XML/JSON tree (`XPATH`'s target).
    Tree(Arc<Tree>),
    /// A vertex collection of the graph.
    Vertices(Arc<Graph>),
    /// An edge collection of the graph.
    Edges(Arc<Graph>),
    /// A full-text index of the collection.
    Fulltext(Arc<Collection>),
}

impl Container {
    /// The kind's name. A top-level container's is its definition
    /// domain's (`ddl/<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            Container::Collection(_) => "collection",
            Container::Table(_) => "table",
            Container::Bucket(_) => "bucket",
            Container::Graph(_) => "graph",
            Container::Tree(_) => "tree",
            Container::Vertices(_) => "vertex collection",
            Container::Edges(_) => "edge collection",
            Container::Fulltext(_) => "fulltext index",
        }
    }

    /// The name of the graph or collection this is a part of.
    fn owner(&self) -> Option<&str> {
        match self {
            Container::Vertices(g) | Container::Edges(g) => Some(g.name()),
            Container::Fulltext(c) => Some(c.name()),
            _ => None,
        }
    }
}

/// The one namespace: `name → Container`, behind one leaf lock. A handle
/// is built before the lock is taken and cloned out before it is used,
/// so nothing is ever acquired under it.
pub struct Catalog {
    pool: Arc<BufferPool>,
    entries: RwLock<HashMap<String, Container>>,
}

/// `NotFound` for a `want` lookup of `name`, which holds `held`.
fn missing(want: &str, name: &str, held: Option<Container>) -> Error {
    match held {
        None => Error::NotFound(format!("{want} '{name}'")),
        Some(c) => Error::NotFound(format!("{want} '{name}': the name is a {}", c.kind())),
    }
}

/// The typed lookups: each is one probe that wants one kind.
macro_rules! lookups {
    ($($(#[$doc:meta])* $lookup:ident: $kind:ident -> $handle:ty, $want:literal;)*) => {
        impl Catalog {
            $($(#[$doc])*
            pub fn $lookup(&self, name: &str) -> Result<Arc<$handle>> {
                match self.get(name) {
                    Some(Container::$kind(handle)) => Ok(handle),
                    held => Err(missing($want, name, held)),
                }
            })*
        }
    };
}

lookups! {
    /// Look up a document collection.
    collection: Collection -> Collection, "collection";
    /// Look up a table.
    table: Table -> Table, "table";
    /// Look up a key/value bucket.
    bucket: Bucket -> Bucket, "bucket";
    /// Look up a graph.
    graph: Graph -> Graph, "graph";
    /// The graph owning an edge collection (MMQL traversal clauses name
    /// only the edge collection, as AQL does).
    edges: Edges -> Graph, "edge collection";
    /// The collection owning a full-text index (`FULLTEXT` names only the
    /// index).
    fulltext: Fulltext -> Collection, "fulltext index";
    /// Look up a registered tree.
    tree: Tree -> Tree, "tree";
}

impl Catalog {
    /// What `name` holds: the one probe every lookup makes.
    pub fn get(&self, name: &str) -> Option<Container> {
        self.entries.read().get(name).cloned()
    }

    /// Every name with its kind, sorted by name.
    pub fn names(&self) -> Vec<(String, &'static str)> {
        let mut names: Vec<_> = self.entries.read().iter().map(|(n, c)| (n.clone(), c.kind())).collect();
        names.sort();
        names
    }

    /// Put `container` under `name` if it is free, and say whether it was.
    /// A name holding the same kind (and owner, for a part) is a re-applied
    /// definition, left as it is; any other is `AlreadyExists`.
    fn claim(&self, name: &str, container: Container) -> Result<bool> {
        let mut entries = self.entries.write();
        match entries.get(name) {
            None => {
                entries.insert(name.to_string(), container);
                Ok(true)
            }
            Some(held) if held.kind() == container.kind() && held.owner() == container.owner() => Ok(false),
            Some(held) => {
                let (kind, held) = (container.kind(), held.kind());
                Err(Error::AlreadyExists(format!("{kind} '{name}': the name is a {held}")))
            }
        }
    }

    /// Create a document collection.
    pub fn create_collection(&self, name: &str) -> Result<Arc<Collection>> {
        let made = Collection::create(name, Arc::clone(&self.pool))?;
        self.claim(name, Container::Collection(Arc::new(made)))?;
        self.collection(name)
    }

    /// Create a relational table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let made = Table::create(name, schema, Arc::clone(&self.pool))?;
        self.claim(name, Container::Table(Arc::new(made)))?;
        self.table(name)
    }

    /// Create a key/value bucket.
    pub fn create_bucket(&self, name: &str) -> Result<Arc<Bucket>> {
        self.claim(name, Container::Bucket(Arc::default()))?;
        self.bucket(name)
    }

    /// Create a property graph.
    pub fn create_graph(&self, name: &str) -> Result<Arc<Graph>> {
        let made = Graph::create(name, Arc::clone(&self.pool));
        self.claim(name, Container::Graph(Arc::new(made)))?;
        self.graph(name)
    }

    /// Create a vertex collection `name` in `graph`.
    pub fn create_vertex_collection(&self, graph: &str, name: &str) -> Result<()> {
        let g = self.graph(graph)?;
        if self.claim(name, Container::Vertices(Arc::clone(&g)))? {
            g.create_vertex_collection(name)?;
        }
        Ok(())
    }

    /// Create an edge collection `name` in `graph`.
    pub fn create_edge_collection(&self, graph: &str, name: &str) -> Result<()> {
        let g = self.graph(graph)?;
        if self.claim(name, Container::Edges(Arc::clone(&g)))? {
            g.create_edge_collection(name)?;
        }
        Ok(())
    }

    /// Create the full-text index `name` over `field` of `collection`,
    /// built from its current documents.
    pub fn create_fulltext_index(&self, name: &str, collection: &str, field: &str) -> Result<()> {
        let c = self.collection(collection)?;
        if self.claim(name, Container::Fulltext(Arc::clone(&c)))? {
            c.create_fulltext_index(name, field)?;
        }
        Ok(())
    }

    /// Register an XML/JSON tree under a name. A tree re-applied under its
    /// name (a reset replica's stale one) may differ, so it replaces the
    /// tree there, which is dropped past the guard.
    pub fn create_tree(&self, name: &str, tree: Tree) -> Result<()> {
        let tree = Container::Tree(Arc::new(tree));
        if !self.claim(name, tree.clone())? {
            let _stale = self.entries.write().insert(name.to_string(), tree);
        }
        Ok(())
    }

    /// Drop `name` with its parts, if it is a container of `kind`; anything
    /// else under the name stays. What goes is dropped past the guard.
    pub fn drop_container(&self, kind: &str, name: &str) {
        let _dropped = {
            let mut entries = self.entries.write();
            if !matches!(entries.get(name), Some(c) if c.kind() == kind) {
                return;
            }
            // The parts go first: the owner's entry keeps their handle alive.
            entries.retain(|_, c| c.owner() != Some(name));
            entries.remove(name)
        };
    }
}

/// All reachable model stores. Each collection keeps its own indexes,
/// full-text ones included; the spatial R-trees are the one index kind
/// held here.
pub struct World {
    /// Every named container, across the models.
    pub catalog: Catalog,
    /// The RDF triple store.
    pub rdf: RwLock<TripleStore>,
    /// Spatial indexes by name: R-trees over `(rect, payload)` entries
    /// (the `GEO_WITHIN` / `GEO_NEAREST` functions' targets).
    pub spatial: RwLock<HashMap<String, mmdb_index::rtree::RTree<Value>>>,
    /// Index-hit vs full-scan counters across all queries.
    pub access: AccessStats,
}

impl World {
    /// A fully in-memory world.
    pub fn in_memory() -> World {
        World {
            catalog: Catalog { pool: Arc::default(), entries: RwLock::new(HashMap::new()) },
            rdf: RwLock::new(TripleStore::default()),
            spatial: RwLock::new(HashMap::new()),
            access: AccessStats::default(),
        }
    }

    /// The record-access counter every heap of this world shares.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.catalog.pool
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

    /// Materialize a bare `FOR x IN name` source as an array of objects:
    /// what `project` keeps of each document, each relational row as an
    /// object of the columns `project` reads, and kv entries whole, as
    /// `{_key, value}`.
    pub fn scan_source(&self, name: &str, project: &Projection) -> Result<Vec<Value>> {
        let items = match self.catalog.get(name) {
            Some(Container::Collection(coll)) => coll.all_projected(project)?,
            Some(Container::Table(table)) => table.scan_projected(project)?,
            Some(Container::Bucket(bucket)) => bucket
                .scan_all()?
                .into_iter()
                .map(|(k, v)| Value::object([("_key", Value::str(k)), ("value", v)]))
                .collect(),
            held => return Err(missing("collection, table or bucket", name, held)),
        };
        self.access.note_full_scan();
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_relational::{ColumnDef, DataType};

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::new("id", DataType::Int)], "id").unwrap()
    }

    #[test]
    fn a_name_is_one_container() {
        let w = World::in_memory();
        w.catalog.create_collection("orders").unwrap();
        w.catalog.create_table("customers", schema()).unwrap();
        w.catalog.create_bucket("cart").unwrap();
        let kinds = |name: &str| w.catalog.get(name).map(|c| c.kind());
        assert_eq!(kinds("orders"), Some("collection"));
        assert_eq!(kinds("customers"), Some("table"));
        assert_eq!(kinds("cart"), Some("bucket"));
        assert_eq!(kinds("nope"), None);
        assert_eq!(w.scan_source("nope", &Projection::ALL).err().unwrap().kind(), "not_found");

        // Another kind under a used name is refused, naming both; the
        // same definition again is done and keeps what is there.
        let e = w.catalog.create_table("orders", schema()).err().unwrap();
        assert_eq!(e.kind(), "already_exists");
        assert!(e.to_string().contains("table 'orders': the name is a collection"), "{e}");
        assert!(w.catalog.create_bucket("customers").is_err());
        assert!(w.catalog.create_graph("cart").is_err());
        let again = w.catalog.create_collection("orders").unwrap();
        assert!(Arc::ptr_eq(&again, &w.catalog.collection("orders").unwrap()));
        assert!(w.catalog.table("orders").err().unwrap().to_string().contains("is a collection"));

        // A kv read of a name another kind holds says what holds it.
        let e = crate::run(&w, r#"RETURN KV_GET("orders", "1")"#).unwrap_err();
        assert_eq!(e.kind(), "not_found");
        assert!(e.to_string().contains("bucket 'orders': the name is a collection"), "{e}");
    }

    #[test]
    fn parts_share_the_namespace_and_go_with_their_owner() {
        let w = World::in_memory();
        let c = w.catalog.create_collection("products").unwrap();
        w.catalog.create_collection("orders").unwrap();
        w.catalog.create_fulltext_index("product_text", "products", "description").unwrap();
        w.catalog.create_graph("social").unwrap();
        w.catalog.create_vertex_collection("social", "persons").unwrap();
        w.catalog.create_edge_collection("social", "knows").unwrap();
        assert!(Arc::ptr_eq(&w.catalog.fulltext("product_text").unwrap(), &c));
        assert_eq!(w.catalog.edges("knows").unwrap().name(), "social");
        assert_eq!(w.catalog.fulltext("nope").err().unwrap().kind(), "not_found");

        // A second graph cannot take a name the first one's parts hold,
        // nor can a full-text index of another collection.
        w.catalog.create_graph("other").unwrap();
        assert!(w.catalog.create_edge_collection("other", "knows").is_err());
        assert!(w.catalog.create_vertex_collection("other", "persons").is_err());
        assert!(w.catalog.create_edge_collection("social", "persons").is_err());
        assert!(w.catalog.create_fulltext_index("product_text", "orders", "x").is_err());
        w.catalog.create_edge_collection("social", "knows").unwrap();

        // A drop of another kind leaves the name; the owner's takes its
        // parts along.
        w.catalog.drop_container("table", "social");
        assert!(w.catalog.graph("social").is_ok());
        w.catalog.drop_container("graph", "social");
        w.catalog.drop_container("collection", "products");
        let names: Vec<String> = w.catalog.names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["orders", "other"]);
    }

    #[test]
    fn scan_source_shapes() {
        let w = World::in_memory();
        let c = w.catalog.create_collection("docs").unwrap();
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
        w.catalog.create_bucket("b").unwrap().put("k1", Value::int(9)).unwrap();

        let scan = |name: &str| w.scan_source(name, &Projection::ALL).unwrap();
        assert_eq!(scan("docs")[0].get_field("x"), &Value::int(1));
        assert_eq!(scan("t")[0].get_field("n"), &Value::str("row"));
        let kv = scan("b");
        assert_eq!(kv[0].get_field("_key"), &Value::str("k1"));
        assert_eq!(kv[0].get_field("value"), &Value::int(9));

        w.catalog.drop_container("bucket", "b");
        assert!(w.catalog.get("b").is_none());
    }
}
