//! The graph store: vertex/edge documents plus the edge (adjacency) index.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mmdb_document::Collection;
use mmdb_storage::BufferPool;
use mmdb_types::{lock_rank, Error, Result, Value};

/// Reserved edge attribute naming the source vertex (`coll/key`).
pub const FROM_FIELD: &str = "_from";
/// Reserved edge attribute naming the target vertex (`coll/key`).
pub const TO_FIELD: &str = "_to";

/// Traversal direction, as in AQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges from `_from` to `_to`.
    Outbound,
    /// Follow edges from `_to` to `_from`.
    Inbound,
    /// Both directions.
    Any,
}

/// A vertex handle `collection/key`.
pub type VertexHandle = String;
/// An edge handle `collection/key`.
pub type EdgeHandle = String;

/// Compose a handle.
pub fn handle(collection: &str, key: &str) -> String {
    format!("{collection}/{key}")
}

/// Split a handle into `(collection, key)`.
pub fn split_handle(h: &str) -> Result<(&str, &str)> {
    h.split_once('/')
        .ok_or_else(|| Error::Schema(format!("'{h}' is not a 'collection/key' handle")))
}

/// Whether the edge with this handle is in `edge_collection` (`None` = any).
fn in_collection(edge: &str, edge_collection: Option<&str>) -> bool {
    edge_collection.is_none_or(|ec| split_handle(edge).is_ok_and(|(coll, _)| coll == ec))
}

/// ArangoDB's edge index: two hash multimaps, `_from → edges` and
/// `_to → edges`. An entry is `(edge handle, far endpoint)`, so adjacency
/// is answered from the index alone; only a caller that reads edge
/// properties fetches the edge document.
///
/// Handles are shared, not copied: an edge's handle is one allocation
/// for both of its entries, and a vertex's handle is one allocation for
/// its map keys and every entry naming it as the far endpoint.
#[derive(Default)]
struct EdgeIndex {
    out: HashMap<Arc<str>, Vec<EdgeEntry>>,
    inn: HashMap<Arc<str>, Vec<EdgeEntry>>,
}

/// `(edge handle, far endpoint)`.
type EdgeEntry = (Arc<str>, Arc<str>);

impl EdgeIndex {
    /// The shared handle of `vertex`: the one a map is already keyed by,
    /// if either is.
    fn vertex_handle(&self, vertex: &str) -> Arc<str> {
        let key = self.out.get_key_value(vertex).or_else(|| self.inn.get_key_value(vertex));
        key.map_or_else(|| Arc::from(vertex), |(k, _)| Arc::clone(k))
    }

    /// The entries of `vertex` in `dir`, outbound ones first.
    fn incident(&self, vertex: &str, dir: Direction) -> impl Iterator<Item = &EdgeEntry> {
        let out = if dir == Direction::Inbound { None } else { self.out.get(vertex) };
        let inn = if dir == Direction::Outbound { None } else { self.inn.get(vertex) };
        out.into_iter().chain(inn).flatten()
    }
}

/// A named property graph.
pub struct Graph {
    name: String,
    pool: Arc<BufferPool>,
    vertices: RwLock<HashMap<String, Arc<Collection>>>,
    edges: RwLock<HashMap<String, Arc<Collection>>>,
    edge_index: RwLock<EdgeIndex>,
}

impl Graph {
    /// New empty graph on a buffer pool.
    pub fn create(name: &str, pool: Arc<BufferPool>) -> Graph {
        Graph {
            name: name.to_string(),
            pool,
            vertices: RwLock::with_rank(lock_rank::GRAPH_VERTICES, HashMap::new()),
            edges: RwLock::with_rank(lock_rank::GRAPH_EDGES, HashMap::new()),
            edge_index: RwLock::new(EdgeIndex::default()),
        }
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a vertex collection.
    pub fn create_vertex_collection(&self, name: &str) -> Result<()> {
        let mut vs = self.vertices.write();
        if vs.contains_key(name) || self.edges.read().contains_key(name) {
            return Err(Error::AlreadyExists(format!("collection '{name}'")));
        }
        vs.insert(name.to_string(), Arc::new(Collection::create(name, Arc::clone(&self.pool))?));
        Ok(())
    }

    /// Add an edge collection.
    pub fn create_edge_collection(&self, name: &str) -> Result<()> {
        // Check `vertices` with a temporary guard before taking `edges`:
        // holding `edges` while reading `vertices` would nest opposite
        // to `create_vertex_collection` (declared order: vertices before
        // edges) and risk an AB/BA deadlock.
        if self.vertices.read().contains_key(name) {
            return Err(Error::AlreadyExists(format!("collection '{name}'")));
        }
        let mut es = self.edges.write();
        if es.contains_key(name) {
            return Err(Error::AlreadyExists(format!("collection '{name}'")));
        }
        es.insert(name.to_string(), Arc::new(Collection::create(name, Arc::clone(&self.pool))?));
        Ok(())
    }

    fn vertex_collection(&self, name: &str) -> Result<Arc<Collection>> {
        self.vertices
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("vertex collection '{name}'")))
    }

    fn edge_collection(&self, name: &str) -> Result<Arc<Collection>> {
        self.edges
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("edge collection '{name}'")))
    }

    /// Insert a vertex document; returns its handle.
    pub fn add_vertex(&self, collection: &str, doc: Value) -> Result<VertexHandle> {
        let coll = self.vertex_collection(collection)?;
        let key = coll.insert(doc)?;
        Ok(handle(collection, &key))
    }

    /// Fetch a vertex by handle.
    pub fn vertex(&self, h: &str) -> Result<Option<Value>> {
        let (coll, key) = split_handle(h)?;
        self.vertex_collection(coll)?.get(key)
    }

    /// Whether a vertex with this handle exists, without fetching it.
    /// Errors like [`vertex`](Self::vertex) on an unknown collection.
    pub fn has_vertex(&self, h: &str) -> Result<bool> {
        let (coll, key) = split_handle(h)?;
        Ok(self.vertex_collection(coll)?.contains_key(key))
    }

    /// Replace a vertex document wholesale (edges are untouched).
    pub fn update_vertex(&self, h: &str, doc: Value) -> Result<()> {
        let (coll, key) = split_handle(h)?;
        self.vertex_collection(coll)?.update(key, doc)
    }

    /// Insert an edge `from → to` with properties; returns its handle.
    /// Both endpoints must exist.
    pub fn add_edge(
        &self,
        collection: &str,
        from: &str,
        to: &str,
        mut properties: Value,
    ) -> Result<EdgeHandle> {
        for endpoint in [from, to] {
            if !self.has_vertex(endpoint)? {
                return Err(Error::NotFound(format!("vertex '{endpoint}'")));
            }
        }
        let coll = self.edge_collection(collection)?;
        {
            let obj = properties.as_object_mut()?;
            obj.insert(FROM_FIELD, Value::str(from));
            obj.insert(TO_FIELD, Value::str(to));
        }
        let key = coll.insert(properties)?;
        let eh = handle(collection, &key);
        let mut idx = self.edge_index.write();
        let (from, to) = (idx.vertex_handle(from), idx.vertex_handle(to));
        let edge: Arc<str> = Arc::from(eh.as_str());
        idx.out.entry(Arc::clone(&from)).or_default().push((Arc::clone(&edge), Arc::clone(&to)));
        idx.inn.entry(to).or_default().push((edge, from));
        Ok(eh)
    }

    /// Fetch an edge document by handle.
    pub fn edge(&self, h: &str) -> Result<Option<Value>> {
        let (coll, key) = split_handle(h)?;
        self.edge_collection(coll)?.get(key)
    }

    /// Remove an edge.
    pub fn remove_edge(&self, h: &str) -> Result<bool> {
        let Some(doc) = self.edge(h)? else { return Ok(false) };
        let (coll, key) = split_handle(h)?;
        self.edge_collection(coll)?.remove(key)?;
        let mut idx = self.edge_index.write();
        if let Ok(from) = doc.get_field(FROM_FIELD).as_str() {
            if let Some(v) = idx.out.get_mut(from) {
                v.retain(|(e, _)| &**e != h);
            }
        }
        if let Ok(to) = doc.get_field(TO_FIELD).as_str() {
            if let Some(v) = idx.inn.get_mut(to) {
                v.retain(|(e, _)| &**e != h);
            }
        }
        Ok(true)
    }

    /// Remove a vertex and all its incident edges (cascading, as graph
    /// modules do).
    pub fn remove_vertex(&self, h: &str) -> Result<bool> {
        let (coll, key) = split_handle(h)?;
        let existed = self.vertex_collection(coll)?.remove(key)?;
        if existed {
            let incident: Vec<EdgeHandle> = {
                let idx = self.edge_index.read();
                idx.incident(h, Direction::Any).map(|(e, _)| e.to_string()).collect()
            };
            for e in incident {
                self.remove_edge(&e)?;
            }
        }
        Ok(existed)
    }

    /// Edges incident to `vertex` in `dir`, restricted to one edge
    /// collection (`None` = all edge collections). Returns edge documents.
    pub fn edges_of(
        &self,
        vertex: &str,
        dir: Direction,
        edge_collection: Option<&str>,
    ) -> Result<Vec<Value>> {
        let handles: Vec<Arc<str>> = {
            let idx = self.edge_index.read();
            idx.incident(vertex, dir)
                .filter(|(edge, _)| in_collection(edge, edge_collection))
                .map(|(edge, _)| Arc::clone(edge))
                .collect()
        };
        let mut out = Vec::with_capacity(handles.len());
        for h in handles {
            if let Some(doc) = self.edge(&h)? {
                out.push(doc);
            }
        }
        Ok(out)
    }

    /// Neighbouring vertex handles of `vertex` in `dir` via one edge
    /// collection (`None` = all), sorted and deduplicated. Answered from
    /// the edge index alone.
    pub fn neighbors(
        &self,
        vertex: &str,
        dir: Direction,
        edge_collection: Option<&str>,
    ) -> Result<Vec<VertexHandle>> {
        let idx = self.edge_index.read();
        let mut far: Vec<&str> = idx
            .incident(vertex, dir)
            .filter(|(edge, _)| in_collection(edge, edge_collection))
            .map(|(_, other)| &**other)
            .collect();
        far.sort_unstable();
        far.dedup();
        Ok(far.into_iter().map(str::to_string).collect())
    }

    /// Whether an edge collection with this name exists.
    pub fn edge_collection_exists(&self, name: &str) -> bool {
        self.edges.read().contains_key(name)
    }

    /// Count vertices across all vertex collections.
    pub fn vertex_count(&self) -> usize {
        self.vertices.read().values().map(|c| c.len()).sum()
    }

    /// Count edges across all edge collections.
    pub fn edge_count(&self) -> usize {
        self.edges.read().values().map(|c| c.len()).sum()
    }

    /// All vertex handles (sorted) — small graphs/tests only.
    pub fn all_vertices(&self) -> Result<Vec<VertexHandle>> {
        let mut out = Vec::new();
        for (name, coll) in self.vertices.read().iter() {
            for doc in coll.all()? {
                out.push(handle(name, doc.get_field("_key").as_str()?));
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mmdb_storage::DiskManager;
    use mmdb_types::from_json;

    pub(crate) fn paper_graph() -> Graph {
        // Slide 27: Mary knows John, Anne knows Mary.
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::in_memory()), 64));
        let g = Graph::create("social", pool);
        g.create_vertex_collection("customers").unwrap();
        g.create_edge_collection("knows").unwrap();
        for (key, name) in [("1", "Mary"), ("2", "John"), ("3", "Anne")] {
            g.add_vertex(
                "customers",
                from_json(&format!(r#"{{"_key":"{key}","name":"{name}"}}"#)).unwrap(),
            )
            .unwrap();
        }
        g.add_edge("knows", "customers/1", "customers/2", from_json("{}").unwrap()).unwrap();
        g.add_edge("knows", "customers/3", "customers/1", from_json("{}").unwrap()).unwrap();
        g
    }

    #[test]
    fn vertices_and_edges_are_documents() {
        let g = paper_graph();
        let mary = g.vertex("customers/1").unwrap().unwrap();
        assert_eq!(mary.get_field("name"), &Value::str("Mary"));
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let edges = g.edges_of("customers/1", Direction::Outbound, Some("knows")).unwrap();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].get_field("_to"), &Value::str("customers/2"));
    }

    #[test]
    fn adjacency_in_all_directions() {
        let g = paper_graph();
        assert_eq!(g.neighbors("customers/1", Direction::Outbound, Some("knows")).unwrap(), vec!["customers/2"]);
        assert_eq!(g.neighbors("customers/1", Direction::Inbound, Some("knows")).unwrap(), vec!["customers/3"]);
        assert_eq!(
            g.neighbors("customers/1", Direction::Any, Some("knows")).unwrap(),
            vec!["customers/2", "customers/3"]
        );
        assert!(g.neighbors("customers/2", Direction::Outbound, None).unwrap().is_empty());
    }

    #[test]
    fn dangling_edges_rejected() {
        let g = paper_graph();
        let e = g.add_edge("knows", "customers/1", "customers/99", from_json("{}").unwrap());
        assert!(matches!(e, Err(Error::NotFound(_))));
        let e = g.add_edge("knows", "nope/1", "customers/1", from_json("{}").unwrap());
        assert!(e.is_err());
    }

    #[test]
    fn edge_properties() {
        let g = paper_graph();
        let eh = g
            .add_edge(
                "knows",
                "customers/2",
                "customers/3",
                from_json(r#"{"since":2015,"weight":0.9}"#).unwrap(),
            )
            .unwrap();
        let edge = g.edge(&eh).unwrap().unwrap();
        assert_eq!(edge.get_field("since"), &Value::int(2015));
        assert_eq!(edge.get_field("_from"), &Value::str("customers/2"));
    }

    #[test]
    fn remove_edge_updates_index() {
        let g = paper_graph();
        let edges = g.edges_of("customers/1", Direction::Outbound, None).unwrap();
        let eh = handle("knows", edges[0].get_field("_key").as_str().unwrap());
        assert!(g.remove_edge(&eh).unwrap());
        assert!(!g.remove_edge(&eh).unwrap());
        assert!(g.neighbors("customers/1", Direction::Outbound, None).unwrap().is_empty());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn remove_vertex_cascades() {
        let g = paper_graph();
        assert!(g.remove_vertex("customers/1").unwrap());
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0, "both incident edges removed");
        assert!(g.neighbors("customers/3", Direction::Outbound, None).unwrap().is_empty());
    }

    #[test]
    fn collection_name_collisions() {
        let g = paper_graph();
        assert!(g.create_vertex_collection("knows").is_err());
        assert!(g.create_edge_collection("customers").is_err());
        assert!(split_handle("nohandle").is_err());
    }

    #[test]
    fn all_vertices_sorted() {
        let g = paper_graph();
        assert_eq!(
            g.all_vertices().unwrap(),
            vec!["customers/1", "customers/2", "customers/3"]
        );
    }
}
