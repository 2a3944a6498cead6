//! The graph store: vertex/edge documents plus the edge (adjacency) index.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mmdb_document::Collection;
use mmdb_storage::BufferPool;
use mmdb_types::{Error, Projection, Result, Value};

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

    /// File `edge` under `from`'s outbound and `to`'s inbound entries.
    fn link(&mut self, edge: &str, from: &str, to: &str) {
        let (from, to) = (self.vertex_handle(from), self.vertex_handle(to));
        let edge: Arc<str> = Arc::from(edge);
        self.out.entry(Arc::clone(&from)).or_default().push((Arc::clone(&edge), Arc::clone(&to)));
        self.inn.entry(to).or_default().push((edge, from));
    }

    /// Drop `edge`'s entries under `from` and `to`, and a vertex's key
    /// once it has no entries left.
    fn unlink(&mut self, edge: &str, from: &str, to: &str) {
        for (map, vertex) in [(&mut self.out, from), (&mut self.inn, to)] {
            if let Some(v) = map.get_mut(vertex) {
                v.retain(|(e, _)| &**e != edge);
                if v.is_empty() {
                    map.remove(vertex);
                }
            }
        }
    }
}

/// An edge document's `(_from, _to)`.
fn endpoints(edge: &Value) -> Result<(&str, &str)> {
    Ok((edge.get_field(FROM_FIELD).as_str()?, edge.get_field(TO_FIELD).as_str()?))
}

/// What a collection of a graph holds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    Vertices,
    Edges,
}

/// A named property graph.
pub struct Graph {
    name: String,
    pool: Arc<BufferPool>,
    /// Every collection by name, vertex and edge ones alike. A leaf: a
    /// handle is cloned out of it before its heap is read.
    collections: RwLock<HashMap<String, (Part, Arc<Collection>)>>,
    edge_index: RwLock<EdgeIndex>,
}

impl Graph {
    /// New empty graph on a buffer pool.
    pub fn create(name: &str, pool: Arc<BufferPool>) -> Graph {
        Graph {
            name: name.to_string(),
            pool,
            collections: RwLock::new(HashMap::new()),
            edge_index: RwLock::new(EdgeIndex::default()),
        }
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a vertex collection.
    pub fn create_vertex_collection(&self, name: &str) -> Result<()> {
        self.create_collection(name, Part::Vertices)
    }

    /// Add an edge collection.
    pub fn create_edge_collection(&self, name: &str) -> Result<()> {
        self.create_collection(name, Part::Edges)
    }

    fn create_collection(&self, name: &str, part: Part) -> Result<()> {
        let made = Arc::new(Collection::create(name, Arc::clone(&self.pool))?);
        match self.collections.write().entry(name.to_string()) {
            Entry::Occupied(_) => Err(Error::AlreadyExists(format!("collection '{name}'"))),
            Entry::Vacant(slot) => {
                slot.insert((part, made));
                Ok(())
            }
        }
    }

    /// The collection `name`, if it holds `part`.
    fn collection(&self, name: &str, part: Part) -> Result<Arc<Collection>> {
        match self.collections.read().get(name) {
            Some((held, coll)) if *held == part => Ok(Arc::clone(coll)),
            _ => {
                let kind = if part == Part::Vertices { "vertex" } else { "edge" };
                Err(Error::NotFound(format!("{kind} collection '{name}'")))
            }
        }
    }

    /// Every collection that holds `part`, cloned out of the map.
    fn collections(&self, part: Part) -> Vec<Arc<Collection>> {
        let colls = self.collections.read();
        colls.values().filter(|(held, _)| *held == part).map(|(_, coll)| Arc::clone(coll)).collect()
    }

    /// Insert a vertex document; returns its handle.
    pub fn add_vertex(&self, collection: &str, doc: Value) -> Result<VertexHandle> {
        let coll = self.collection(collection, Part::Vertices)?;
        let key = coll.insert(doc)?;
        Ok(handle(collection, &key))
    }

    /// Fetch a vertex by handle.
    pub fn vertex(&self, h: &str) -> Result<Option<Value>> {
        self.vertex_projected(h, &Projection::ALL)
    }

    /// Fetch what `p` keeps of a vertex, by handle.
    pub fn vertex_projected(&self, h: &str, p: &Projection) -> Result<Option<Value>> {
        let (coll, key) = split_handle(h)?;
        self.collection(coll, Part::Vertices)?.get_projected(key, p)
    }

    /// Whether a vertex with this handle exists, without fetching it.
    /// Errors like [`vertex`](Self::vertex) on an unknown collection.
    pub fn has_vertex(&self, h: &str) -> Result<bool> {
        let (coll, key) = split_handle(h)?;
        Ok(self.collection(coll, Part::Vertices)?.contains_key(key))
    }

    /// Create or replace the vertex `collection/key`; its edges are
    /// untouched.
    pub fn put_vertex(&self, collection: &str, key: &str, doc: Value) -> Result<()> {
        self.collection(collection, Part::Vertices)?.put(key, doc)
    }

    /// Insert an edge `from → to` with properties under a key no edge
    /// holds; returns its handle. Both endpoints must exist.
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
        {
            let obj = properties.as_object_mut()?;
            obj.insert(FROM_FIELD, Value::str(from));
            obj.insert(TO_FIELD, Value::str(to));
        }
        let key = self.collection(collection, Part::Edges)?.insert_key(&properties)?;
        self.put_edge(collection, &key, properties)?;
        Ok(handle(collection, &key))
    }

    /// Create or replace the edge `collection/key`, whose `_from` and `_to`
    /// name its endpoints: the one body that writes an edge and keeps the
    /// edge index in step. A re-put that moves an endpoint moves the
    /// edge's entries. The endpoints are not looked up: the hook's view
    /// takes the edge the log holds, and [`add_edge`](Self::add_edge)
    /// refuses a missing one.
    pub fn put_edge(&self, collection: &str, key: &str, doc: Value) -> Result<()> {
        let (from, to) = endpoints(&doc)?;
        let (from, to) = (from.to_string(), to.to_string());
        let coll = self.collection(collection, Part::Edges)?;
        let old = coll.get(key)?;
        coll.put(key, doc)?;
        let edge = handle(collection, key);
        let mut idx = self.edge_index.write();
        if let Some(old) = &old {
            let (old_from, old_to) = endpoints(old)?;
            if (old_from, old_to) == (from.as_str(), to.as_str()) {
                return Ok(());
            }
            idx.unlink(&edge, old_from, old_to);
        }
        idx.link(&edge, &from, &to);
        Ok(())
    }

    /// Fetch an edge document by handle.
    pub fn edge(&self, h: &str) -> Result<Option<Value>> {
        let (coll, key) = split_handle(h)?;
        self.collection(coll, Part::Edges)?.get(key)
    }

    /// Remove an edge; returns whether it existed.
    pub fn remove_edge(&self, h: &str) -> Result<bool> {
        let (coll, key) = split_handle(h)?;
        let coll = self.collection(coll, Part::Edges)?;
        let Some(doc) = coll.get(key)? else { return Ok(false) };
        let (from, to) = endpoints(&doc)?;
        coll.remove(key)?;
        self.edge_index.write().unlink(h, from, to);
        Ok(true)
    }

    /// Remove a vertex and all its incident edges (cascading, as graph
    /// modules do).
    pub fn remove_vertex(&self, h: &str) -> Result<bool> {
        let (coll, key) = split_handle(h)?;
        let existed = self.collection(coll, Part::Vertices)?.remove(key)?;
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
        let far = self.neighbor_handles(vertex, dir, edge_collection);
        Ok(far.iter().map(|h| String::from(&**h)).collect())
    }

    /// [`neighbors`](Self::neighbors) as the edge index's own shared
    /// handles: a reference count each, no copy of a name.
    pub(crate) fn neighbor_handles(
        &self,
        vertex: &str,
        dir: Direction,
        edge_collection: Option<&str>,
    ) -> Vec<Arc<str>> {
        let idx = self.edge_index.read();
        let mut far: Vec<&Arc<str>> = idx
            .incident(vertex, dir)
            .filter(|(edge, _)| in_collection(edge, edge_collection))
            .map(|(_, other)| other)
            .collect();
        far.sort_unstable();
        far.dedup();
        far.into_iter().map(Arc::clone).collect()
    }

    /// Count vertices across all vertex collections.
    pub fn vertex_count(&self) -> usize {
        self.collections(Part::Vertices).iter().map(|c| c.len()).sum()
    }

    /// Count edges across all edge collections.
    pub fn edge_count(&self) -> usize {
        self.collections(Part::Edges).iter().map(|c| c.len()).sum()
    }

    /// All vertex handles (sorted) — small graphs/tests only.
    pub fn all_vertices(&self) -> Result<Vec<VertexHandle>> {
        let mut out = Vec::new();
        for coll in self.collections(Part::Vertices) {
            for doc in coll.all()? {
                out.push(handle(coll.name(), doc.get_field("_key").as_str()?));
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mmdb_types::from_json;

    pub(crate) fn paper_graph() -> Graph {
        // Slide 27: Mary knows John, Anne knows Mary.
        let g = Graph::create("social", Arc::default());
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
    fn put_edge_creates_replaces_and_moves_its_entries() {
        let g = paper_graph();
        let edge = |json: &str| from_json(json).unwrap();
        g.put_edge("knows", "e9", edge(r#"{"_from":"customers/2","_to":"customers/3"}"#)).unwrap();
        assert_eq!(g.neighbors("customers/3", Direction::Inbound, None).unwrap(), vec!["customers/2"]);
        // A re-put that moves `_to` moves the edge's entries.
        g.put_edge("knows", "e9", edge(r#"{"_from":"customers/2","_to":"customers/1","w":1}"#))
            .unwrap();
        assert!(g.neighbors("customers/3", Direction::Inbound, None).unwrap().is_empty());
        assert_eq!(
            g.neighbors("customers/1", Direction::Inbound, None).unwrap(),
            vec!["customers/2", "customers/3"]
        );
        assert_eq!(g.edge("knows/e9").unwrap().unwrap().get_field("w"), &Value::int(1));
        assert_eq!(g.edge_count(), 3);
        // An edge names both endpoints; `add_edge` takes no key twice.
        assert!(g.put_edge("knows", "e10", edge(r#"{"_from":"customers/2"}"#)).is_err());
        let again = g.add_edge("knows", "customers/1", "customers/2", edge(r#"{"_key":"e9"}"#));
        assert!(matches!(again, Err(Error::AlreadyExists(_))));
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
    fn a_vertex_whose_last_edge_goes_leaves_no_key_in_the_edge_index() {
        let g = paper_graph();
        assert!(g.remove_vertex("customers/1").unwrap());
        let idx = g.edge_index.read();
        assert!(!idx.out.contains_key("customers/1") && !idx.inn.contains_key("customers/1"));
        // Both edges named customers/1, so no vertex keeps a key.
        assert!(idx.out.is_empty() && idx.inn.is_empty());
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
