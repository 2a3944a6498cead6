//! Cross-model transactional sessions.
//!
//! A [`Session`] wraps one MVCC transaction and gives it model-typed
//! operations. All writes are staged in the transaction as
//! [`CommittedWrite`]s (snapshot reads see them); at commit that same
//! slice is logged, installed in the version store, and handed to the
//! commit hook [`apply_committed`], which updates the model stores and
//! their indexes — and replicated transactions, snapshot loads and WAL
//! replay arrive at the hook in the same shape (DESIGN.md "A
//! transaction's road"). This is UniBench Workload C's "cross-model
//! transaction": one atomic unit touching the relation, the cart, the
//! order document and the graph.
//!
//! Data domains: `doc/<coll>`, `kv/<bucket>`, `rel/<table>`,
//! `graph/<graph>/v/<coll>`, `graph/<graph>/e/<coll>` and `rdf`. Every
//! Session write needs its container to exist (`rdf` has none): a write
//! to a missing one is `NotFound` before anything is staged.
//!
//! Definition domains, written by the `Database` DDL methods:
//! `ddl/table` (key = name, value = the schema, see
//! [`mmdb_relational::Schema::to_value`]), `ddl/collection` and
//! `ddl/bucket` (key = name), `ddl/graph` (keys `<graph>`,
//! `<graph>/v/<coll>` and `<graph>/e/<coll>`), `ddl/tree` (key = name,
//! value `{xml: text}` or `{json: value}`) and `ddl/index` (key
//! `<kind>/<source>/<path>`, `gin/<source>` or `fulltext/<name>`, value
//! `{kind: persistent|column|gin|fulltext, source, path|mode|field}`).

use std::sync::Arc;

use mmdb_graph::store::{handle, split_handle};
use mmdb_query::{Container, World};
use mmdb_relational::Schema;
use mmdb_txn::{CommittedWrite, Transaction};
use mmdb_types::codec::{encode_composite_key, key_of};
use mmdb_types::{CancelToken, Error, Result, Value};

/// An open cross-model transaction.
///
/// A `Session` is an owned value: whichever component holds it (an
/// embedded caller, a server connection) owns the transaction. Dropping
/// an uncommitted session aborts it completely — staged writes are
/// discarded; the WAL never saw them — so
/// disconnecting clients can simply be dropped and never leak a
/// half-open transaction.
pub struct Session {
    world: Arc<World>,
    txn: Transaction,
    generated: u64,
}

impl Session {
    pub(crate) fn new(world: Arc<World>, txn: Transaction) -> Session {
        Session { world, txn, generated: 0 }
    }

    /// The underlying transaction id.
    pub fn id(&self) -> u64 {
        self.txn.id()
    }

    /// Run an MMQL query with no deadline and no cancellation
    /// ([`CancelToken::none`]). Queries read the latest committed model
    /// stores (they do not see this session's staged, uncommitted writes).
    pub fn query(&self, text: &str) -> Result<Vec<Value>> {
        mmdb_query::run_with(&self.world, text, &CancelToken::none())
    }

    /// Commit the transaction; returns the commit timestamp.
    pub fn commit(self) -> Result<u64> {
        self.txn.commit()
    }

    /// Abort the transaction.
    pub fn abort(self) {
        self.txn.abort()
    }

    /// Number of writes staged so far (0 means read-only).
    pub fn write_count(&self) -> usize {
        self.txn.write_count()
    }

    // ---- containers --------------------------------------------------------

    /// `doc/<collection>`, once the collection is found.
    fn doc_domain(&self, collection: &str) -> Result<String> {
        self.world.catalog.collection(collection)?;
        Ok(format!("doc/{collection}"))
    }

    /// `kv/<bucket>`, once the bucket is found and `key` is one its tree
    /// can hold (not empty).
    fn kv_domain(&self, bucket: &str, key: &str) -> Result<String> {
        self.world.catalog.bucket(bucket)?;
        if key.is_empty() {
            return Err(Error::Schema(format!("an empty key in bucket '{bucket}'")));
        }
        Ok(format!("kv/{bucket}"))
    }

    /// `graph/<graph>/<kind>/<collection>`, once the catalog names
    /// `collection` a vertex (`kind` `v`) or edge (`e`) collection of `graph`.
    fn graph_domain(&self, graph: &str, kind: &str, collection: &str) -> Result<String> {
        match (kind, self.world.catalog.get(collection)) {
            ("v", Some(Container::Vertices(g))) | ("e", Some(Container::Edges(g))) if g.name() == graph => {
                Ok(format!("graph/{graph}/{kind}/{collection}"))
            }
            _ => {
                let what = if kind == "v" { "vertex" } else { "edge" };
                Err(Error::NotFound(format!("{what} collection '{collection}' in graph '{graph}'")))
            }
        }
    }

    // ---- documents ---------------------------------------------------------

    /// The `_key` of a document, vertex or edge about to be staged: its
    /// own, which must be a string, or a generated one written into it.
    fn key_for(&mut self, doc: &mut Value) -> Result<String> {
        let obj = doc.as_object_mut()?;
        match obj.get("_key") {
            Some(Value::String(k)) => Ok(k.to_string()),
            Some(other) => {
                Err(Error::Schema(format!("_key must be a string, got {}", other.type_name())))
            }
            None => {
                self.generated += 1;
                let k = format!("{}-{}", self.txn.id(), self.generated);
                obj.insert("_key", Value::str(&k));
                Ok(k)
            }
        }
    }

    /// Stage a document insert; returns the (possibly generated) `_key`.
    pub fn insert_document(&mut self, collection: &str, mut doc: Value) -> Result<String> {
        let domain = self.doc_domain(collection)?;
        let key = self.key_for(&mut doc)?;
        if self.txn.contains(&domain, key.as_bytes())? {
            return Err(Error::AlreadyExists(format!("document '{key}' in '{collection}'")));
        }
        self.txn.put(&domain, key.as_bytes(), doc)?;
        Ok(key)
    }

    /// Stage a wholesale document update.
    pub fn update_document(&mut self, collection: &str, key: &str, mut doc: Value) -> Result<()> {
        let domain = self.doc_domain(collection)?;
        if !self.txn.contains(&domain, key.as_bytes())? {
            return Err(Error::NotFound(format!("document '{key}' in '{collection}'")));
        }
        doc.as_object_mut()?.insert("_key", Value::str(key));
        self.txn.put(&domain, key.as_bytes(), doc)
    }

    /// Stage a document removal.
    pub fn remove_document(&mut self, collection: &str, key: &str) -> Result<()> {
        let domain = self.doc_domain(collection)?;
        self.txn.delete(&domain, key.as_bytes())
    }

    /// Snapshot read of a document (sees own staged writes).
    pub fn get_document(&self, collection: &str, key: &str) -> Result<Option<Value>> {
        self.txn.get(&format!("doc/{collection}"), key.as_bytes())
    }

    /// [`Session::get_document`] in the log's encoding: a committed
    /// version's shared bytes, not decoded (see
    /// [`Transaction::get_encoded`]).
    pub fn get_document_encoded(&self, collection: &str, key: &str) -> Result<Option<Arc<[u8]>>> {
        self.txn.get_encoded(&format!("doc/{collection}"), key.as_bytes())
    }

    // ---- key/value ----------------------------------------------------------

    /// Stage a key/value put.
    pub fn kv_put(&mut self, bucket: &str, key: &str, value: Value) -> Result<()> {
        let domain = self.kv_domain(bucket, key)?;
        self.txn.put(&domain, key.as_bytes(), value)
    }

    /// Stage a key/value delete.
    pub fn kv_delete(&mut self, bucket: &str, key: &str) -> Result<()> {
        let domain = self.kv_domain(bucket, key)?;
        self.txn.delete(&domain, key.as_bytes())
    }

    /// Snapshot read of a key.
    pub fn kv_get(&self, bucket: &str, key: &str) -> Result<Option<Value>> {
        self.txn.get(&format!("kv/{bucket}"), key.as_bytes())
    }

    /// [`Session::kv_get`] in the log's encoding.
    pub fn kv_get_encoded(&self, bucket: &str, key: &str) -> Result<Option<Arc<[u8]>>> {
        self.txn.get_encoded(&format!("kv/{bucket}"), key.as_bytes())
    }

    // ---- relational ----------------------------------------------------------

    /// A row object checked against `table`'s schema, so errors surface
    /// in the transaction: its primary index key, its primary key and the
    /// row to stage.
    fn checked_row(&self, table: &str, row_object: &Value) -> Result<(Vec<u8>, Value, Value)> {
        let t = self.world.catalog.table(table)?;
        let schema = t.schema();
        let mut row = schema.row_from_object(row_object)?;
        schema.validate(&mut row)?;
        let pk = row_object.get_field(schema.primary_key_name()).clone();
        if pk.is_null() {
            let pk_name = schema.primary_key_name();
            return Err(Error::Schema(format!("row is missing primary key '{pk_name}'")));
        }
        Ok((key_of(&pk), pk, schema.object_from_row(row)))
    }

    /// Stage a relational insert (object keyed by column names).
    pub fn insert_row(&mut self, table: &str, row_object: Value) -> Result<()> {
        let (key, pk, row) = self.checked_row(table, &row_object)?;
        let domain = format!("rel/{table}");
        if self.txn.contains(&domain, &key)? {
            return Err(Error::AlreadyExists(format!("primary key {pk} in '{table}'")));
        }
        self.txn.put(&domain, &key, row)
    }

    /// Stage a relational update (full row object; pk identifies the row).
    pub fn update_row(&mut self, table: &str, row_object: Value) -> Result<()> {
        let (key, _, row) = self.checked_row(table, &row_object)?;
        self.txn.put(&format!("rel/{table}"), &key, row)
    }

    /// Stage a relational delete by primary key.
    pub fn delete_row(&mut self, table: &str, pk: &Value) -> Result<()> {
        self.world.catalog.table(table)?;
        self.txn.delete(&format!("rel/{table}"), &key_of(pk))
    }

    /// Snapshot read of a row by primary key (as an object).
    pub fn get_row(&self, table: &str, pk: &Value) -> Result<Option<Value>> {
        self.txn.get(&format!("rel/{table}"), &key_of(pk))
    }

    /// [`Session::get_row`] in the log's encoding.
    pub fn get_row_encoded(&self, table: &str, pk: &Value) -> Result<Option<Arc<[u8]>>> {
        self.txn.get_encoded(&format!("rel/{table}"), &key_of(pk))
    }

    // ---- graph -----------------------------------------------------------------

    /// Stage a vertex insert; returns the vertex handle.
    pub fn add_vertex(&mut self, graph: &str, collection: &str, mut doc: Value) -> Result<String> {
        let domain = self.graph_domain(graph, "v", collection)?;
        let key = self.key_for(&mut doc)?;
        self.txn.put(&domain, key.as_bytes(), doc)?;
        Ok(format!("{collection}/{key}"))
    }

    /// Stage an edge insert; returns the edge key. The edge collection
    /// must exist, and both endpoints must be vertices this transaction
    /// staged or that are committed (the newest version, not the
    /// snapshot: the graph the commit hook will add the edge to);
    /// otherwise it is `NotFound` and nothing is staged. A `_key` that
    /// already names an edge is `AlreadyExists`, as for documents.
    pub fn add_edge(
        &mut self,
        graph: &str,
        collection: &str,
        from: &str,
        to: &str,
        mut properties: Value,
    ) -> Result<String> {
        let domain = self.graph_domain(graph, "e", collection)?;
        for endpoint in [from, to] {
            let (coll, key) = split_handle(endpoint)?;
            if !self.txn.exists_latest(&format!("graph/{graph}/v/{coll}"), key.as_bytes())? {
                return Err(Error::NotFound(format!("vertex '{endpoint}'")));
            }
        }
        let obj = properties.as_object_mut()?;
        obj.insert("_from", Value::str(from));
        obj.insert("_to", Value::str(to));
        let key = self.key_for(&mut properties)?;
        if self.txn.contains(&domain, key.as_bytes())? {
            return Err(Error::AlreadyExists(format!("edge '{key}' in '{collection}'")));
        }
        self.txn.put(&domain, key.as_bytes(), properties)?;
        Ok(key)
    }

    // ---- RDF --------------------------------------------------------------------

    /// Stage an RDF triple insert.
    pub fn rdf_insert(&mut self, subject: &str, predicate: &str, object: Value) -> Result<()> {
        let key = encode_composite_key(&[
            Value::str(subject),
            Value::str(predicate),
            object.clone(),
        ]);
        let triple = Value::object([
            ("s", Value::str(subject)),
            ("p", Value::str(predicate)),
            ("o", object),
        ]);
        self.txn.put("rdf", &key, triple)
    }

    /// Stage an RDF triple removal.
    pub fn rdf_remove(&mut self, subject: &str, predicate: &str, object: &Value) -> Result<()> {
        let key = encode_composite_key(&[
            Value::str(subject),
            Value::str(predicate),
            object.clone(),
        ]);
        self.txn.delete("rdf", &key)
    }
}

/// Apply a committed write set to the model stores: the MVCC commit hook,
/// for a live commit, a replicated transaction, a snapshot load and WAL
/// replay alike. The log has two verbs and so does every store: each
/// write is one call that puts (creates or replaces) or deletes its
/// store's record — `Collection::put`/`remove`, `Table::put`/
/// `delete_by_key`, `Graph::put_vertex`/`remove_vertex`,
/// `Graph::put_edge`/`remove_edge`, `Bucket::put`/`delete` — except
/// that the `rdf` arm skips a triple it already holds. A store's put and
/// delete keep its own indexes in step (a collection's full-text indexes
/// among them), so no arm touches a second store.
///
/// Every write of the set is applied and the first failure is returned,
/// so a write the views cannot take keeps none of the rest of its set
/// out of them; the hook `Database` installs latches the store read-only
/// with that failure and keeps it as `Database::hook_failure`.
///
/// The `ddl` arm (`apply_definition`) is the only code that creates a
/// container or an index, and the catalog is the one registry it writes:
/// a container's entry holds its store (a bucket's tree, a graph with its
/// one map of collections). The data arms find their container with one
/// catalog probe or fail: a Session never stages a write to a missing
/// one, and replay and snapshot load install every definition (load
/// class 0) ahead of the data, and index definitions (class 3) after it.
pub fn apply_committed(world: &World, writes: &[CommittedWrite]) -> Result<()> {
    // A fold, not `try_for_each`: it applies every write and keeps the
    // first error.
    writes.iter().map(|w| apply_write(world, w)).fold(Ok(()), Result::and)
}

/// One write of a committed set, routed to its store.
fn apply_write(world: &World, w: &CommittedWrite) -> Result<()> {
    let (model, rest) = w.domain.split_once('/').unwrap_or((&w.domain, ""));
    let utf8_key = || {
        std::str::from_utf8(&w.key).map_err(|_| Error::Internal(format!("non-utf8 {model} key")))
    };
    match (model, &w.value) {
        ("ddl", def) => apply_definition(world, rest, &w.key, def.as_ref()),
        ("doc", Some(doc)) => world.catalog.collection(rest)?.put(utf8_key()?, doc.clone()),
        ("doc", None) => world.catalog.collection(rest)?.remove(utf8_key()?).map(drop),
        ("kv", Some(v)) => world.catalog.bucket(rest)?.put(utf8_key()?, v.clone()),
        ("kv", None) => world.catalog.bucket(rest)?.delete(utf8_key()?),
        ("rel", value) => {
            let Some(Container::Table(table)) = world.catalog.get(rest) else {
                // Unknown table: its ddl/table record installs ahead of
                // its rows, so this only happens for rows whose table was
                // later dropped — nothing to apply.
                return Ok(());
            };
            match value {
                Some(obj) => table.put(table.schema().row_from_object(obj)?),
                // `delete_row` staged `key_of(pk)`: the primary index's
                // own key.
                None => table.delete_by_key(&w.key).map(drop),
            }
        }
        ("graph", value) => {
            let mut seg = rest.splitn(3, '/');
            let (Some(graph), Some(kind), Some(coll)) = (seg.next(), seg.next(), seg.next()) else {
                return Err(Error::Internal(format!("bad graph domain '{rest}'")));
            };
            let graph = world.catalog.graph(graph)?;
            let key = utf8_key()?;
            match (kind, value) {
                ("v", Some(doc)) => graph.put_vertex(coll, key, doc.clone()),
                ("v", None) => graph.remove_vertex(&handle(coll, key)).map(drop),
                ("e", Some(doc)) => graph.put_edge(coll, key, doc.clone()),
                ("e", None) => graph.remove_edge(&handle(coll, key)).map(drop),
                (other, _) => Err(Error::Internal(format!("bad graph domain kind '{other}'"))),
            }
        }
        ("rdf", Some(t)) => {
            let triple = mmdb_rdf::Triple {
                subject: t.get_field("s").as_str()?.to_string(),
                predicate: t.get_field("p").as_str()?.to_string(),
                object: t.get_field("o").clone(),
                graph: None,
            };
            // The key is the triple, so a put of a key the store already
            // holds (a replica applying a checkpoint image over its own
            // state) adds nothing.
            let mut store = world.rdf.write();
            if !store.contains(&triple) {
                store.insert(triple)?;
            }
            Ok(())
        }
        ("rdf", None) => {
            // A delete carries only the key, which encodes (s, p, o) but
            // does not decode back losslessly for strings: find the triple
            // by re-encoding each one (the session API keeps deletes rare).
            let mut store = world.rdf.write();
            let doomed: Vec<mmdb_rdf::Triple> = store
                .all(None)
                .into_iter()
                .filter(|t| {
                    let parts = [Value::str(&t.subject), Value::str(&t.predicate), t.object.clone()];
                    encode_composite_key(&parts) == w.key
                })
                .cloned()
                .collect();
            for t in doomed {
                store.remove(&t.subject, &t.predicate, &t.object);
            }
            Ok(())
        }
        (other, _) => Err(Error::Internal(format!("unknown model domain '{other}'"))),
    }
}

/// The hook's `ddl` arm: a definition's put creates its container, index
/// or tree, and a container definition's delete drops the container with
/// its parts (no other definition is ever deleted, but the tombstones of
/// a loaded state drop a graph's collections with their graph). A
/// definition already in place is applied: a stale replica's snapshot
/// replace hands over every definition it holds. One whose name another
/// kind holds is `AlreadyExists` and leaves the name as it is.
fn apply_definition(world: &World, kind: &str, key: &[u8], def: Option<&Value>) -> Result<()> {
    let name = std::str::from_utf8(key)
        .map_err(|_| Error::Internal(format!("non-utf8 {kind} definition")))?;
    let parts: Vec<&str> = name.splitn(3, '/').collect();
    let Some(def) = def else {
        return match (kind, &parts[..]) {
            // A graph's collection goes with its graph, and only with it.
            ("graph", [graph, _, _]) if matches!(world.catalog.get(graph), Some(Container::Graph(_))) => {
                Err(Error::Unsupported(format!("dropping graph '{name}'")))
            }
            ("collection" | "table" | "bucket" | "graph" | "tree", _) => {
                world.catalog.drop_container(kind, name);
                Ok(())
            }
            _ => Err(Error::Unsupported(format!("dropping {kind} '{name}'"))),
        };
    };
    let catalog = &world.catalog;
    match kind {
        "table" => catalog.create_table(name, Schema::from_value(def)?).map(drop),
        "collection" => catalog.create_collection(name).map(drop),
        "bucket" => catalog.create_bucket(name).map(drop),
        "graph" => match parts[..] {
            [graph] => catalog.create_graph(graph).map(drop),
            [graph, "v", coll] => catalog.create_vertex_collection(graph, coll),
            [graph, "e", coll] => catalog.create_edge_collection(graph, coll),
            _ => Err(Error::Internal(format!("bad graph definition '{name}'"))),
        },
        "tree" => {
            let tree = match (def.get_field("xml"), def.get_field("json")) {
                (Value::String(xml), _) => mmdb_xml::parse_xml(xml)?,
                (_, json) => mmdb_xml::Tree::from_json(json),
            };
            catalog.create_tree(name, tree)
        }
        "index" => {
            let source = def.get_field("source").as_str()?;
            let arg = |field: &str| def.get_field(field).as_str();
            let built = match def.get_field("kind").as_str()? {
                "persistent" => catalog.collection(source)?.create_persistent_index(arg("path")?),
                "column" => catalog.table(source)?.create_index(arg("path")?),
                "gin" => catalog
                    .collection(source)?
                    .create_gin_index(mmdb_index::GinMode::from_name(arg("mode")?)?),
                "fulltext" => {
                    let index = name.strip_prefix("fulltext/").unwrap_or(name);
                    return catalog.create_fulltext_index(index, source, arg("field")?);
                }
                other => return Err(Error::Internal(format!("unknown index kind '{other}'"))),
            };
            match built {
                Err(Error::AlreadyExists(_)) => Ok(()),
                built => built,
            }
        }
        other => Err(Error::Internal(format!("unknown ddl domain '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use mmdb_relational::{ColumnDef, DataType, Schema};
    use mmdb_txn::IsolationLevel;
    use mmdb_types::Projection;
    use std::ops::Bound;

    fn db_with_stores() -> Database {
        let db = Database::in_memory_logged();
        db.create_collection("orders").unwrap();
        db.create_bucket("cart").unwrap();
        db.create_table(
            "customers",
            Schema::new(
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("credit_limit", DataType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db.create_graph("social").unwrap();
        db.create_vertex_collection("social", "persons").unwrap();
        db.create_edge_collection("social", "knows").unwrap();
        db
    }

    #[test]
    fn cross_model_transaction_commits_atomically() {
        let db = db_with_stores();
        let mut s = db.begin(IsolationLevel::Snapshot);
        s.insert_row(
            "customers",
            mmdb_types::from_json(r#"{"id":1,"name":"Mary","credit_limit":5000}"#).unwrap(),
        )
        .unwrap();
        s.insert_document("orders", mmdb_types::from_json(r#"{"_key":"o1","total":66}"#).unwrap())
            .unwrap();
        s.kv_put("cart", "1", Value::str("o1")).unwrap();
        s.add_vertex("social", "persons", mmdb_types::from_json(r#"{"_key":"1"}"#).unwrap())
            .unwrap();
        // Nothing visible before commit.
        assert!(db.get_document("orders", "o1").unwrap().is_none());
        assert!(db.query("FOR c IN customers RETURN c").unwrap().is_empty());
        s.commit().unwrap();
        // Everything visible after.
        assert!(db.get_document("orders", "o1").unwrap().is_some());
        assert_eq!(db.query("FOR c IN customers RETURN c.name").unwrap(), vec![Value::str("Mary")]);
        assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("o1")));
        assert_eq!(db.world().catalog.graph("social").unwrap().vertex_count(), 1);
    }

    #[test]
    fn abort_leaves_no_trace_in_any_model() {
        let db = db_with_stores();
        let mut s = db.begin(IsolationLevel::Snapshot);
        s.insert_document("orders", mmdb_types::from_json(r#"{"_key":"x"}"#).unwrap()).unwrap();
        s.kv_put("cart", "9", Value::int(1)).unwrap();
        s.insert_row(
            "customers",
            mmdb_types::from_json(r#"{"id":9,"name":"Ghost","credit_limit":0}"#).unwrap(),
        )
        .unwrap();
        s.abort();
        assert!(db.get_document("orders", "x").unwrap().is_none());
        assert_eq!(db.kv().get("cart", "9").unwrap(), None);
        assert!(db.query("FOR c IN customers RETURN c").unwrap().is_empty());
    }

    #[test]
    fn dropped_session_aborts_and_releases_locks() {
        // The server reaps a disconnected connection by dropping its
        // session; that must behave exactly like an explicit abort.
        let db = db_with_stores();
        {
            let mut s = db.begin(IsolationLevel::Serializable);
            s.kv_put("cart", "7", Value::str("orphaned")).unwrap();
            assert_eq!(s.write_count(), 1);
        } // dropped without commit
        assert_eq!(db.kv().get("cart", "7").unwrap(), None);
    }

    #[test]
    fn read_your_own_writes_across_models() {
        let db = db_with_stores();
        let mut s = db.begin(IsolationLevel::Snapshot);
        s.insert_document("orders", mmdb_types::from_json(r#"{"_key":"o1","total":5}"#).unwrap())
            .unwrap();
        s.kv_put("cart", "1", Value::str("o1")).unwrap();
        assert_eq!(
            s.get_document("orders", "o1").unwrap().unwrap().get_field("total"),
            &Value::int(5)
        );
        assert_eq!(s.kv_get("cart", "1").unwrap(), Some(Value::str("o1")));
        s.abort();
    }

    #[test]
    fn encoded_point_reads_decode_to_the_point_reads() {
        let db = db_with_stores();
        db.kv_put("cart", "1", Value::str("o1")).unwrap();
        let row = mmdb_types::from_json(r#"{"id":1,"name":"Mary","credit_limit":5000}"#).unwrap();
        db.insert_row("customers", &row).unwrap();
        let mut s = db.begin(IsolationLevel::Snapshot);
        s.insert_document("orders", mmdb_types::from_json(r#"{"_key":"o1","total":5}"#).unwrap())
            .unwrap();
        let decode = |b: Option<Arc<[u8]>>| {
            b.as_deref().map(mmdb_types::codec::value_from_bytes).transpose().unwrap()
        };
        for key in ["o1", "o2"] {
            let doc = s.get_document("orders", key).unwrap();
            assert_eq!(doc.is_some(), key == "o1", "own staged write");
            assert_eq!(decode(s.get_document_encoded("orders", key).unwrap()), doc);
        }
        for key in ["1", "2"] {
            let value = s.kv_get("cart", key).unwrap();
            assert_eq!(value.is_some(), key == "1", "committed");
            assert_eq!(decode(s.kv_get_encoded("cart", key).unwrap()), value);
        }
        for pk in [Value::int(1), Value::int(2)] {
            let row = s.get_row("customers", &pk).unwrap();
            assert_eq!(row.is_some(), pk == Value::int(1), "committed");
            assert_eq!(decode(s.get_row_encoded("customers", &pk).unwrap()), row);
        }
        s.abort();
    }

    #[test]
    fn conflicting_cross_model_txns_abort() {
        let db = db_with_stores();
        let mut a = db.begin(IsolationLevel::Snapshot);
        let mut b = db.begin(IsolationLevel::Snapshot);
        a.kv_put("cart", "1", Value::str("from-a")).unwrap();
        b.kv_put("cart", "1", Value::str("from-b")).unwrap();
        a.commit().unwrap();
        assert!(b.commit().unwrap_err().is_retryable());
        assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("from-a")));
    }

    #[test]
    fn updates_and_deletes_flow_to_stores_and_indexes() {
        let db = db_with_stores();
        db.create_index("orders", "total").unwrap();
        db.insert_json("orders", r#"{"_key":"o1","total":10}"#).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.update_document("orders", "o1", mmdb_types::from_json(r#"{"total":99}"#).unwrap())
        })
        .unwrap();
        let hits = db.query("FOR o IN orders FILTER o.total >= 50 RETURN o._key").unwrap();
        assert_eq!(hits, vec![Value::str("o1")]);
        db.transact(IsolationLevel::Snapshot, 3, |s| s.remove_document("orders", "o1")).unwrap();
        assert!(db.get_document("orders", "o1").unwrap().is_none());
        assert!(db.query("FOR o IN orders RETURN o").unwrap().is_empty());
    }

    #[test]
    fn relational_update_delete_and_rdf() {
        let db = db_with_stores();
        db.insert_row(
            "customers",
            &mmdb_types::from_json(r#"{"id":1,"name":"Mary","credit_limit":5000}"#).unwrap(),
        )
        .unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.update_row(
                "customers",
                mmdb_types::from_json(r#"{"id":1,"name":"Mary","credit_limit":9999}"#).unwrap(),
            )
        })
        .unwrap();
        assert_eq!(
            db.query("FOR c IN customers RETURN c.credit_limit").unwrap(),
            vec![Value::int(9999)]
        );
        db.transact(IsolationLevel::Snapshot, 3, |s| s.delete_row("customers", &Value::int(1)))
            .unwrap();
        assert!(db.query("FOR c IN customers RETURN c").unwrap().is_empty());
        // RDF through a transaction.
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.rdf_insert("mary", "likes", Value::str("toys"))?;
            s.rdf_insert("mary", "age", Value::int(30))
        })
        .unwrap();
        let got = db.query(r#"FOR t IN TRIPLES("mary", NULL, NULL) SORT t.p RETURN t.p"#).unwrap();
        assert_eq!(got, vec![Value::str("age"), Value::str("likes")]);
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.rdf_remove("mary", "likes", &Value::str("toys"))
        })
        .unwrap();
        let got = db.query(r#"FOR t IN TRIPLES("mary", NULL, NULL) RETURN t.p"#).unwrap();
        assert_eq!(got, vec![Value::str("age")]);
    }

    #[test]
    fn graph_edges_through_transactions() {
        let db = db_with_stores();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_vertex("social", "persons", mmdb_types::from_json(r#"{"_key":"1"}"#).unwrap())?;
            s.add_vertex("social", "persons", mmdb_types::from_json(r#"{"_key":"2"}"#).unwrap())?;
            s.add_edge(
                "social",
                "knows",
                "persons/1",
                "persons/2",
                mmdb_types::from_json(r#"{"since":2020}"#).unwrap(),
            )?;
            Ok(())
        })
        .unwrap();
        let got = db
            .query(r#"FOR v IN 1..1 OUTBOUND "persons/1" knows RETURN v._key"#)
            .unwrap();
        assert_eq!(got, vec![Value::str("2")]);
    }

    #[test]
    fn delete_row_leaves_both_indexes_and_spares_the_other_rows() {
        let db = db_with_stores();
        db.create_index("customers", "credit_limit").unwrap();
        let customers = db.world().catalog.table("customers").unwrap();
        for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 5000)] {
            let row = format!(r#"{{"id":{id},"name":"{name}","credit_limit":{limit}}}"#);
            db.insert_row("customers", &mmdb_types::from_json(&row).unwrap()).unwrap();
        }
        db.transact(IsolationLevel::Snapshot, 3, |s| s.delete_row("customers", &Value::int(1)))
            .unwrap();

        // Gone from the primary index...
        assert_eq!(customers.get(&Value::int(1)).unwrap(), None);
        // ...and from the secondary one, which still serves the row that
        // shares the deleted row's value.
        let limit = Value::int(5000);
        let (rows, used_index) = customers
            .range("credit_limit", Bound::Included(&limit), Bound::Included(&limit), &Projection::ALL)
            .unwrap();
        assert!(used_index);
        let anne = r#"{"id":3,"name":"Anne","credit_limit":5000}"#;
        assert_eq!(rows, vec![mmdb_types::from_json(anne).unwrap()]);
        assert_eq!(customers.len(), 2);
        assert!(customers.get(&Value::int(2)).unwrap().is_some());
        // Deleting a row that is not there is not an error.
        db.transact(IsolationLevel::Snapshot, 3, |s| s.delete_row("customers", &Value::int(1)))
            .unwrap();
        assert!(!db.is_degraded());
    }

    #[test]
    fn an_edge_to_a_missing_vertex_is_refused_before_it_is_staged() {
        let db = db_with_stores();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_vertex("social", "persons", mmdb_types::from_json(r#"{"_key":"1"}"#).unwrap())
        })
        .unwrap();
        let edge = || Value::Object(Default::default());
        let mut s = db.begin(IsolationLevel::Snapshot);
        for (from, to) in [("persons/nobody", "persons/1"), ("persons/1", "persons/ghost")] {
            let err = s.add_edge("social", "knows", from, to, edge()).unwrap_err();
            assert_eq!(err.kind(), "not_found", "{err}");
        }
        let err = s.add_edge("social", "knows", "nobody", "persons/1", edge()).unwrap_err();
        assert_eq!(err.kind(), "schema", "{err}");
        assert_eq!(s.write_count(), 0, "nothing staged");
        // A vertex staged earlier in the same transaction is an endpoint,
        // and so is one committed after the transaction began.
        s.add_vertex("social", "persons", mmdb_types::from_json(r#"{"_key":"2"}"#).unwrap())
            .unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |t| {
            t.add_vertex("social", "persons", mmdb_types::from_json(r#"{"_key":"3"}"#).unwrap())
        })
        .unwrap();
        for to in ["persons/2", "persons/3"] {
            s.add_edge("social", "knows", "persons/1", to, edge()).unwrap();
        }
        s.commit().unwrap();
        assert!(!db.is_degraded(), "{:?}", db.degraded_reason());
        db.kv_put("cart", "1", Value::str("o1")).unwrap();
        let got = db.query(r#"FOR v IN 1..1 OUTBOUND "persons/1" knows RETURN v._key"#).unwrap();
        assert_eq!(got, vec![Value::str("2"), Value::str("3")]);
    }

    #[test]
    fn a_key_that_is_not_a_string_is_refused_before_it_is_staged() {
        let db = db_with_stores();
        let keyed = |k: &str| mmdb_types::from_json(&format!(r#"{{"_key":{k}}}"#)).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_vertex("social", "persons", keyed(r#""1""#)).map(drop)
        })
        .unwrap();
        let mut s = db.begin(IsolationLevel::Snapshot);
        for key in ["7", "null", "[1]"] {
            let errs = [
                s.insert_document("orders", keyed(key)).unwrap_err(),
                s.add_vertex("social", "persons", keyed(key)).unwrap_err(),
                s.add_edge("social", "knows", "persons/1", "persons/1", keyed(key)).unwrap_err(),
            ];
            for err in errs {
                assert_eq!(err.kind(), "schema", "{key}: {err}");
                assert!(err.to_string().contains("_key must be a string"), "{key}: {err}");
            }
        }
        assert_eq!(s.write_count(), 0, "nothing staged");
    }

    #[test]
    fn an_edge_key_that_exists_is_refused_before_it_is_staged() {
        let db = db_with_stores();
        let keyed = |k: &str| mmdb_types::from_json(&format!(r#"{{"_key":"{k}"}}"#)).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_vertex("social", "persons", keyed("1"))?;
            s.add_vertex("social", "persons", keyed("2"))?;
            s.add_edge("social", "knows", "persons/1", "persons/2", keyed("e1")).map(drop)
        })
        .unwrap();
        let add = |s: &mut Session, key: &str| {
            s.add_edge("social", "knows", "persons/2", "persons/1", keyed(key))
        };
        let mut s = db.begin(IsolationLevel::Snapshot);
        assert_eq!(add(&mut s, "e1").unwrap_err().kind(), "already_exists", "a committed key");
        assert_eq!(s.write_count(), 0, "nothing staged");
        add(&mut s, "e2").unwrap();
        assert_eq!(add(&mut s, "e2").unwrap_err().kind(), "already_exists", "a key staged earlier");
        assert_eq!(s.write_count(), 1, "only the first e2 was staged");
        s.commit().unwrap();
        assert!(!db.is_degraded(), "{:?}", db.degraded_reason());
        db.kv_put("cart", "1", Value::str("o1")).unwrap();
        let got = db.query(r#"FOR v IN 1..1 OUTBOUND "persons/2" knows RETURN v._key"#).unwrap();
        assert_eq!(got, vec![Value::str("1")]);
    }

    #[test]
    fn a_write_to_a_missing_container_is_refused_before_it_is_staged() {
        let db = db_with_stores();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_vertex("social", "persons", mmdb_types::from_json(r#"{"_key":"1"}"#).unwrap())
        })
        .unwrap();
        let doc = || mmdb_types::from_json(r#"{"_key":"k"}"#).unwrap();
        let row = || mmdb_types::from_json(r#"{"id":1,"name":"Mary","credit_limit":1}"#).unwrap();
        let edge = || Value::Object(Default::default());
        let mut s = db.begin(IsolationLevel::Snapshot);
        let refused: Vec<(&str, Result<()>)> = vec![
            ("insert_document", s.insert_document("nowhere", doc()).map(drop)),
            ("update_document", s.update_document("nowhere", "k", doc())),
            ("remove_document", s.remove_document("nowhere", "k")),
            ("kv_put", s.kv_put("nowhere", "k", Value::int(1))),
            ("kv_delete", s.kv_delete("nowhere", "k")),
            ("kv_put, a collection", s.kv_put("orders", "k", Value::int(1))),
            ("insert_row", s.insert_row("nowhere", row())),
            ("update_row", s.update_row("nowhere", row())),
            ("delete_row", s.delete_row("nowhere", &Value::int(1))),
            ("add_vertex, no graph", s.add_vertex("nowhere", "persons", doc()).map(drop)),
            ("add_vertex, no collection", s.add_vertex("social", "nowhere", doc()).map(drop)),
            ("add_vertex, edge collection", s.add_vertex("social", "knows", doc()).map(drop)),
            (
                "add_edge, no graph",
                s.add_edge("nowhere", "knows", "persons/1", "persons/1", edge()).map(drop),
            ),
            (
                "add_edge, no collection",
                s.add_edge("social", "nowhere", "persons/1", "persons/1", edge()).map(drop),
            ),
            (
                "add_edge, vertex collection",
                s.add_edge("social", "persons", "persons/1", "persons/1", edge()).map(drop),
            ),
        ];
        for (write, outcome) in refused {
            let err = outcome.expect_err(write);
            assert_eq!(err.kind(), "not_found", "{write}: {err}");
            if write == "kv_put, a collection" {
                assert!(err.to_string().contains("bucket 'orders': the name is a collection"), "{err}");
            }
        }
        assert_eq!(s.write_count(), 0, "nothing staged");
        s.commit().unwrap();
        assert!(!db.is_degraded(), "{:?}", db.degraded_reason());
    }

    #[test]
    fn an_invalid_definition_is_refused_before_anything_commits() {
        let db = db_with_stores();
        let tail = || db.wal().unwrap().tail_lsn();
        let before = tail();
        let gin = mmdb_index::GinMode::JsonbOps;
        let refused: Vec<(&str, &str, Result<()>)> = vec![
            ("index on a missing collection", "not_found", db.create_index("nowhere", "total")),
            ("[*] persistent path", "unsupported", db.create_index("orders", "lines[*].price")),
            ("index on a missing column", "not_found", db.create_index("customers", "nowhere")),
            ("gin on a missing collection", "not_found", db.create_gin_index("nowhere", gin)),
            ("fulltext, missing collection", "not_found", db.create_fulltext_index("t", "no", "f")),
            (
                "vertex collection named like an edge collection",
                "already_exists",
                db.create_vertex_collection("social", "knows"),
            ),
            (
                "edge collection named like a vertex collection",
                "already_exists",
                db.create_edge_collection("social", "persons"),
            ),
            (
                "vertex collection in a missing graph",
                "not_found",
                db.create_vertex_collection("nowhere", "persons"),
            ),
            ("graph name with '/'", "schema", db.create_graph("a/v/b")),
            ("a second collection of one name", "already_exists", db.create_collection("orders")),
            ("malformed XML", "parse", db.register_xml("bad", "<a><b></a>")),
        ];
        for (definition, kind, outcome) in refused {
            let err = outcome.expect_err(definition);
            assert_eq!(err.kind(), kind, "{definition}: {err}");
        }
        assert_eq!(tail(), before, "nothing reached the log");
        assert!(!db.is_degraded(), "{:?}", db.degraded_reason());
        assert!(db.world().catalog.tree("bad").is_err());
    }

    #[test]
    fn reads_see_the_snapshot_not_later_commits() {
        let db = db_with_stores();
        let mut s = db.begin(IsolationLevel::Snapshot);
        db.insert_json("orders", r#"{"_key":"o1","total":1}"#).unwrap();
        db.kv_put("cart", "1", Value::str("o1")).unwrap();
        db.insert_row(
            "customers",
            &mmdb_types::from_json(r#"{"id":1,"name":"Mary","credit_limit":5000}"#).unwrap(),
        )
        .unwrap();
        // All three committed after `s` began: none is in its snapshot.
        assert_eq!(s.get_document("orders", "o1").unwrap(), None);
        assert_eq!(s.kv_get("cart", "1").unwrap(), None);
        assert_eq!(s.get_row("customers", &Value::int(1)).unwrap(), None);
        let err = s.update_document("orders", "o1", Value::object([("total", Value::int(2))]));
        let err = err.unwrap_err();
        assert_eq!(err.kind(), "not_found");
        // A racing insert of the same primary key is staged, loses at
        // commit, and its retry sees the winner.
        s.insert_row(
            "customers",
            mmdb_types::from_json(r#"{"id":1,"name":"Maria","credit_limit":1}"#).unwrap(),
        )
        .unwrap();
        let err = s.commit().unwrap_err();
        assert_eq!(err.kind(), "txn_conflict");
        let mut retry = db.begin(IsolationLevel::Snapshot);
        let err = retry
            .insert_row(
                "customers",
                mmdb_types::from_json(r#"{"id":1,"name":"Maria","credit_limit":1}"#).unwrap(),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "already_exists");
    }
}
