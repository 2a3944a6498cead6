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
//! Domain encoding: `doc/<coll>`, `kv/<bucket>`, `rel/<table>`,
//! `graph/<graph>/v/<coll>`, `graph/<graph>/e/<coll>`, `rdf`, and
//! `ddl/table` for WAL-logged schema changes (key = table name, value =
//! the schema as a `Value`; see [`mmdb_relational::Schema::to_value`]).

use std::sync::Arc;

use mmdb_query::World;
use mmdb_relational::Schema;
use mmdb_txn::{CommittedWrite, IsolationLevel, Transaction};
use mmdb_types::codec::{encode_composite_key, key_of};
use mmdb_types::{CancelToken, Error, Result, Value};

/// An open cross-model transaction.
///
/// A `Session` is an owned value: whichever component holds it (an
/// embedded caller, a server connection) owns the transaction. Dropping
/// an uncommitted session aborts it completely — staged writes are
/// discarded and locks released; the WAL never saw them — so
/// disconnecting clients can simply be dropped and never leak a
/// half-open transaction.
pub struct Session {
    world: Arc<World>,
    txn: Transaction,
    generated: u64,
    cancel: CancelToken,
}

impl Session {
    pub(crate) fn new(world: Arc<World>, txn: Transaction) -> Session {
        Session { world, txn, generated: 0, cancel: CancelToken::none() }
    }

    /// The underlying transaction id.
    pub fn id(&self) -> u64 {
        self.txn.id()
    }

    /// Attach a cancellation token; [`Session::query`] runs under it. The
    /// server installs one per request so a client-supplied deadline
    /// reaches the executor's cooperative checkpoints.
    pub fn set_cancel_token(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// The session's current cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Run an MMQL query under this session's cancellation token. Queries
    /// read the latest committed model stores (they do not see this
    /// session's staged, uncommitted writes).
    pub fn query(&self, text: &str) -> Result<Vec<Value>> {
        mmdb_query::run_with(&self.world, text, &self.cancel)
    }

    /// Commit the transaction; returns the commit timestamp.
    pub fn commit(self) -> Result<u64> {
        self.txn.commit()
    }

    /// Abort the transaction.
    pub fn abort(self) {
        self.txn.abort()
    }

    /// The isolation level the session was begun at.
    pub fn isolation(&self) -> IsolationLevel {
        self.txn.isolation()
    }

    /// Number of writes staged so far (0 means read-only).
    pub fn write_count(&self) -> usize {
        self.txn.write_count()
    }

    // ---- documents ---------------------------------------------------------

    /// Stage a document insert; returns the (possibly generated) `_key`.
    pub fn insert_document(&mut self, collection: &str, mut doc: Value) -> Result<String> {
        let obj = doc.as_object_mut()?;
        let key = match obj.get("_key") {
            Some(Value::String(k)) => k.clone(),
            Some(other) => {
                return Err(Error::Schema(format!(
                    "_key must be a string, got {}",
                    other.type_name()
                )))
            }
            None => {
                self.generated += 1;
                let k = format!("{}-{}", self.txn.id(), self.generated);
                obj.insert("_key", Value::str(&k));
                k
            }
        };
        let domain = format!("doc/{collection}");
        if self.txn.get(&domain, key.as_bytes())?.is_some() {
            return Err(Error::AlreadyExists(format!("document '{key}' in '{collection}'")));
        }
        self.txn.put(&domain, key.as_bytes(), doc)?;
        Ok(key)
    }

    /// Stage a wholesale document update.
    pub fn update_document(&mut self, collection: &str, key: &str, mut doc: Value) -> Result<()> {
        let domain = format!("doc/{collection}");
        if self.txn.get(&domain, key.as_bytes())?.is_none() {
            // Fall back to the committed store for documents loaded outside
            // the MVCC path (bulk loads).
            if self.world.collection(collection)?.get(key)?.is_none() {
                return Err(Error::NotFound(format!("document '{key}' in '{collection}'")));
            }
        }
        doc.as_object_mut()?.insert("_key", Value::str(key));
        self.txn.put(&domain, key.as_bytes(), doc)
    }

    /// Stage a document removal.
    pub fn remove_document(&mut self, collection: &str, key: &str) -> Result<()> {
        self.txn.delete(&format!("doc/{collection}"), key.as_bytes())
    }

    /// Snapshot read of a document (sees own staged writes).
    pub fn get_document(&self, collection: &str, key: &str) -> Result<Option<Value>> {
        match self.txn.get(&format!("doc/{collection}"), key.as_bytes())? {
            Some(v) => Ok(Some(v)),
            // Bulk-loaded documents never entered the version store; fall
            // back to the committed collection.
            None => self.world.collection(collection)?.get(key),
        }
    }

    // ---- key/value ----------------------------------------------------------

    /// Stage a key/value put.
    pub fn kv_put(&mut self, bucket: &str, key: &str, value: Value) -> Result<()> {
        self.txn.put(&format!("kv/{bucket}"), key.as_bytes(), value)
    }

    /// Stage a key/value delete.
    pub fn kv_delete(&mut self, bucket: &str, key: &str) -> Result<()> {
        self.txn.delete(&format!("kv/{bucket}"), key.as_bytes())
    }

    /// Snapshot read of a key.
    pub fn kv_get(&self, bucket: &str, key: &str) -> Result<Option<Value>> {
        match self.txn.get(&format!("kv/{bucket}"), key.as_bytes())? {
            Some(v) => Ok(Some(v)),
            None => self.world.kv.get(bucket, key),
        }
    }

    // ---- relational ----------------------------------------------------------

    fn row_key(&self, table: &str, row_object: &Value) -> Result<(Vec<u8>, Value)> {
        let t = self.world.catalog.table(table)?;
        let pk_name = t.schema().primary_key_name().to_string();
        let pk = row_object.get_field(&pk_name).clone();
        if pk.is_null() {
            return Err(Error::Schema(format!("row is missing primary key '{pk_name}'")));
        }
        Ok((key_of(&pk), pk))
    }

    /// Stage a relational insert (object keyed by column names).
    pub fn insert_row(&mut self, table: &str, row_object: Value) -> Result<()> {
        // Validate the shape eagerly so errors surface in the transaction.
        let t = self.world.catalog.table(table)?;
        let mut row = t.schema().row_from_object(&row_object)?;
        t.schema().validate(&mut row)?;
        let (key, pk) = self.row_key(table, &row_object)?;
        let domain = format!("rel/{table}");
        if self.txn.get(&domain, &key)?.is_some() || t.get(&pk)?.is_some() {
            return Err(Error::AlreadyExists(format!("primary key {pk} in '{table}'")));
        }
        self.txn.put(&domain, &key, t.schema().object_from_row(&row))
    }

    /// Stage a relational update (full row object; pk identifies the row).
    pub fn update_row(&mut self, table: &str, row_object: Value) -> Result<()> {
        let t = self.world.catalog.table(table)?;
        let mut row = t.schema().row_from_object(&row_object)?;
        t.schema().validate(&mut row)?;
        let (key, _) = self.row_key(table, &row_object)?;
        self.txn.put(&format!("rel/{table}"), &key, t.schema().object_from_row(&row))
    }

    /// Stage a relational delete by primary key.
    pub fn delete_row(&mut self, table: &str, pk: &Value) -> Result<()> {
        self.txn.delete(&format!("rel/{table}"), &key_of(pk))
    }

    /// Snapshot read of a row by primary key (as an object).
    pub fn get_row(&self, table: &str, pk: &Value) -> Result<Option<Value>> {
        match self.txn.get(&format!("rel/{table}"), &key_of(pk))? {
            Some(v) => Ok(Some(v)),
            None => {
                let t = self.world.catalog.table(table)?;
                Ok(t.get(pk)?.map(|row| t.schema().object_from_row(&row)))
            }
        }
    }

    // ---- graph -----------------------------------------------------------------

    /// Stage a vertex insert; returns the vertex handle.
    pub fn add_vertex(&mut self, graph: &str, collection: &str, mut doc: Value) -> Result<String> {
        let obj = doc.as_object_mut()?;
        let key = match obj.get("_key") {
            Some(Value::String(k)) => k.clone(),
            _ => {
                self.generated += 1;
                let k = format!("{}-{}", self.txn.id(), self.generated);
                obj.insert("_key", Value::str(&k));
                k
            }
        };
        self.txn
            .put(&format!("graph/{graph}/v/{collection}"), key.as_bytes(), doc)?;
        Ok(format!("{collection}/{key}"))
    }

    /// Stage an edge insert; returns the edge key.
    pub fn add_edge(
        &mut self,
        graph: &str,
        collection: &str,
        from: &str,
        to: &str,
        mut properties: Value,
    ) -> Result<String> {
        {
            let obj = properties.as_object_mut()?;
            obj.insert("_from", Value::str(from));
            obj.insert("_to", Value::str(to));
            if !obj.contains_key("_key") {
                self.generated += 1;
                let k = format!("{}-{}", self.txn.id(), self.generated);
                obj.insert("_key", Value::str(k));
            }
        }
        let key = properties.get_field("_key").as_str()?.to_string();
        self.txn
            .put(&format!("graph/{graph}/e/{collection}"), key.as_bytes(), properties)?;
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

/// Apply a committed write set to the model stores. Called from the MVCC
/// commit hook and from WAL recovery; creates missing schemaless stores
/// (collections, buckets, graphs) on demand. Relational tables carry
/// their schema in WAL-logged `ddl/table` writes (see
/// `Database::create_table`), which replay in log order ahead of the
/// rows they govern — recovery needs no help from the application.
pub fn apply_committed(world: &World, writes: &[CommittedWrite]) -> Result<()> {
    for w in writes {
        let mut parts = w.domain.splitn(2, '/');
        let model = parts.next().unwrap_or_default();
        let rest = parts.next().unwrap_or_default();
        match model {
            "ddl" => {
                if rest != "table" {
                    return Err(Error::Internal(format!("unknown ddl domain '{rest}'")));
                }
                let name = std::str::from_utf8(&w.key)
                    .map_err(|_| Error::Internal("non-utf8 table name".into()))?;
                match &w.value {
                    Some(schema_value) => {
                        // Idempotent: live commits race nobody (the hook
                        // runs post-validation), but recovery may replay a
                        // create the application already issued.
                        if world.catalog.table(name).is_err() {
                            world
                                .catalog
                                .create_table(name, Schema::from_value(schema_value)?)?;
                        }
                    }
                    None => {
                        let _ = world.catalog.drop_table(name);
                    }
                }
            }
            "doc" => {
                let coll = match world.collection(rest) {
                    Ok(c) => c,
                    Err(_) => world.create_collection(rest)?,
                };
                let key = std::str::from_utf8(&w.key)
                    .map_err(|_| Error::Internal("non-utf8 doc key".into()))?;
                match &w.value {
                    Some(doc) => {
                        if coll.contains_key(key) {
                            coll.update(key, doc.clone())?;
                        } else {
                            coll.insert(doc.clone())?;
                        }
                        world.fulltext_touch(rest, doc);
                    }
                    None => {
                        coll.remove(key)?;
                    }
                }
            }
            "kv" => {
                if !world.kv.has_bucket(rest) {
                    world.kv.create_bucket(rest)?;
                }
                let key = std::str::from_utf8(&w.key)
                    .map_err(|_| Error::Internal("non-utf8 kv key".into()))?;
                match &w.value {
                    Some(v) => world.kv.put(rest, key, v.clone())?,
                    None => {
                        world.kv.delete(rest, key)?;
                    }
                }
            }
            "rel" => {
                let Ok(table) = world.catalog.table(rest) else {
                    // Unknown table: its ddl/table record replays earlier
                    // in the same log, so this only happens for rows whose
                    // table was later dropped — nothing to apply.
                    continue;
                };
                match &w.value {
                    Some(obj) => {
                        let row = table.schema().row_from_object(obj)?;
                        let pk = row[table.schema().primary_key()].clone();
                        if table.get(&pk)?.is_some() {
                            table.update(&pk, row)?;
                        } else {
                            table.insert(row)?;
                        }
                    }
                    None => {
                        // `delete_row` staged `key_of(pk)`: the primary
                        // index's own key.
                        table.delete_by_key(&w.key)?;
                    }
                }
            }
            "graph" => {
                let mut seg = rest.splitn(3, '/');
                let gname = seg.next().unwrap_or_default();
                let kind = seg.next().unwrap_or_default();
                let coll = seg.next().unwrap_or_default();
                let graph = match world.graph(gname) {
                    Ok(g) => g,
                    Err(_) => world.create_graph(gname)?,
                };
                match kind {
                    "v" => {
                        let handle = format!("{coll}/{}", String::from_utf8_lossy(&w.key));
                        // An index probe; it fails only for a collection
                        // the graph does not have yet.
                        let exists = match graph.has_vertex(&handle) {
                            Ok(exists) => exists,
                            Err(_) => {
                                graph.create_vertex_collection(coll)?;
                                false
                            }
                        };
                        match &w.value {
                            Some(doc) => {
                                if exists {
                                    // Vertex docs update in place via the
                                    // underlying collection semantics: remove
                                    // + re-add keeps edges (no cascade here).
                                    graph.update_vertex(&handle, doc.clone())?;
                                } else {
                                    graph.add_vertex(coll, doc.clone())?;
                                }
                            }
                            None => {
                                graph.remove_vertex(&handle)?;
                            }
                        }
                    }
                    "e" => {
                        if !graph.edge_collection_exists(coll) {
                            graph.create_edge_collection(coll)?;
                        }
                        match &w.value {
                            Some(doc) => {
                                let from = doc.get_field("_from").as_str()?.to_string();
                                let to = doc.get_field("_to").as_str()?.to_string();
                                graph.add_edge(coll, &from, &to, doc.clone())?;
                            }
                            None => {
                                let handle = format!("{coll}/{}", String::from_utf8_lossy(&w.key));
                                graph.remove_edge(&handle)?;
                            }
                        }
                    }
                    other => {
                        return Err(Error::Internal(format!("bad graph domain kind '{other}'")))
                    }
                }
            }
            "rdf" => {
                let mut store = world.rdf.write();
                match &w.value {
                    Some(t) => {
                        store.insert(mmdb_rdf::Triple {
                            subject: t.get_field("s").as_str()?.to_string(),
                            predicate: t.get_field("p").as_str()?.to_string(),
                            object: t.get_field("o").clone(),
                            graph: None,
                        })?;
                    }
                    None => {
                        // Without the value we can't know (s,p,o); rdf_remove
                        // is therefore modeled as put-of-nothing: scan-free
                        // removal needs the original triple, which the key
                        // encodes — but decoding composite keys is lossy for
                        // strings; accept the scan for this rare path.
                        // (The session API keeps deletes rare.)
                        let all: Vec<mmdb_rdf::Triple> =
                            store.all(None).into_iter().cloned().collect();
                        for t in all {
                            let key = encode_composite_key(&[
                                Value::str(&t.subject),
                                Value::str(&t.predicate),
                                t.object.clone(),
                            ]);
                            if key == w.key {
                                store.remove(&t.subject, &t.predicate, &t.object);
                            }
                        }
                    }
                }
            }
            other => return Err(Error::Internal(format!("unknown model domain '{other}'"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use mmdb_relational::{ColumnDef, DataType, Schema};
    use mmdb_txn::IsolationLevel;

    fn db_with_stores() -> Database {
        let db = Database::in_memory();
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
        let g = db.create_graph("social").unwrap();
        g.create_vertex_collection("persons").unwrap();
        g.create_edge_collection("knows").unwrap();
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
        assert_eq!(db.world().graph("social").unwrap().vertex_count(), 1);
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
        // The lock is free again: a fresh serializable txn writes the key.
        db.transact(IsolationLevel::Serializable, 1, |s| {
            s.kv_put("cart", "7", Value::str("fresh"))
        })
        .unwrap();
        assert_eq!(db.kv().get("cart", "7").unwrap(), Some(Value::str("fresh")));
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
        db.world().collection("orders").unwrap().create_persistent_index("total").unwrap();
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
        use mmdb_relational::Predicate;

        let db = db_with_stores();
        let customers = db.world().catalog.table("customers").unwrap();
        customers.create_index("credit_limit").unwrap();
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
        let (rows, used_index) =
            customers.select(&Predicate::Eq("credit_limit".into(), Value::int(5000))).unwrap();
        assert!(used_index);
        assert_eq!(rows, vec![vec![Value::int(3), Value::str("Anne"), Value::int(5000)]]);
        assert_eq!(customers.len(), 2);
        assert!(customers.get(&Value::int(2)).unwrap().is_some());
        // Deleting a row that is not there is not an error.
        db.transact(IsolationLevel::Snapshot, 3, |s| s.delete_row("customers", &Value::int(1)))
            .unwrap();
        assert!(!db.is_degraded());
    }
}
