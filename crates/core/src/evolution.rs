//! Model evolution: mapping data between models.
//!
//! The tutorial's "model evolution" challenge shows a relational table
//! (legacy data) flowing into JSON documents (new data) under a "model
//! mapping among different models of data". These functions are those
//! mappings, each preserving the information needed to round-trip:
//!
//! * [`table_to_collection`] — rows become documents (`pk` → `_key`).
//! * [`collection_to_table`] — documents become rows under an inferred
//!   schema (the reverse migration).
//! * [`collection_to_graph`] — documents become vertices and reference
//!   fields become edges.
//! * [`table_to_rdf`] — rows become `(row-iri, column, value)` triples,
//!   the classic "direct mapping".
//!
//! Each reads its source from the committed model stores, creates the
//! target through the facade's DDL, stages every write of the target in
//! one [`Session`](crate::Session) and commits once: a migration is one
//! transaction, so it is atomic, logged, recovered and replicated like
//! any other.

use mmdb_txn::IsolationLevel;
use mmdb_types::{Error, Projection, Result, Value};

use crate::database::Database;
use crate::schema_infer::infer_schema;

/// Copy a relational table into a (new) document collection. Returns the
/// number of documents created. The primary key becomes `_key` (stringified).
pub fn table_to_collection(db: &Database, table: &str, collection: &str) -> Result<usize> {
    let t = db.world().catalog.table(table)?;
    let pk = t.schema().primary_key_name();
    let docs = t.scan_projected(&Projection::ALL)?;
    let n = docs.len();
    db.create_collection(collection)?;
    let mut s = db.begin(IsolationLevel::Snapshot);
    for mut doc in docs {
        let key = match doc.get_field(pk) {
            Value::String(s) => s.to_string(),
            other => other.to_string(),
        };
        doc.as_object_mut()?.insert("_key", Value::str(key));
        s.insert_document(collection, doc)?;
    }
    s.commit()?;
    Ok(n)
}

/// Migrate a document collection into a (new) relational table with an
/// inferred schema. Returns `(rows_migrated, rows_skipped)` — documents
/// with fields the inferred schema cannot hold are skipped, not lost
/// (they stay in the collection).
pub fn collection_to_table(db: &Database, collection: &str, table: &str) -> Result<(usize, usize)> {
    let docs = db.world().catalog.collection(collection)?.all()?;
    let inferred = infer_schema(&docs)?;
    db.create_table(table, inferred.schema)?;
    let mut s = db.begin(IsolationLevel::Snapshot);
    let (mut ok, mut skipped) = (0, 0);
    for doc in docs {
        match s.insert_row(table, doc) {
            Ok(()) => ok += 1,
            Err(_) => skipped += 1,
        }
    }
    s.commit()?;
    Ok((ok, skipped))
}

/// Build a graph from a collection: each document becomes a vertex in
/// `<collection>_vertices` (a name is one container, so the vertices
/// cannot take the collection's), and each `ref_field` value referencing
/// another document's `_key` becomes an edge in `<ref_field>_edges`. A
/// reference to no document of the collection is skipped.
pub fn collection_to_graph(
    db: &Database,
    collection: &str,
    graph: &str,
    ref_field: &str,
) -> Result<(usize, usize)> {
    let docs = db.world().catalog.collection(collection)?.all()?;
    let (vertex_coll, edge_coll) = (format!("{collection}_vertices"), format!("{ref_field}_edges"));
    db.create_graph(graph)?;
    db.create_vertex_collection(graph, &vertex_coll)?;
    db.create_edge_collection(graph, &edge_coll)?;
    let mut s = db.begin(IsolationLevel::Snapshot);
    for doc in &docs {
        s.add_vertex(graph, &vertex_coll, doc.clone())?;
    }
    let mut edges = 0;
    for doc in &docs {
        let from = format!("{vertex_coll}/{}", doc.get_field("_key").as_str()?);
        let refs: Vec<&str> = match doc.get_field(ref_field) {
            Value::String(s) => vec![s.as_str()],
            Value::Array(items) => items.iter().filter_map(|v| v.as_str().ok()).collect(),
            _ => continue,
        };
        for r in refs {
            let to = format!("{vertex_coll}/{r}");
            match s.add_edge(graph, &edge_coll, &from, &to, Value::Object(Default::default())) {
                Ok(_) => edges += 1,
                // A dangling reference: its target is no staged vertex.
                Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
    }
    s.commit()?;
    Ok((docs.len(), edges))
}

/// Direct-map a relational table into the RDF store: each row yields
/// triples `(table:pk, column, value)` for every non-null column. Returns
/// the number of triples inserted.
pub fn table_to_rdf(db: &Database, table: &str) -> Result<usize> {
    let t = db.world().catalog.table(table)?;
    let pk = t.schema().primary_key_name();
    let mut s = db.begin(IsolationLevel::Snapshot);
    let mut n = 0;
    for row in t.scan_projected(&Projection::ALL)? {
        let subject = format!("{table}:{}", row.get_field(pk));
        for (col, value) in row.as_object()?.iter() {
            if value.is_null() {
                continue;
            }
            s.rdf_insert(&subject, col, value.clone())?;
            n += 1;
        }
    }
    s.commit()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_relational::{ColumnDef, DataType, Schema};

    fn db_with_customers() -> Database {
        let db = Database::in_memory();
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
        for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
            db.insert_row(
                "customers",
                &mmdb_types::from_json(&format!(
                    r#"{{"id":{id},"name":"{name}","credit_limit":{limit}}}"#
                ))
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn relational_rows_become_documents() {
        let db = db_with_customers();
        let n = table_to_collection(&db, "customers", "customers_docs").unwrap();
        assert_eq!(n, 3);
        let mary = db.get_document("customers_docs", "1").unwrap().unwrap();
        assert_eq!(mary.get_field("name"), &Value::str("Mary"));
        // And the new collection is immediately queryable in MMQL.
        let got = db
            .query("FOR c IN customers_docs FILTER c.credit_limit > 3000 RETURN c.name")
            .unwrap();
        assert_eq!(got, vec![Value::str("Mary")]);
    }

    #[test]
    fn documents_become_rows_roundtrip() {
        let db = db_with_customers();
        table_to_collection(&db, "customers", "docs").unwrap();
        let (ok, skipped) = collection_to_table(&db, "docs", "customers2").unwrap();
        assert_eq!((ok, skipped), (3, 0));
        let got = db.query_sql("SELECT name FROM customers2 ORDER BY name").unwrap();
        assert_eq!(got, vec![Value::str("Anne"), Value::str("John"), Value::str("Mary")]);
    }

    #[test]
    fn references_become_edges() {
        let db = Database::in_memory();
        db.create_collection("people").unwrap();
        db.insert_json("people", r#"{"_key":"1","name":"Mary","knows":["2"]}"#).unwrap();
        db.insert_json("people", r#"{"_key":"2","name":"John","knows":"3"}"#).unwrap();
        db.insert_json("people", r#"{"_key":"3","name":"Anne"}"#).unwrap();
        let (v, e) = collection_to_graph(&db, "people", "social", "knows").unwrap();
        assert_eq!((v, e), (3, 2));
        let got = db
            .query(r#"FOR f IN 1..2 OUTBOUND "people_vertices/1" knows_edges SORT f._depth RETURN f.name"#)
            .unwrap();
        assert_eq!(got, vec![Value::str("John"), Value::str("Anne")]);
    }

    #[test]
    fn dangling_references_are_skipped() {
        let db = Database::in_memory();
        db.create_collection("p").unwrap();
        db.insert_json("p", r#"{"_key":"1","knows":"404"}"#).unwrap();
        let (v, e) = collection_to_graph(&db, "p", "g", "knows").unwrap();
        assert_eq!((v, e), (1, 0));
    }

    #[test]
    fn rows_become_triples() {
        let db = db_with_customers();
        let n = table_to_rdf(&db, "customers").unwrap();
        assert_eq!(n, 9);
        let got = db
            .query(r#"FOR t IN TRIPLES("customers:1", "name", NULL) RETURN t.o"#)
            .unwrap();
        assert_eq!(got, vec![Value::str("Mary")]);
        // Typed literals survive.
        let got = db
            .query(r#"FOR t IN TRIPLES(NULL, "credit_limit", 5000) RETURN t.s"#)
            .unwrap();
        assert_eq!(got, vec![Value::str("customers:1")]);
    }
}
