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
//! * [`collection_to_graph`] — reference fields (`"coll/key"` handles)
//!   become edges; documents become vertices.
//! * [`table_to_rdf`] — rows become `(row-iri, column, value)` triples,
//!   the classic "direct mapping".

use mmdb_types::{Result, Value};

use crate::database::Database;
use crate::schema_infer::infer_schema;

/// Copy a relational table into a (new) document collection. Returns the
/// number of documents created. The primary key becomes `_key` (stringified).
pub fn table_to_collection(db: &Database, table: &str, collection: &str) -> Result<usize> {
    let t = db.world().catalog.table(table)?;
    let schema = t.schema().clone();
    db.create_collection(collection)?;
    let coll = db.world().collection(collection)?;
    let mut n = 0;
    for row in t.scan()? {
        let mut doc = schema.object_from_row(&row);
        let pk = &row[schema.primary_key()];
        let key = match pk {
            Value::String(s) => s.clone(),
            other => other.to_string(),
        };
        doc.as_object_mut()?.insert("_key", Value::str(key));
        coll.insert(doc)?;
        n += 1;
    }
    Ok(n)
}

/// Migrate a document collection into a (new) relational table with an
/// inferred schema. Returns `(rows_migrated, rows_skipped)` — documents
/// with fields the inferred schema cannot hold are skipped, not lost
/// (they stay in the collection).
pub fn collection_to_table(db: &Database, collection: &str, table: &str) -> Result<(usize, usize)> {
    let coll = db.world().collection(collection)?;
    let docs = coll.all()?;
    let inferred = infer_schema(&docs)?;
    let t = db.create_table(table, inferred.schema)?;
    let (mut ok, mut skipped) = (0, 0);
    for doc in docs {
        match t.insert_object(&doc) {
            Ok(()) => ok += 1,
            Err(_) => skipped += 1,
        }
    }
    Ok((ok, skipped))
}

/// Build a graph from a collection: each document becomes a vertex in
/// `vertex_coll`; each `ref_field` value of the form `"label"` referencing
/// another document's `_key` becomes an edge in `edge_coll`.
pub fn collection_to_graph(
    db: &Database,
    collection: &str,
    graph: &str,
    ref_field: &str,
) -> Result<(usize, usize)> {
    let coll = db.world().collection(collection)?;
    let g = db.create_graph(graph)?;
    g.create_vertex_collection(collection)?;
    let edge_coll = format!("{ref_field}_edges");
    g.create_edge_collection(&edge_coll)?;
    let docs = coll.all()?;
    let mut vertices = 0;
    for doc in &docs {
        g.add_vertex(collection, doc.clone())?;
        vertices += 1;
    }
    let mut edges = 0;
    for doc in &docs {
        let from = format!("{collection}/{}", doc.get_field("_key").as_str()?);
        let refs: Vec<String> = match doc.get_field(ref_field) {
            Value::String(s) => vec![s.clone()],
            Value::Array(items) => items
                .iter()
                .filter_map(|v| v.as_str().ok().map(str::to_string))
                .collect(),
            _ => continue,
        };
        for r in refs {
            let to = format!("{collection}/{r}");
            if g.vertex(&to)?.is_some() {
                g.add_edge(&edge_coll, &from, &to, Value::Object(Default::default()))?;
                edges += 1;
            }
        }
    }
    Ok((vertices, edges))
}

/// Direct-map a relational table into the RDF store: each row yields
/// triples `(table:pk, column, value)` for every non-null column. Returns
/// the number of triples inserted.
pub fn table_to_rdf(db: &Database, table: &str) -> Result<usize> {
    let t = db.world().catalog.table(table)?;
    let schema = t.schema().clone();
    let rows = t.scan()?;
    let mut store = db.world().rdf.write();
    let mut n = 0;
    for row in rows {
        let pk = &row[schema.primary_key()];
        let subject = format!("{table}:{pk}");
        for (col, value) in schema.columns().iter().zip(&row) {
            if value.is_null() {
                continue;
            }
            store.insert(mmdb_rdf::Triple {
                subject: subject.clone(),
                predicate: col.name.clone(),
                object: value.clone(),
                graph: Some(table.to_string()),
            })?;
            n += 1;
        }
    }
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
            .query(r#"FOR f IN 1..2 OUTBOUND "people/1" knows_edges SORT f._depth RETURN f.name"#)
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
