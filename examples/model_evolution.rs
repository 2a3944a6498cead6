//! Model evolution: the tutorial's "legacy relational data, new JSON
//! data" challenge — migrate data between models without losing it.
//!
//! Walks a customer relation through the full cycle:
//! table → documents → (schema inference) → table again → graph → RDF.

use mmdb::core::evolution;
use mmdb::core::schema_infer::infer_schema;
use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
use mmdb::{Database, Result, Value};

fn main() -> Result<()> {
    let db = Database::in_memory();

    // Legacy relational data.
    db.create_table(
        "customers",
        Schema::new(
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("credit_limit", DataType::Int),
            ],
            "id",
        )?,
    )?;
    for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
        db.insert_row(
            "customers",
            &mmdb::from_json(&format!(r#"{{"id":{id},"name":"{name}","credit_limit":{limit}}}"#))?,
        )?;
    }

    // 1. Relation → documents.
    let n = evolution::table_to_collection(&db, "customers", "customer_docs")?;
    println!("table → collection: {n} documents");

    // New-era data arrives with extra, schemaless fields.
    db.insert_json(
        "customer_docs",
        r#"{"_key":"4","id":4,"name":"Petra","credit_limit":4000,
            "social":{"follows":1200},"tags":["vip"]}"#,
    )?;

    // 2. Schema extraction over the open-schema collection.
    let docs = db.world().catalog.collection("customer_docs")?.all()?;
    let inferred = infer_schema(&docs)?;
    println!("inferred schema (pk = {}):", inferred.schema.primary_key_name());
    for c in inferred.schema.columns() {
        println!("   {} {} {}", c.name, c.data_type, if c.nullable { "NULL" } else { "NOT NULL" });
    }

    // 3. Documents → relation (round trip, new fields land as JSON columns).
    let (ok, skipped) = evolution::collection_to_table(&db, "customer_docs", "customers_v2")?;
    println!("collection → table: {ok} rows migrated, {skipped} skipped");
    let rows = db.query_sql("SELECT name, credit_limit FROM customers_v2 ORDER BY name")?;
    println!("customers_v2 via SQL: {rows:?}");

    // 4. Documents → graph: 'knows' references become edges.
    db.create_collection("people")?;
    db.insert_json("people", r#"{"_key":"1","name":"Mary","knows":["2","3"]}"#)?;
    db.insert_json("people", r#"{"_key":"2","name":"John","knows":"3"}"#)?;
    db.insert_json("people", r#"{"_key":"3","name":"Anne"}"#)?;
    let (v, e) = evolution::collection_to_graph(&db, "people", "social", "knows")?;
    println!("collection → graph: {v} vertices, {e} edges");
    let reach = db.query(r#"FOR p IN 1..2 OUTBOUND "people_vertices/1" knows_edges RETURN p.name"#)?;
    println!("2-hop reach from Mary: {reach:?}");

    // 5. Relation → RDF: the direct mapping.
    let triples = evolution::table_to_rdf(&db, "customers")?;
    println!("table → rdf: {triples} triples");
    let subjects = db.query(r#"FOR t IN TRIPLES(NULL, "credit_limit", 5000) RETURN t.s"#)?;
    assert_eq!(subjects, vec![Value::str("customers:1")]);
    println!("SPARQL-style lookup over the projection: {subjects:?}");

    Ok(())
}
