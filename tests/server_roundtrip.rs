//! End-to-end client/server round-trips.
//!
//! A server on an ephemeral port, populated with the paper's running
//! example *through the wire protocol*, must give byte-identical
//! answers to an embedded engine loaded with the same data — for MMQL
//! (the slide-27 recommendation query), for SQL, and for a
//! multi-statement cross-model transaction.

use std::sync::Arc;

use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
use mmdb::{Database, Value};
use mmdb_client::{Client, Pool, PoolConfig};
use mmdb_server::{Server, ServerConfig};
use mmdb_types::codec::value_to_bytes;

/// The EDBT'17 slide-27 recommendation query (see tests/paper_scenario.rs).
const RECOMMENDATION: &str = r#"
    FOR c IN customers
      FILTER c.credit_limit > 3000
      FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
        LET order = DOC("orders", KV_GET("cart", friend._key))
        FILTER order != NULL
        FOR line IN order.orderlines
          RETURN line.product_no
"#;

const SQL_QUERY: &str = "SELECT name FROM customers WHERE credit_limit >= 3000 ORDER BY name";

fn customer_schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("credit_limit", DataType::Int),
        ],
        "id",
    )
    .unwrap()
}

/// The paper's data set, loaded through the embedded API.
fn embedded_reference() -> Database {
    let db = Database::in_memory();
    db.create_table("customers", customer_schema()).unwrap();
    for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
        db.insert_row(
            "customers",
            &mmdb::from_json(&format!(r#"{{"id":{id},"name":"{name}","credit_limit":{limit}}}"#))
                .unwrap(),
        )
        .unwrap();
    }
    let g = db.create_graph("social").unwrap();
    g.create_vertex_collection("persons").unwrap();
    g.create_edge_collection("knows").unwrap();
    for id in 1..=3 {
        g.add_vertex("persons", mmdb::from_json(&format!(r#"{{"_key":"{id}"}}"#)).unwrap())
            .unwrap();
    }
    g.add_edge("knows", "persons/1", "persons/2", mmdb::from_json("{}").unwrap()).unwrap();
    g.add_edge("knows", "persons/3", "persons/1", mmdb::from_json("{}").unwrap()).unwrap();
    db.create_bucket("cart").unwrap();
    db.kv_put("cart", "1", Value::str("34e5e759")).unwrap();
    db.kv_put("cart", "2", Value::str("0c6df508")).unwrap();
    db.create_collection("orders").unwrap();
    db.insert_json(
        "orders",
        r#"{"_key":"0c6df508","orderlines":[
            {"product_no":"2724f","product_name":"Toy","price":66},
            {"product_no":"3424g","product_name":"Book","price":40}]}"#,
    )
    .unwrap();
    db.insert_json(
        "orders",
        r#"{"_key":"34e5e759","orderlines":[{"product_no":"1111a","price":2}]}"#,
    )
    .unwrap();
    db
}

/// The same data set, loaded through the wire protocol.
fn load_over_the_wire(client: &mut Client) {
    client.create_table("customers", &customer_schema()).unwrap();
    for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
        client
            .insert_row(
                "customers",
                mmdb::from_json(&format!(
                    r#"{{"id":{id},"name":"{name}","credit_limit":{limit}}}"#
                ))
                .unwrap(),
            )
            .unwrap();
    }
    client.create_graph("social").unwrap();
    client.create_vertex_collection("social", "persons").unwrap();
    client.create_edge_collection("social", "knows").unwrap();
    for id in 1..=3 {
        client
            .add_vertex("social", "persons", mmdb::from_json(&format!(r#"{{"_key":"{id}"}}"#)).unwrap())
            .unwrap();
    }
    client
        .add_edge("social", "knows", "persons/1", "persons/2", mmdb::from_json("{}").unwrap())
        .unwrap();
    client
        .add_edge("social", "knows", "persons/3", "persons/1", mmdb::from_json("{}").unwrap())
        .unwrap();
    client.create_bucket("cart").unwrap();
    client.kv_put("cart", "1", Value::str("34e5e759")).unwrap();
    client.kv_put("cart", "2", Value::str("0c6df508")).unwrap();
    client.create_collection("orders").unwrap();
    client
        .insert_document(
            "orders",
            mmdb::from_json(
                r#"{"_key":"0c6df508","orderlines":[
            {"product_no":"2724f","product_name":"Toy","price":66},
            {"product_no":"3424g","product_name":"Book","price":40}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
    client
        .insert_document(
            "orders",
            mmdb::from_json(r#"{"_key":"34e5e759","orderlines":[{"product_no":"1111a","price":2}]}"#)
                .unwrap(),
        )
        .unwrap();
}

fn start_server() -> (Server, String) {
    let db = Arc::new(Database::in_memory());
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn encode_rows(rows: &[Value]) -> Vec<u8> {
    value_to_bytes(&Value::Array(rows.to_vec())).to_vec()
}

#[test]
fn wire_loaded_data_answers_byte_identically_to_embedded() {
    let (server, addr) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    assert!(client.server_version().starts_with("mmdb/"));
    load_over_the_wire(&mut client);

    let reference = embedded_reference();
    // MMQL: the paper's headline query.
    let remote = client.query(RECOMMENDATION).unwrap();
    let local = reference.query(RECOMMENDATION).unwrap();
    assert_eq!(remote, vec![Value::str("2724f"), Value::str("3424g")]);
    assert_eq!(encode_rows(&remote), encode_rows(&local), "MMQL bytes must match");
    // SQL front-end.
    let remote_sql = client.query_sql(SQL_QUERY).unwrap();
    let local_sql = reference.query_sql(SQL_QUERY).unwrap();
    assert_eq!(encode_rows(&remote_sql), encode_rows(&local_sql), "SQL bytes must match");
    // EXPLAIN travels too.
    let plan = client.explain("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c").unwrap();
    assert_eq!(plan, reference.explain("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c").unwrap());

    server.shutdown().unwrap();
}

#[test]
fn four_concurrent_clients_get_the_papers_answer() {
    let db = Arc::new(embedded_reference());
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let expected = encode_rows(&db.query(RECOMMENDATION).unwrap());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                for _ in 0..5 {
                    let rows = client.query(RECOMMENDATION).unwrap();
                    assert_eq!(rows, vec![Value::str("2724f"), Value::str("3424g")]);
                    assert_eq!(encode_rows(&rows), expected, "byte-identical to embedded");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(server.metrics().command("query").count.load(std::sync::atomic::Ordering::Relaxed) >= 20);
    server.shutdown().unwrap();
}

#[test]
fn multi_statement_transaction_over_the_wire() {
    let db = Arc::new(embedded_reference());
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut txn_client = Client::connect(&addr).unwrap();
    let mut observer = Client::connect(&addr).unwrap();

    // Anne places an order: order document + cart entry + credit update,
    // one atomic unit (the paper's Workload-C shape).
    let txn_id = txn_client.begin(false).unwrap();
    assert!(txn_id > 0);
    txn_client
        .insert_document(
            "orders",
            mmdb::from_json(
                r#"{"_key":"new1","orderlines":[{"product_no":"2724f","price":66}],"total":66}"#,
            )
            .unwrap(),
        )
        .unwrap();
    txn_client.kv_put("cart", "3", Value::str("new1")).unwrap();
    let mut anne = txn_client.get_row("customers", Value::int(3)).unwrap().unwrap();
    let credit = anne.get_field("credit_limit").as_int().unwrap();
    anne.as_object_mut().unwrap().insert("credit_limit", Value::int(credit - 66));
    txn_client.update_row("customers", anne).unwrap();

    // Read-your-writes inside the transaction...
    let staged = txn_client.get_document("orders", "new1").unwrap().unwrap();
    assert_eq!(staged.get_field("total"), &Value::int(66));
    // ...but invisible to another connection until commit.
    assert!(observer.get_document("orders", "new1").unwrap().is_none());
    assert!(observer.kv_get("cart", "3").unwrap().is_none());

    let commit_ts = txn_client.commit().unwrap();
    assert!(commit_ts > 0);
    assert!(observer.get_document("orders", "new1").unwrap().is_some());
    assert_eq!(observer.kv_get("cart", "3").unwrap(), Some(Value::str("new1")));

    // The embedded engine, given the same transaction, agrees byte-for-byte.
    let reference = embedded_reference();
    reference
        .transact(mmdb::substrate::txn::IsolationLevel::Snapshot, 3, |s| {
            s.insert_document(
                "orders",
                mmdb::from_json(
                    r#"{"_key":"new1","orderlines":[{"product_no":"2724f","price":66}],"total":66}"#,
                )
                .unwrap(),
            )?;
            s.kv_put("cart", "3", Value::str("new1"))?;
            let mut anne = s.get_row("customers", &Value::int(3))?.unwrap();
            let credit = anne.get_field("credit_limit").as_int()?;
            anne.as_object_mut()?.insert("credit_limit", Value::int(credit - 66));
            s.update_row("customers", anne)
        })
        .unwrap();
    // Spatial indexes have no wire DDL: built embedded on both sides, then
    // queried through the connection (which holds its session lock across
    // the call — the one nesting no other suite drives over the wire).
    for side in [&*db, &reference] {
        side.create_spatial_index("shops").unwrap();
        side.spatial_insert("shops", 1.0, 2.0, Value::str("toyshop")).unwrap();
    }
    for q in [
        RECOMMENDATION,
        "FOR c IN customers SORT c.id RETURN c.credit_limit",
        "FOR o IN orders SORT o._key RETURN o._key",
        r#"RETURN GEO_WITHIN("shops", 0, 0, 5, 5)"#,
    ] {
        let remote = observer.query(q).unwrap();
        let local = reference.query(q).unwrap();
        assert_eq!(encode_rows(&remote), encode_rows(&local), "query {q} must match");
    }

    // An aborted transaction leaves no trace.
    txn_client.begin(false).unwrap();
    txn_client.kv_put("cart", "9", Value::str("ghost")).unwrap();
    txn_client.abort().unwrap();
    assert!(observer.kv_get("cart", "9").unwrap().is_none());

    // Transaction misuse is reported with the engine's error kinds.
    let err = txn_client.commit().unwrap_err();
    assert_eq!(err.kind(), "txn_closed");
    txn_client.begin(false).unwrap();
    let err = txn_client.begin(false).unwrap_err();
    assert_eq!(err.kind(), "txn_closed");
    txn_client.abort().unwrap();

    server.shutdown().unwrap();
}

#[test]
fn admin_stats_reports_request_counts_and_latencies() {
    let db = Arc::new(embedded_reference());
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..10 {
        client.query(RECOMMENDATION).unwrap();
    }
    client.ping().unwrap();
    let _ = client.query("FOR x IN nonexistent RETURN x");

    let stats = client.admin_stats().unwrap();
    let requests = stats.get_field("requests");
    assert!(requests.get_field("total").as_int().unwrap() >= 12);
    assert!(requests.get_field("errors").as_int().unwrap() >= 1);
    assert_eq!(
        stats.get_field("connections").get_field("accepted").as_int().unwrap(),
        1
    );
    let commands = stats.get_field("commands").as_array().unwrap();
    let query_stats = commands
        .iter()
        .find(|c| c.get_field("command") == &Value::str("query"))
        .expect("query command tracked");
    assert_eq!(query_stats.get_field("count").as_int().unwrap(), 11);
    assert_eq!(query_stats.get_field("errors").as_int().unwrap(), 1);
    for pct in ["p50_us", "p95_us", "p99_us"] {
        assert!(
            query_stats.get_field(pct).as_int().unwrap() > 0,
            "{pct} must be nonzero"
        );
    }
    assert!(
        query_stats.get_field("p50_us").as_int().unwrap()
            <= query_stats.get_field("p99_us").as_int().unwrap()
    );
    // Engine counters ride along.
    assert!(stats.get_field("engine").get_field("commits").as_int().is_ok());

    server.shutdown().unwrap();
}

#[test]
fn pool_reuses_connections_across_threads() {
    let db = Arc::new(embedded_reference());
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let pool = Pool::new(addr, PoolConfig { max_size: 2, ..PoolConfig::default() });
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                for _ in 0..3 {
                    let mut conn = pool.get().unwrap();
                    let rows = conn.query(RECOMMENDATION).unwrap();
                    assert_eq!(rows.len(), 2);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(pool.open_connections() <= 2, "pool never exceeds max_size");
    server.shutdown().unwrap();
}
