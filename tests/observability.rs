//! End-to-end query observability: EXPLAIN ANALYZE over the wire, the
//! slow-query log, and the expanded `ADMIN STATS` counters.
//!
//! The paper's position is that a multi-model engine must remain
//! *inspectable* — one engine, many models, still one place to ask
//! "what did my query actually do". These tests drive the whole stack:
//! client → wire protocol → server → traced executor → stats render.

use std::sync::Arc;
use std::time::Duration;

use mmdb::paper::RECOMMENDATION;
use mmdb::{Database, Value};
use mmdb_client::Client;
use mmdb_server::{Server, ServerConfig};

/// The paper's running example with its customers as documents, loaded
/// through the embedded API.
fn paper_db() -> Database {
    let db = Database::in_memory();
    db.create_collection("customers").unwrap();
    for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
        db.insert_json(
            "customers",
            &format!(r#"{{"_key":"{id}","id":{id},"name":"{name}","credit_limit":{limit}}}"#),
        )
        .unwrap();
    }
    db.create_graph("social").unwrap();
    db.create_vertex_collection("social", "persons").unwrap();
    db.create_edge_collection("social", "knows").unwrap();
    db.transact(mmdb_txn::IsolationLevel::Snapshot, 3, |s| {
        for id in 1..=3 {
            s.add_vertex("social", "persons", mmdb::from_json(&format!(r#"{{"_key":"{id}"}}"#))?)?;
        }
        s.add_edge("social", "knows", "persons/1", "persons/2", mmdb::from_json("{}")?)
    })
    .unwrap();
    db.create_bucket("cart").unwrap();
    db.kv_put("cart", "2", Value::str("0c6df508")).unwrap();
    db.create_collection("orders").unwrap();
    db.insert_json(
        "orders",
        r#"{"_key":"0c6df508","orderlines":[
            {"product_no":"2724f","price":66},{"product_no":"3424g","price":40}]}"#,
    )
    .unwrap();
    db
}

fn start(config: ServerConfig) -> (Arc<Database>, Server, String) {
    let db = Arc::new(paper_db());
    let server = Server::start(Arc::clone(&db), config).unwrap();
    let addr = server.local_addr().to_string();
    (db, server, addr)
}

#[test]
fn explain_analyze_reports_rows_timings_and_access_paths() {
    let (db, server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    let report = client.explain_analyze(RECOMMENDATION).unwrap();
    // Every operator line carries actual row counts and a timing; the
    // customer scan reports its access path.
    assert!(report.contains("rows:"), "{report}");
    assert!(report.contains("time:"), "{report}");
    assert!(report.contains("full scan (collection 'customers')"), "{report}");
    assert!(report.contains("rows returned: 2"), "{report}");
    assert!(report.contains("Traverse"), "{report}");

    // After an index on the filtered field appears, the same query's
    // access path flips from a full collection scan to the named index.
    db.create_index("customers", "credit_limit").unwrap();
    let report = client.explain_analyze(RECOMMENDATION).unwrap();
    assert!(report.contains("index 'credit_limit'"), "{report}");
    assert!(!report.contains("full scan (collection 'customers')"), "{report}");
    assert!(report.contains("rows returned: 2"), "{report}");

    // Plain EXPLAIN still answers and does not carry runtime numbers.
    let plan = client.explain(RECOMMENDATION).unwrap();
    assert!(!plan.contains("time:"), "{plan}");

    server.shutdown().unwrap();
}

/// Q4-naive of `benchmark/src/data.rs`.
const Q4_NAIVE: &str = "FOR c IN customers \
     LET total = SUM((FOR o IN orders FILTER o.customer_id == c.id RETURN o.total)) \
     RETURN {name: c.name, total: total}";

#[test]
fn explain_analyze_shows_the_hash_join_and_its_single_build() {
    let (db, server, addr) = start(ServerConfig::default());
    for (i, cid) in [1, 1, 2, 1, 9].into_iter().enumerate() {
        db.insert_json("orders", &format!(r#"{{"_key":"o{i}","customer_id":{cid},"total":10}}"#))
            .unwrap();
    }
    let mut client = Client::connect(&addr).unwrap();

    let plan = client.explain(Q4_NAIVE).unwrap();
    assert!(plan.contains("└ HashJoin o IN orders ON o.customer_id == c.id"), "{plan}");

    // 3 customers probe one build over all 6 orders: one scan of each
    // store, however many customers there are.
    let scans_before = db.world().access.full_scans();
    let report = client.explain_analyze(Q4_NAIVE).unwrap();
    assert_eq!(db.world().access.full_scans() - scans_before, 2, "{report}");
    let join = report
        .lines()
        .find(|l| l.contains("HashJoin o IN orders ON o.customer_id == c.id"))
        .unwrap_or_else(|| panic!("no HashJoin line in {report}"));
    assert!(join.starts_with("└ "), "spliced under the LET that evaluates it: {report}");
    assert!(join.contains("[hash build: 6 rows once, 3 probes]"), "{report}");
    assert!(join.contains("rows: 3 -> 4"), "{report}");
    assert_eq!(
        client.query(Q4_NAIVE).unwrap(),
        vec![
            mmdb::from_json(r#"{"name":"Mary","total":30}"#).unwrap(),
            mmdb::from_json(r#"{"name":"John","total":10}"#).unwrap(),
            mmdb::from_json(r#"{"name":"Anne","total":0}"#).unwrap(),
        ]
    );

    server.shutdown().unwrap();
}

#[test]
fn slow_query_log_records_queries_over_the_threshold() {
    // Threshold zero: every query is "slow", so the log fills.
    let config =
        ServerConfig { slow_query_threshold: Duration::ZERO, ..ServerConfig::default() };
    let (_db, server, addr) = start(config);
    let mut client = Client::connect(&addr).unwrap();

    let log = client.admin_slowlog().unwrap();
    assert_eq!(log, Value::Array(vec![]), "log starts empty");

    client.query(RECOMMENDATION).unwrap();
    client.query("FOR x IN no_such_source RETURN x").unwrap_err();
    // ^ errors must NOT land in the slow-query log, only completed
    //   executions do.
    let log = client.admin_slowlog().unwrap();
    let entries = log.as_array().unwrap();
    assert_eq!(entries.len(), 1, "{log:?}");
    let entry = &entries[0];
    assert_eq!(entry.get_field("kind"), &Value::str("mmql"));
    assert_eq!(entry.get_field("query"), &Value::str(RECOMMENDATION));
    assert_eq!(entry.get_field("rows"), &Value::int(2));
    assert!(entry.get_field("total_us").as_int().unwrap() >= 0);
    let ops = entry.get_field("ops").as_array().unwrap();
    assert!(!ops.is_empty(), "per-operator breakdown present");
    assert!(ops.iter().all(|op| op.get_field("elapsed_us").as_int().is_ok()));

    server.shutdown().unwrap();
}

#[test]
fn fast_queries_stay_out_of_the_slow_query_log() {
    // The default threshold (hundreds of ms) is far above these queries.
    let (_db, server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..5 {
        client.query(RECOMMENDATION).unwrap();
    }
    let log = client.admin_slowlog().unwrap();
    assert_eq!(log, Value::Array(vec![]));
    server.shutdown().unwrap();
}

#[test]
fn admin_stats_reports_access_paths_and_model_ops() {
    let (db, server, addr) = start(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    // Typed ops across three models.
    client
        .insert_document("orders", mmdb::from_json(r#"{"_key":"x1","total":1}"#).unwrap())
        .unwrap();
    client.kv_put("cart", "9", Value::str("x1")).unwrap();
    client.kv_get("cart", "9").unwrap();
    client.rdf_insert("mary", "knows", Value::str("john")).unwrap();

    // A query whose FOR runs as a full collection scan...
    client.query("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c._key").unwrap();
    // ...and RDF lookups: one indexed (bound subject), one full scan.
    client.query("RETURN TRIPLES(\"mary\", NULL, NULL)").unwrap();
    client.query("RETURN TRIPLES(NULL, NULL, NULL)").unwrap();

    let stats = client.admin_stats().unwrap();
    let models = stats.get_field("model_ops");
    assert_eq!(models.get_field("document").as_int().unwrap(), 1);
    assert_eq!(models.get_field("kv").as_int().unwrap(), 2);
    assert_eq!(models.get_field("rdf").as_int().unwrap(), 1);
    assert_eq!(models.get_field("relational").as_int().unwrap(), 0);

    let paths = stats.get_field("access_paths");
    assert!(paths.get_field("full_scans").as_int().unwrap() >= 1, "{paths:?}");
    assert_eq!(paths.get_field("index_scans").as_int().unwrap(), 0);
    assert!(paths.get_field("rdf_indexed").as_int().unwrap() >= 1, "{paths:?}");
    assert!(paths.get_field("rdf_scans").as_int().unwrap() >= 1, "{paths:?}");

    // With an index, re-running the query bumps the index-scan counter.
    db.create_index("customers", "credit_limit").unwrap();
    client.query("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c._key").unwrap();
    let stats = client.admin_stats().unwrap();
    let paths = stats.get_field("access_paths");
    assert!(paths.get_field("index_scans").as_int().unwrap() >= 1, "{paths:?}");

    server.shutdown().unwrap();
}

#[test]
fn slowlog_ring_capacity_is_configurable_and_resettable() {
    let config = ServerConfig {
        slow_query_threshold: Duration::ZERO,
        slow_query_log_size: 2,
        ..ServerConfig::default()
    };
    let (_db, server, addr) = start(config);
    let mut client = Client::connect(&addr).unwrap();

    // Three slow queries into a 2-entry ring: the oldest is evicted.
    client.query("RETURN 1").unwrap();
    client.query("RETURN 2").unwrap();
    client.query("RETURN 3").unwrap();
    let log = client.admin_slowlog().unwrap();
    let entries = log.as_array().unwrap();
    assert_eq!(entries.len(), 2, "{log:?}");
    assert_eq!(entries[0].get_field("query"), &Value::str("RETURN 2"));
    assert_eq!(entries[1].get_field("query"), &Value::str("RETURN 3"));

    // SLOWLOG RESET reports how many entries it discarded...
    let reply = client.admin_slowlog_reset().unwrap();
    assert_eq!(reply.get_field("dropped"), &Value::int(2));
    assert_eq!(client.admin_slowlog().unwrap(), Value::Array(vec![]));

    // ...and recording continues afterwards.
    client.query("RETURN 4").unwrap();
    assert_eq!(client.admin_slowlog().unwrap().as_array().unwrap().len(), 1);

    server.shutdown().unwrap();
}

#[test]
fn slowlog_size_zero_disables_recording() {
    let config = ServerConfig {
        slow_query_threshold: Duration::ZERO,
        slow_query_log_size: 0,
        ..ServerConfig::default()
    };
    let (_db, server, addr) = start(config);
    let mut client = Client::connect(&addr).unwrap();

    client.query("RETURN 1").unwrap();
    assert_eq!(client.admin_slowlog().unwrap(), Value::Array(vec![]));
    assert_eq!(client.admin_slowlog_reset().unwrap().get_field("dropped"), &Value::int(0));

    server.shutdown().unwrap();
}

/// EXPLAIN ANALYZE's operator lines of `text`, each split into the
/// operator's text, its `[…]` annotation stripped, and its rows in/out.
fn analyzed(db: &Database, text: &str) -> Vec<(String, String)> {
    let report = db.explain_analyze(text).unwrap();
    report
        .lines()
        .filter(|l| !l.starts_with("total: "))
        .map(|l| {
            let (op, counts) = l.split_once("  rows: ").unwrap_or_else(|| panic!("no rows in {l:?}"));
            let op = match op.rfind("  [") {
                Some(i) if op.ends_with(']') => &op[..i],
                _ => op,
            };
            let rows = counts.split("  time: ").next().unwrap_or_default();
            (op.to_string(), rows.to_string())
        })
        .collect()
}

#[test]
fn explain_analyze_prints_explains_lines_in_explains_order() {
    let db = paper_db();
    for (i, cid) in [1, 1, 2, 1, 9].into_iter().enumerate() {
        db.insert_json("orders", &format!(r#"{{"_key":"o{i}","customer_id":{cid},"total":10}}"#))
            .unwrap();
    }
    db.create_collection("cs").unwrap();
    for i in 1..=3 {
        db.insert_json("cs", &format!(r#"{{"_key":"{i}"}}"#)).unwrap();
    }
    let nested = "FOR c IN cs LET a = (FOR x IN [1,2] LET b = (FOR y IN [x] RETURN y) RETURN b) RETURN a";
    let twins = "FOR c IN cs RETURN [(FOR x IN [1] RETURN x), (FOR x IN [1] RETURN x)]";
    let any = r#"FOR friend IN 1..2 ANY "persons/1" knows
                   LET order = DOC("orders", KV_GET("cart", friend._key)) FILTER order != NULL
                   FOR line IN order.orderlines RETURN DISTINCT line.product_no"#;
    for text in [nested, twins, RECOMMENDATION, Q4_NAIVE, any] {
        let plan = db.explain(text).unwrap();
        let ops: Vec<String> = analyzed(&db, text).into_iter().map(|(op, _)| op).collect();
        assert_eq!(ops, plan.lines().collect::<Vec<_>>(), "{text}\n{}", db.explain_analyze(text).unwrap());
    }
    // Two subqueries of the same text are two operators, each run once per
    // document of `cs`.
    let loops: Vec<String> =
        analyzed(&db, twins).into_iter().filter(|(op, _)| op == "└ For x IN [1]").map(|(_, rows)| rows).collect();
    assert_eq!(loops, ["3 -> 3", "3 -> 3"]);
}

/// Q4-grouped of `benchmark/src/data.rs`.
const Q4_GROUPED: &str = "LET totals = (FOR o IN orders \
     COLLECT cid = o.customer_id AGGREGATE t = SUM(o.total) RETURN {cid: cid, t: t}) \
     FOR c IN customers LET hit = (FOR x IN totals FILTER x.cid == c.id RETURN x.t) \
     RETURN {name: c.name, total: LENGTH(hit) > 0 ? hit[0] : 0}";

/// EXPLAIN ANALYZE's text of `text` with every time masked as `_`.
fn analyzed_untimed(db: &Database, text: &str) -> String {
    let report = db.explain_analyze(text).unwrap();
    let lines: Vec<String> = report
        .lines()
        .map(|l| match (l.split_once("time: "), l.split_once("  rows returned: ")) {
            (Some((head, _)), _) => format!("{head}time: _"),
            (None, Some((_, rows))) => format!("total: _  rows returned: {rows}"),
            (None, None) => panic!("no time in {l:?}"),
        })
        .collect();
    lines.join("\n")
}

/// The whole profile of both Q4 forms, and of Q4-grouped with a range
/// instead of its equality (no hash join: a `For` over the bound
/// `totals`, once per customer), times masked. Each operator's access
/// path is worked out once, after the run, from what the run left: the
/// hash join's final build and probe counts, and whether a `For` over a
/// name read a bound variable or scanned a store.
#[test]
fn explain_analyze_prints_both_q4_forms_exactly() {
    let db = paper_db();
    for (i, cid) in [1, 1, 2, 1, 9].into_iter().enumerate() {
        db.insert_json("orders", &format!(r#"{{"_key":"o{i}","customer_id":{cid},"total":10}}"#))
            .unwrap();
    }
    let customers = "For c IN customers project(id, name)  [full scan (collection 'customers')]  rows: 1 -> 3  time: _";
    let grouped = "Let totals  rows: 1 -> 1  time: _
└ For o IN orders project(customer_id, total)  [full scan (collection 'orders')]  rows: 1 -> 6  time: _
└ Collect key=cid aggs=1  rows: 6 -> 4  time: _
└ Return  rows: 4 -> 4  time: _";
    let end = "Return  rows: 3 -> 3  time: _
total: _  rows returned: 3";
    assert_eq!(
        analyzed_untimed(&db, Q4_NAIVE),
        format!(
            "{customers}
Let total  rows: 3 -> 3  time: _
└ HashJoin o IN orders ON o.customer_id == c.id project(customer_id, total)  [hash build: 6 rows once, 3 probes]  rows: 3 -> 4  time: _
└ Return  rows: 4 -> 4  time: _
{end}"
        )
    );
    assert_eq!(
        analyzed_untimed(&db, Q4_GROUPED),
        format!(
            "{grouped}
{customers}
Let hit  rows: 3 -> 3  time: _
└ HashJoin x IN totals ON x.cid == c.id  [hash build: 4 rows once, 3 probes]  rows: 3 -> 2  time: _
└ Return  rows: 2 -> 2  time: _
{end}"
        )
    );
    assert_eq!(
        analyzed_untimed(&db, &Q4_GROUPED.replace("x.cid == c.id", "x.cid >= c.id")),
        format!(
            "{grouped}
{customers}
Let hit  rows: 3 -> 3  time: _
└ For x IN totals  [bound variable 'totals']  rows: 3 -> 12  time: _
└ Filter  rows: 12 -> 6  time: _
└ Return  rows: 6 -> 6  time: _
{end}"
        )
    );
}
