//! Integration test: one WAL, all models — crash recovery of cross-model
//! transactions, torn-tail handling, checkpoint behaviour, and model
//! stores that follow the version store through loads and raw writes.

use mmdb::{Database, Value};
use mmdb_txn::IsolationLevel;
use proptest::prelude::*;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mmdb-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn committed_cross_model_transactions_survive_reopen() {
    let dir = tmpdir("commit");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("orders").unwrap();
        db.create_bucket("cart").unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.insert_document(
                "orders",
                mmdb::from_json(r#"{"_key":"o1","total":66}"#).unwrap(),
            )?;
            s.kv_put("cart", "1", Value::str("o1"))
        })
        .unwrap();
        // A second, separate transaction.
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.insert_document("orders", mmdb::from_json(r#"{"_key":"o2","total":5}"#).unwrap())
                .map(|_| ())
        })
        .unwrap();
    } // drop = crash (no clean shutdown step exists, which is the point)
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(
            db.get_document("orders", "o1").unwrap().unwrap().get_field("total"),
            &Value::int(66)
        );
        assert!(db.get_document("orders", "o2").unwrap().is_some());
        assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("o1")));
        // The recovered state is queryable.
        let totals = db.query("FOR o IN orders SORT o.total RETURN o.total").unwrap();
        assert_eq!(totals, vec![Value::int(5), Value::int(66)]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncommitted_transactions_do_not_survive() {
    let dir = tmpdir("abort");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("orders").unwrap();
        let mut s = db.begin(IsolationLevel::Snapshot);
        s.insert_document("orders", mmdb::from_json(r#"{"_key":"ghost"}"#).unwrap()).unwrap();
        // Neither commit nor abort: the process "crashes" with the txn open.
        std::mem::forget(s);
    }
    {
        let db = Database::open(&dir).unwrap();
        // The collection's definition was committed, the document never
        // was: the collection comes back empty.
        assert!(db.get_document("orders", "ghost").unwrap().is_none());
        assert_eq!(db.query("FOR o IN orders RETURN o").unwrap(), Vec::<Value>::new());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_tolerated() {
    let dir = tmpdir("torn");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("c").unwrap();
        db.insert_json("c", r#"{"_key":"good","v":1}"#).unwrap();
    }
    // Append garbage to simulate a torn final record.
    let wal_path = dir.join("mmdb.wal");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal_path).unwrap();
        f.write_all(&[0x55, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE]).unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        assert!(db.get_document("c", "good").unwrap().is_some(), "prefix recovered");
        // Open truncated the corrupt tail, so new appends extend the valid
        // prefix and survive the *next* recovery too.
        db.insert_json("c", r#"{"_key":"after","v":2}"#).unwrap();
        assert!(db.get_document("c", "after").unwrap().is_some());
    }
    {
        let db = Database::open(&dir).unwrap();
        assert!(db.get_document("c", "good").unwrap().is_some());
        assert!(
            db.get_document("c", "after").unwrap().is_some(),
            "appends after a truncated torn tail must survive recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graph_and_rdf_domains_recover() {
    let dir = tmpdir("graph-rdf");
    {
        let db = Database::open(&dir).unwrap();
        db.create_graph("social").unwrap();
        db.create_vertex_collection("social", "persons").unwrap();
        db.create_edge_collection("social", "knows").unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_vertex("social", "persons", mmdb::from_json(r#"{"_key":"1","name":"Mary"}"#).unwrap())?;
            s.add_vertex("social", "persons", mmdb::from_json(r#"{"_key":"2","name":"John"}"#).unwrap())?;
            s.add_edge("social", "knows", "persons/1", "persons/2", mmdb::from_json("{}").unwrap())?;
            s.rdf_insert("mary", "likes", Value::str("toys"))
        })
        .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        // Graphs are schemaless: recovery recreated them from the WAL.
        let friends = db
            .query(r#"FOR v IN 1..1 OUTBOUND "persons/1" knows RETURN v.name"#)
            .unwrap();
        assert_eq!(friends, vec![Value::str("John")]);
        let likes = db
            .query(r#"FOR t IN TRIPLES("mary", "likes", NULL) RETURN t.o"#)
            .unwrap();
        assert_eq!(likes, vec![Value::str("toys")]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// 64 KiB of text that says which generation of writes made it.
fn big_text(generation: u8) -> Value {
    Value::str(((b'a' + generation) as char).to_string().repeat(64 * 1024))
}

/// Create a collection, a table, a graph and, through one `Session`,
/// commit generation 0 of a document, a row, a vertex and an edge that
/// each carry 64 KiB.
fn create_big_values(db: &Database) {
    use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
    db.create_collection("blobs").unwrap();
    let columns = vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("body", DataType::Text)];
    db.create_table("wide", Schema::new(columns, "id").unwrap()).unwrap();
    db.create_graph("g").unwrap();
    db.create_vertex_collection("g", "nodes").unwrap();
    db.create_edge_collection("g", "links").unwrap();
    let mut s = db.begin(IsolationLevel::Snapshot);
    s.insert_document("blobs", Value::object([("_key", Value::str("big")), ("blob", big_text(0))]))
        .unwrap();
    s.insert_row("wide", Value::object([("id", Value::int(1)), ("body", big_text(0))])).unwrap();
    s.add_vertex("g", "nodes", Value::object([("_key", Value::str("a"))])).unwrap();
    s.add_vertex("g", "nodes", Value::object([("_key", Value::str("big")), ("blob", big_text(0))]))
        .unwrap();
    let edge = Value::object([("_key", Value::str("e0")), ("blob", big_text(0))]);
    s.add_edge("g", "links", "nodes/a", "nodes/big", edge).unwrap();
    s.commit().unwrap();
}

/// Through one `Session`, replace the big document, row and vertex with
/// `generation`'s text and add edge `e<generation>` beside the earlier
/// ones (an edge key is never re-added).
fn rewrite_big_values(db: &Database, generation: u8) {
    let mut s = db.begin(IsolationLevel::Snapshot);
    let doc = Value::object([("_key", Value::str("big")), ("blob", big_text(generation))]);
    s.update_document("blobs", "big", doc).unwrap();
    s.update_row("wide", Value::object([("id", Value::int(1)), ("body", big_text(generation))]))
        .unwrap();
    let vertex = Value::object([("_key", Value::str("big")), ("blob", big_text(generation))]);
    s.add_vertex("g", "nodes", vertex).unwrap();
    let key = format!("e{generation}");
    let edge = Value::object([("_key", Value::str(key)), ("blob", big_text(generation))]);
    s.add_edge("g", "links", "nodes/a", "nodes/big", edge).unwrap();
    s.commit().unwrap();
}

/// The engine is not latched, and every view answers with `generation`'s
/// big values: point reads through a `Session` and the model stores, and
/// one MMQL query over the collection, the table and a traversal of the
/// edges (MMQL binds vertices, not edges, so an edge's body is read
/// through the graph).
fn assert_big_values(db: &Database, generation: u8) {
    assert!(!db.is_degraded(), "{:?}", db.degraded_reason());
    assert_eq!(db.hook_failure(), None);
    let text = big_text(generation);
    let s = db.begin(IsolationLevel::Snapshot);
    let doc = s.get_document("blobs", "big").unwrap().unwrap();
    assert_eq!(doc.get_field("blob"), &text);
    let row = s.get_row("wide", &Value::int(1)).unwrap().unwrap();
    assert_eq!(row.get_field("body"), &text);
    s.abort();
    assert_eq!(db.get_document("blobs", "big").unwrap().unwrap().get_field("blob"), &text);
    let graph = db.world().catalog.graph("g").unwrap();
    assert_eq!(graph.vertex("nodes/big").unwrap().unwrap().get_field("blob"), &text);
    for g in 0..=generation {
        let edge = graph.edge(&format!("links/e{g}")).unwrap().unwrap();
        assert_eq!(edge.get_field("blob"), &big_text(g), "edge e{g}");
    }
    let rows = db
        .query(
            r#"FOR d IN blobs FOR r IN wide FOR v IN 1..1 OUTBOUND "nodes/a" links
               RETURN [d.blob, r.body, v.blob]"#,
        )
        .unwrap();
    assert_eq!(rows, vec![Value::Array(vec![text.clone(), text.clone(), text])]);
}

/// A record larger than any page: a committed value of 64 KiB in every
/// model that keeps records is applied, queried, replayed after a reopen
/// and folded by a checkpoint, and the engine stays writable throughout.
#[test]
fn values_of_64_kib_survive_reopen_and_checkpoint_in_every_model() {
    let dir = tmpdir("big-values");
    {
        let db = Database::open(&dir).unwrap();
        create_big_values(&db);
        assert_big_values(&db, 0);
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_big_values(&db, 0);
        rewrite_big_values(&db, 1);
        assert_big_values(&db, 1);
        db.checkpoint().unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_big_values(&db, 1);
        rewrite_big_values(&db, 2);
        assert_big_values(&db, 2);
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_big_values(&db, 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn updates_and_deletes_recover_in_order() {
    let dir = tmpdir("order");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("c").unwrap();
        db.create_bucket("kv").unwrap();
        db.insert_json("c", r#"{"_key":"k","v":1}"#).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.update_document("c", "k", mmdb::from_json(r#"{"v":2}"#).unwrap())
        })
        .unwrap();
        db.kv_put("kv", "x", Value::int(1)).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| s.kv_delete("kv", "x")).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.update_document("c", "k", mmdb::from_json(r#"{"v":3}"#).unwrap())
        })
        .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(
            db.get_document("c", "k").unwrap().unwrap().get_field("v"),
            &Value::int(3),
            "last committed update wins"
        );
        assert_eq!(db.kv().get("kv", "x").unwrap(), None, "delete recovered");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every model's committed state, each scan sorted so that insertion
/// order does not show, serialized so comparisons are byte-identical.
fn fold_probes(db: &Database) -> String {
    let mut out: Vec<Value> = [
        "FOR o IN orders SORT o._key RETURN o",
        r#"FOR p IN 1..1 OUTBOUND "persons/1" knows SORT p._key RETURN p"#,
        r#"FOR p IN 1..1 OUTBOUND "persons/2" knows SORT p._key RETURN p"#,
        r#"FOR p IN 1..1 INBOUND "persons/3" knows SORT p._key RETURN p"#,
        "FOR t IN TRIPLES(NULL, NULL, NULL) SORT t.s, t.p, t.o RETURN [t.s, t.p, t.o]",
    ]
    .iter()
    .map(|q| Value::Array(db.query(q).unwrap()))
    .collect();
    out.push(Value::Array(
        db.query_sql("SELECT id, name, credit_limit FROM customers ORDER BY id").unwrap(),
    ));
    for key in ["1", "2", "3"] {
        out.push(db.kv().get("cart", key).unwrap().unwrap_or(Value::Null));
    }
    mmdb::to_json(&Value::Array(out))
}

/// A history that overwrites a document, a row, a key and a vertex,
/// deletes and re-inserts a document, deletes a key, removes an edge and
/// inserts then removes a triple.
fn rewrite_history(db: &Database) {
    use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
    let json = |s: &str| mmdb::from_json(s).unwrap();
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
    db.create_collection("orders").unwrap();
    db.create_bucket("cart").unwrap();
    db.create_graph("social").unwrap();
    db.create_vertex_collection("social", "persons").unwrap();
    db.create_edge_collection("social", "knows").unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for (id, name) in [(1, "Mary"), (2, "John"), (3, "Anne")] {
            let row = format!(r#"{{"id":{id},"name":"{name}","credit_limit":1000}}"#);
            s.insert_row("customers", json(&row))?;
            s.add_vertex("social", "persons", json(&format!(r#"{{"_key":"{id}","v":0}}"#)))?;
            s.insert_document("orders", json(&format!(r#"{{"_key":"o{id}","total":{id}}}"#)))?;
            s.kv_put("cart", &id.to_string(), Value::str(format!("o{id}")))?;
        }
        s.add_edge("social", "knows", "persons/1", "persons/2", json(r#"{"_key":"gone"}"#))?;
        s.add_edge("social", "knows", "persons/1", "persons/3", json("{}"))?;
        s.add_edge("social", "knows", "persons/2", "persons/3", json("{}"))?;
        s.rdf_insert("mary", "likes", Value::str("toys"))?;
        s.rdf_insert("mary", "likes", Value::str("books"))
    })
    .unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        s.update_document("orders", "o1", json(r#"{"total":10}"#))?;
        s.update_row("customers", json(r#"{"id":2,"name":"John","credit_limit":2500}"#))?;
        s.kv_put("cart", "1", Value::str("o1-v2"))?;
        s.kv_delete("cart", "3")?;
        s.add_vertex("social", "persons", json(r#"{"_key":"2","v":1}"#))?;
        s.remove_document("orders", "o2")?;
        s.rdf_remove("mary", "likes", &Value::str("toys"))
    })
    .unwrap();
    // Edge removal has no session call; the raw transaction takes the
    // same road through the log and the commit hook.
    let mut t = db.mvcc().begin(IsolationLevel::Snapshot);
    t.delete("graph/social/e/knows", b"gone").unwrap();
    t.commit().unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        s.insert_document("orders", json(r#"{"_key":"o2","total":22}"#))?;
        s.update_document("orders", "o1", json(r#"{"total":11}"#))?;
        s.kv_put("cart", "1", Value::str("o1-v3"))
    })
    .unwrap();
}

#[test]
fn folded_replay_matches_live_and_snapshot_state() {
    use mmdb::substrate::storage::wal::{records, BlockAssembler, Wal};
    use mmdb::substrate::txn::{MvccStore, WriteSet};
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    let dir = tmpdir("fold");
    let live = {
        let db = Database::open(&dir).unwrap();
        rewrite_history(&db);
        fold_probes(&db)
    };

    // What the commit hook sees on replay: every live key once, no
    // tombstone — although the log holds overwrites and deletes.
    let (wal, state) = Wal::recover(dir.join("mmdb.wal")).unwrap();
    let mut blocks = BlockAssembler::default();
    let bytes = wal.snapshot_bytes().unwrap();
    let released = records(&bytes, 0).filter_map(|t| blocks.push(t.record, t.next_lsn));
    let logged: usize = released.map(|block| block.writes.len()).sum();
    drop(wal);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let store = MvccStore::new(None);
    let hook = Arc::clone(&seen);
    store.add_commit_hook(move |ws| {
        hook.lock()
            .unwrap()
            .extend(ws.iter().map(|w| (w.domain.clone(), w.key.clone(), w.value.is_some())));
    });
    let installed = store.load(WriteSet::decode(state).unwrap(), 0);
    let seen = seen.lock().unwrap();
    assert!(seen.iter().all(|(_, _, live)| *live), "a tombstone reached the hook");
    let distinct: HashSet<_> = seen.iter().map(|(d, k, _)| (d, k)).collect();
    assert_eq!(distinct.len(), seen.len(), "the hook saw a key twice");
    assert_eq!(installed, seen.len());
    assert!(logged > installed, "the history folds");

    // Reopened from the log: the live answers, byte for byte.
    let db = Database::open(&dir).unwrap();
    assert_eq!(fold_probes(&db), live, "log replay diverged from the live database");
    db.checkpoint().unwrap();
    drop(db);
    // Reopened from the checkpointed log, its image block first: the
    // same answers.
    let db = Database::open(&dir).unwrap();
    assert_eq!(fold_probes(&db), live, "checkpointed reopen diverged from the live database");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_paper_data_set_survives_reopen() {
    let dir = tmpdir("paper");
    let before = {
        let db = Database::open(&dir).unwrap();
        mmdb::paper::load(&db).unwrap();
        db.query(mmdb::paper::RECOMMENDATION).unwrap()
    };
    assert_eq!(before, vec![Value::str("2724f"), Value::str("3424g")]);
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.query(mmdb::paper::RECOMMENDATION).unwrap(), before);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_migration_survives_reopen() {
    use mmdb::core::evolution;
    use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
    const QUERIES: [&str; 4] = [
        "FOR c IN cust_docs SORT c._key RETURN [c._key, c.name, c.credit_limit]",
        "FOR r IN customers2 SORT r.id RETURN [r.id, r.name, r.credit_limit]",
        r#"FOR f IN 1..2 OUTBOUND "people_vertices/1" knows_edges SORT f._depth RETURN f.name"#,
        "FOR t IN TRIPLES(NULL, NULL, NULL) SORT t.s, t.p RETURN [t.s, t.p, t.o]",
    ];
    let answers = |db: &Database| -> Vec<Vec<Value>> {
        QUERIES.iter().map(|q| db.query(q).unwrap()).collect()
    };
    let dir = tmpdir("evolution");
    let before = {
        let db = Database::open(&dir).unwrap();
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
            let row = format!(r#"{{"id":{id},"name":"{name}","credit_limit":{limit}}}"#);
            db.insert_row("customers", &mmdb::from_json(&row).unwrap()).unwrap();
        }
        db.create_collection("people").unwrap();
        db.insert_json("people", r#"{"_key":"1","name":"Mary","knows":["2"]}"#).unwrap();
        db.insert_json("people", r#"{"_key":"2","name":"John","knows":"3"}"#).unwrap();
        db.insert_json("people", r#"{"_key":"3","name":"Anne","knows":"404"}"#).unwrap();

        assert_eq!(evolution::table_to_collection(&db, "customers", "cust_docs").unwrap(), 3);
        assert_eq!(evolution::collection_to_table(&db, "cust_docs", "customers2").unwrap(), (3, 0));
        let graph = evolution::collection_to_graph(&db, "people", "social", "knows").unwrap();
        assert_eq!(graph, (3, 2));
        assert_eq!(evolution::table_to_rdf(&db, "customers").unwrap(), 9);
        answers(&db)
    };
    assert!(before.iter().all(|rows| !rows.is_empty()), "{before:?}");
    let db = Database::open(&dir).unwrap();
    assert_eq!(answers(&db), before);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every kind of definition — a table, collections, buckets, a graph
/// with its vertex and edge collections, a persistent, a column, a GIN
/// and a full-text index, an XML and a JSON tree — with data, some
/// indexes defined before it and some after; then every key of one
/// bucket and of one collection is deleted, and so is one full-text match.
fn catalog_history(db: &Database) {
    use mmdb::substrate::index::GinMode;
    use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
    let json = |s: &str| mmdb::from_json(s).unwrap();
    db.create_table(
        "customers",
        Schema::new(
            vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("credit_limit", DataType::Int)],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    db.create_index("customers", "credit_limit").unwrap();
    for name in ["orders", "drafts"] {
        db.create_collection(name).unwrap();
    }
    db.create_fulltext_index("order_notes", "orders", "note").unwrap();
    for name in ["cart", "sessions"] {
        db.create_bucket(name).unwrap();
    }
    db.create_graph("social").unwrap();
    db.create_vertex_collection("social", "persons").unwrap();
    db.create_edge_collection("social", "knows").unwrap();
    db.register_xml("catalog", r#"<catalog><product no="2724f"><name>Toy</name></product></catalog>"#)
        .unwrap();
    db.register_json_tree("config", r#"{"shop":{"name":"mmdb","tags":["toys","books"]}}"#).unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for id in 1..=4 {
            let row = format!(r#"{{"id":{id},"credit_limit":{}}}"#, id * 1000);
            s.insert_row("customers", json(&row))?;
            let note = ["a wooden toy", "two books", "a toy train", "socks"][id - 1];
            let order = format!(r#"{{"_key":"o{id}","total":{},"note":"{note}"}}"#, id * 10);
            s.insert_document("orders", json(&order))?;
            s.insert_document("drafts", json(&format!(r#"{{"_key":"d{id}"}}"#)))?;
            s.kv_put("cart", &id.to_string(), Value::str(format!("o{id}")))?;
            s.kv_put("sessions", &id.to_string(), Value::int(id as i64))?;
            s.add_vertex("social", "persons", json(&format!(r#"{{"_key":"{id}"}}"#)))?;
        }
        // Matches the full-text probes until the next transaction removes it.
        s.insert_document("orders", json(r#"{"_key":"o5","total":50,"note":"a toy box"}"#))?;
        s.add_edge("social", "knows", "persons/1", "persons/2", json("{}"))?;
        s.add_edge("social", "knows", "persons/1", "persons/3", json("{}"))
            .map(drop)
    })
    .unwrap();
    db.create_index("orders", "total").unwrap();
    db.create_gin_index("orders", GinMode::JsonbOps).unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for id in 1..=4 {
            s.remove_document("drafts", &format!("d{id}"))?;
            s.kv_delete("sessions", &id.to_string())?;
        }
        s.remove_document("orders", "o5")?;
        s.update_document("orders", "o2", json(r#"{"total":25,"note":"three toy books"}"#))
    })
    .unwrap();
}

/// Queries served by `catalog_history`'s persistent and column indexes.
const CATALOG_INDEXED: [&str; 2] = [
    "FOR o IN orders FILTER o.total > 15 SORT o._key RETURN o._key",
    "FOR c IN customers FILTER c.credit_limit >= 2000 SORT c.id RETURN c.id",
];

/// What `catalog_history` left, serialized so comparisons are
/// byte-identical: data probes, the `EXPLAIN` text and answer of a query
/// per index, the GIN probe, `FULLTEXT` answers and BM25 scores, `XPATH`
/// answers, and the two emptied containers.
fn catalog_probes(db: &Database) -> String {
    let mut out: Vec<Value> = [
        "FOR o IN orders SORT o._key RETURN o",
        "FOR c IN customers SORT c.id RETURN c",
        "FOR k IN cart SORT k._key RETURN k",
        r#"FOR p IN 1..1 OUTBOUND "persons/1" knows SORT p._key RETURN p._key"#,
        r#"FOR o IN FULLTEXT("order_notes", "toy") SORT o._key RETURN o._key"#,
        r#"FOR h IN FULLTEXT_RANKED("order_notes", "toy", 10) SORT h.doc._key RETURN [h.doc._key, h.score]"#,
        r#"RETURN XPATH("catalog", "/catalog/product/name")"#,
        r#"RETURN XPATH("config", "/shop/tags")"#,
        "FOR x IN drafts RETURN x",
        "FOR x IN sessions RETURN x",
    ]
    .iter()
    .map(|q| Value::Array(db.query(q).unwrap()))
    .collect();
    for q in CATALOG_INDEXED {
        out.push(Value::str(db.explain(q).unwrap()));
        out.push(Value::Array(db.query(q).unwrap()));
    }
    let orders = db.world().catalog.collection("orders").unwrap();
    let (docs, used_gin) = orders.by_example(&mmdb::from_json(r#"{"total":40}"#).unwrap()).unwrap();
    out.push(Value::Array(docs));
    out.push(Value::Bool(used_gin));
    mmdb::to_json(&Value::Array(out))
}

#[test]
fn every_definition_survives_reopen_checkpoint_and_replication() {
    use mmdb::substrate::repl::{ReplicaOptions, ReplicaRunner};
    use mmdb_server::{Server, ServerConfig};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let dir = tmpdir("catalog");
    let live = {
        let db = Arc::new(Database::open(&dir).unwrap());
        let config = ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() };
        let server = Server::start(Arc::clone(&db), config).unwrap();
        let replica = Arc::new(Database::in_memory_logged());
        let runner = ReplicaRunner::start(
            Arc::clone(&replica),
            server.local_addr().to_string(),
            ReplicaOptions::default(),
        )
        .unwrap();
        catalog_history(&db);
        let live = catalog_probes(&db);
        for q in CATALOG_INDEXED {
            let plan = db.explain(q).unwrap();
            assert!(plan.contains("IndexScan"), "{q} uses no index: {plan}");
        }
        assert!(live.ends_with("true]"), "the GIN probe used no index: {live}");
        for emptied in ["drafts", "sessions"] {
            let rows = db.query(&format!("FOR x IN {emptied} RETURN x")).unwrap();
            assert_eq!(rows, Vec::<Value>::new(), "{emptied}");
        }

        let tail = db.wal().unwrap().tail_lsn();
        let deadline = Instant::now() + Duration::from_secs(15);
        while runner.status().applied_lsn() < tail {
            assert!(Instant::now() < deadline, "the replica did not catch up");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(catalog_probes(&replica), live, "the replica diverged from its primary");
        assert!(!replica.degraded_reason().is_some_and(|r| r.contains("hook")));
        runner.stop();
        server.shutdown().unwrap();
        live
    };

    let db = Database::open(&dir).unwrap();
    assert_eq!(catalog_probes(&db), live, "log replay diverged from the live database");
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(catalog_probes(&db), live, "checkpointed reopen diverged from the live database");
    assert!(!db.is_degraded(), "{:?}", db.degraded_reason());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Load `primary`'s log, folded as a checkpoint folds it, into `db`:
/// what a replica's reset does to its state.
fn load_fold_of(primary: &Database, db: &Database) {
    use mmdb::substrate::storage::wal;
    use mmdb::substrate::txn::WriteSet;
    let log = primary.wal().unwrap();
    let bytes = log.snapshot_bytes().unwrap();
    let (mut blocks, mut state) = (wal::BlockAssembler::default(), wal::Fold::default());
    for t in wal::records(&bytes, 0) {
        if let Some(block) = blocks.push(t.record, t.next_lsn) {
            block.writes.into_iter().for_each(|w| state.push(w));
        }
    }
    db.mvcc().load(WriteSet::decode(state.into_writes()).unwrap(), log.tail_lsn());
}

/// `rewrite_history`'s end state, held by a database of its own, plus a
/// ghost order the primary never had.
fn a_store_that_holds_the_fold_and_a_ghost() -> Database {
    let db = Database::in_memory_logged();
    rewrite_history(&db);
    db.insert_json("orders", r#"{"_key":"ghost","total":99}"#).unwrap();
    db
}

fn order_keys(db: &Database) -> Vec<Value> {
    db.query("FOR o IN orders SORT o._key RETURN o._key").unwrap()
}

#[test]
fn loading_a_fold_over_a_store_that_holds_its_edges_leaves_no_ghost() {
    let primary = Database::in_memory_logged();
    rewrite_history(&primary);
    let db = a_store_that_holds_the_fold_and_a_ghost();

    // Every vertex, edge, row, document and key the fold puts is live in
    // `db` already: each one is a re-put, and the ghost a tombstone.
    load_fold_of(&primary, &db);
    assert_eq!(db.degraded_reason(), None);
    assert_eq!(db.hook_failure(), None);
    assert_eq!(order_keys(&db), order_keys(&primary), "the ghost order survived");
    assert_eq!(db.mvcc().get_latest("doc/orders", b"ghost").unwrap(), None);
    assert_eq!(fold_probes(&db), fold_probes(&primary));
}

#[test]
fn a_load_whose_index_drop_fails_still_removes_the_ghost() {
    let primary = Database::in_memory_logged();
    rewrite_history(&primary);
    let db = a_store_that_holds_the_fold_and_a_ghost();
    // A definition the primary never had: the hook cannot drop an index,
    // and its tombstone sorts ahead of the ghost order's.
    db.create_index("orders", "total").unwrap();

    load_fold_of(&primary, &db);
    let reason = db.degraded_reason().expect("the failed drop latches the store");
    assert!(reason.contains("dropping index 'persistent/orders/total'"), "{reason}");
    assert_eq!(reason, format!("commit hook failed: {}", db.hook_failure().unwrap()));
    assert_eq!(order_keys(&db), order_keys(&primary), "the ghost order survived");
    assert_eq!(fold_probes(&db), fold_probes(&primary));
}

#[test]
fn a_load_drops_every_ghost_container() {
    let primary = Database::in_memory_logged();
    rewrite_history(&primary);
    let db = a_store_that_holds_the_fold_and_a_ghost();
    // Containers the primary never had, one of each kind, with data.
    db.create_bucket("ghost_bucket").unwrap();
    db.kv_put("ghost_bucket", "k", Value::int(1)).unwrap();
    db.create_collection("ghost_docs").unwrap();
    db.insert_json("ghost_docs", r#"{"_key":"d"}"#).unwrap();
    db.create_graph("ghost_graph").unwrap();
    db.create_vertex_collection("ghost_graph", "ghost_people").unwrap();
    db.create_edge_collection("ghost_graph", "ghost_knows").unwrap();
    db.register_xml("ghost_tree", "<a><b>1</b></a>").unwrap();

    load_fold_of(&primary, &db);
    assert_eq!(db.hook_failure(), None);
    assert_eq!(db.degraded_reason(), None);
    assert!(!db.kv().has_bucket("ghost_bucket"));
    for gone in [
        "FOR d IN ghost_docs RETURN d",
        "FOR k IN ghost_bucket RETURN k",
        r#"FOR p IN 1..1 OUTBOUND "ghost_people/a" ghost_knows RETURN p"#,
        r#"RETURN XPATH("ghost_tree", "/a/b")"#,
    ] {
        assert_eq!(db.query(gone).unwrap_err().kind(), "not_found", "{gone}");
    }
    assert_eq!(order_keys(&db), order_keys(&primary), "the ghost order survived");
    assert_eq!(fold_probes(&db), fold_probes(&primary));
    // Each name is free again, for any kind.
    db.create_bucket("ghost_docs").unwrap();
    db.create_collection("ghost_knows").unwrap();
}

#[test]
fn a_load_replaces_a_ghost_whose_name_the_primary_gives_another_kind() {
    use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
    let schema = || Schema::new(vec![ColumnDef::new("id", DataType::Int)], "id").unwrap();
    let primary = Database::in_memory_logged();
    rewrite_history(&primary);
    primary.create_collection("x").unwrap();
    primary.insert_json("x", r#"{"_key":"k","v":1}"#).unwrap();
    primary.create_table("y", schema()).unwrap();
    primary.insert_row("y", &mmdb::from_json(r#"{"id":7}"#).unwrap()).unwrap();
    primary.register_xml("t", "<a><b>new</b></a>").unwrap();
    let db = a_store_that_holds_the_fold_and_a_ghost();
    // The same names with other containers, and data in them: the
    // ghosts' definitions and data are tombstoned, the primary's put.
    db.create_table("x", schema()).unwrap();
    db.insert_row("x", &mmdb::from_json(r#"{"id":1}"#).unwrap()).unwrap();
    db.create_collection("y").unwrap();
    db.insert_json("y", r#"{"_key":"d"}"#).unwrap();
    db.register_xml("t", "<a><b>stale</b></a>").unwrap();

    load_fold_of(&primary, &db);
    assert_eq!(db.hook_failure(), None);
    assert_eq!(db.degraded_reason(), None);
    let kinds: Vec<_> = ["x", "y", "t"].map(|n| db.world().catalog.get(n).map(|c| c.kind())).into();
    assert_eq!(kinds, [Some("collection"), Some("table"), Some("tree")]);
    assert_eq!(db.query("FOR r IN x RETURN r.v").unwrap(), vec![Value::int(1)]);
    assert_eq!(db.query("FOR r IN y RETURN r.id").unwrap(), vec![Value::int(7)]);
    let tree = r#"RETURN XPATH("t", "/a/b")"#;
    assert_eq!(db.query(tree).unwrap(), primary.query(tree).unwrap());
    assert_eq!(fold_probes(&db), fold_probes(&primary));
}

#[test]
fn a_raw_reput_of_a_live_edge_moves_it() {
    let db = Database::in_memory_logged();
    db.create_graph("social").unwrap();
    db.create_vertex_collection("social", "persons").unwrap();
    db.create_edge_collection("social", "knows").unwrap();
    let json = |s: &str| mmdb::from_json(s).unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for key in ["1", "2", "3"] {
            s.add_vertex("social", "persons", json(&format!(r#"{{"_key":"{key}"}}"#)))?;
        }
        s.add_edge("social", "knows", "persons/1", "persons/2", json(r#"{"_key":"e1","since":2020}"#))
            .map(drop)
    })
    .unwrap();

    // Straight through the version store: the same edge, `_to` moved.
    let mut t = db.mvcc().begin(IsolationLevel::Snapshot);
    let moved = r#"{"_key":"e1","_from":"persons/1","_to":"persons/3","since":2021}"#;
    t.put("graph/social/e/knows", b"e1", json(moved)).unwrap();
    t.commit().unwrap();

    assert_eq!(db.degraded_reason(), None);
    let keys = |q: &str| db.query(q).unwrap();
    let none = Vec::<Value>::new();
    assert_eq!(keys(r#"FOR p IN 1..1 INBOUND "persons/2" knows RETURN p._key"#), none);
    assert_eq!(keys(r#"FOR p IN 1..1 OUTBOUND "persons/2" knows RETURN p._key"#), none);
    assert_eq!(keys(r#"FOR p IN 1..1 INBOUND "persons/3" knows RETURN p._key"#), vec![Value::str("1")]);
    assert_eq!(keys(r#"FOR p IN 1..1 OUTBOUND "persons/1" knows RETURN p._key"#), vec![Value::str("3")]);
    let edge = db.world().catalog.graph("social").unwrap().edge("knows/e1").unwrap();
    assert_eq!(edge, db.mvcc().get_latest("graph/social/e/knows", b"e1").unwrap());
}

/// Keys per domain in the property test below: few, so that write sets
/// re-put and delete the same keys.
const KEYS: usize = 4;

/// One raw write of the property test: a key of a domain and its new
/// value, `None` for a delete.
#[derive(Debug, Clone)]
enum RawWrite {
    Doc(usize, Option<i64>),
    Kv(usize, Option<i64>),
    Row(usize, Option<i64>),
    Vertex(usize, Option<i64>),
    /// `(from, to, n)`: vertex keys and a property.
    Edge(usize, Option<(usize, usize, i64)>),
}

fn arb_raw_write() -> impl Strategy<Value = RawWrite> {
    // Two puts to a delete.
    let n = || prop_oneof![(0..100i64).prop_map(Some), (0..100i64).prop_map(Some), Just(None)];
    let edge = prop_oneof![
        (0..KEYS, 0..KEYS, 0..100i64).prop_map(Some),
        (0..KEYS, 0..KEYS, 0..100i64).prop_map(Some),
        Just(None),
    ];
    prop_oneof![
        (0..KEYS, n()).prop_map(|(k, n)| RawWrite::Doc(k, n)),
        (0..KEYS, n()).prop_map(|(k, n)| RawWrite::Kv(k, n)),
        (0..KEYS, n()).prop_map(|(k, n)| RawWrite::Row(k, n)),
        (0..KEYS, n()).prop_map(|(k, n)| RawWrite::Vertex(k, n)),
        (0..KEYS, edge).prop_map(|(k, e)| RawWrite::Edge(k, e)),
    ]
}

/// The domain, key and value a raw write stages.
fn staged(w: &RawWrite) -> (&'static str, Vec<u8>, Option<Value>) {
    use mmdb::substrate::types::codec::key_of;
    let doc = |key: String, fields: Vec<(&str, Value)>| {
        Value::object([("_key", Value::str(key))].into_iter().chain(fields))
    };
    match *w {
        RawWrite::Doc(k, n) => {
            let value = n.map(|n| doc(format!("d{k}"), vec![("n", Value::int(n))]));
            ("doc/orders", format!("d{k}").into_bytes(), value)
        }
        RawWrite::Kv(k, n) => ("kv/cart", format!("k{k}").into_bytes(), n.map(Value::int)),
        RawWrite::Row(k, n) => {
            let id = Value::int(k as i64);
            let value = n.map(|n| Value::object([("id", id.clone()), ("n", Value::int(n))]));
            ("rel/customers", key_of(&id), value)
        }
        RawWrite::Vertex(k, n) => {
            let value = n.map(|n| doc(k.to_string(), vec![("n", Value::int(n))]));
            ("graph/social/v/persons", k.to_string().into_bytes(), value)
        }
        RawWrite::Edge(k, e) => {
            let value = e.map(|(from, to, n)| {
                doc(
                    format!("e{k}"),
                    vec![
                        ("_from", Value::str(format!("persons/{from}"))),
                        ("_to", Value::str(format!("persons/{to}"))),
                        ("n", Value::int(n)),
                    ],
                )
            });
            ("graph/social/e/knows", format!("e{k}").into_bytes(), value)
        }
    }
}

/// A database with one container per domain the property test writes,
/// an index on `n` in the collection and the table, and no data.
fn views_store() -> Database {
    use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
    let db = Database::in_memory_logged();
    db.create_collection("orders").unwrap();
    db.create_index("orders", "n").unwrap();
    db.create_bucket("cart").unwrap();
    let columns = vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("n", DataType::Int)];
    db.create_table("customers", Schema::new(columns, "id").unwrap()).unwrap();
    db.create_index("customers", "n").unwrap();
    db.create_graph("social").unwrap();
    db.create_vertex_collection("social", "persons").unwrap();
    db.create_edge_collection("social", "knows").unwrap();
    db
}

/// Commit `writes` straight through the version store.
fn commit_raw(db: &Database, writes: &[RawWrite]) {
    let mut t = db.mvcc().begin(IsolationLevel::Snapshot);
    for w in writes {
        match staged(w) {
            (domain, key, Some(value)) => t.put(domain, &key, value).unwrap(),
            (domain, key, None) => t.delete(domain, &key).unwrap(),
        }
    }
    t.commit().unwrap();
}

/// The edges `(key, from, to)` the version store holds.
fn latest_edges(db: &Database) -> Vec<(usize, String, String)> {
    let mut edges = Vec::new();
    for k in 0..KEYS {
        let latest = db.mvcc().get_latest("graph/social/e/knows", format!("e{k}").as_bytes());
        if let Some(edge) = latest.unwrap() {
            let end = |field: &str| edge.get_field(field).as_str().unwrap().to_string();
            edges.push((k, end("_from"), end("_to")));
        }
    }
    edges
}

/// Every view answers every key of every domain the way `get_latest`
/// does — the indexes on `n` and the edge index included — and the
/// store is not latched.
fn views_follow_the_version_store(db: &Database) -> Result<(), String> {
    use mmdb::substrate::graph::Direction;
    use mmdb::substrate::types::Projection;
    use std::ops::Bound;
    prop_assert_eq!(db.degraded_reason(), None);
    prop_assert_eq!(db.hook_failure(), None);
    let world = db.world();
    let orders = world.catalog.collection("orders").unwrap();
    let customers = world.catalog.table("customers").unwrap();
    let graph = world.catalog.graph("social").unwrap();
    let (mut live_docs, mut live_rows) = (Vec::new(), Vec::new());
    for k in 0..KEYS {
        let writes = [
            RawWrite::Doc(k, None),
            RawWrite::Kv(k, None),
            RawWrite::Row(k, None),
            RawWrite::Vertex(k, None),
            RawWrite::Edge(k, None),
        ];
        for w in writes {
            let (domain, key, _) = staged(&w);
            let latest = db.mvcc().get_latest(domain, &key).unwrap();
            let view = match w {
                RawWrite::Doc(..) => orders.get(&format!("d{k}")).unwrap(),
                RawWrite::Kv(..) => db.kv().get("cart", &format!("k{k}")).unwrap(),
                RawWrite::Row(..) => {
                    let row = customers.get(&Value::int(k as i64)).unwrap();
                    row.map(|row| customers.schema().object_from_row(row))
                }
                RawWrite::Vertex(..) => graph.vertex(&format!("persons/{k}")).unwrap(),
                RawWrite::Edge(..) => graph.edge(&format!("knows/e{k}")).unwrap(),
            };
            match (&w, latest.is_some()) {
                (RawWrite::Doc(..), true) => live_docs.push(Value::str(format!("d{k}"))),
                (RawWrite::Row(..), true) => live_rows.push(Value::int(k as i64)),
                _ => {}
            }
            prop_assert_eq!(view, latest, "{:?}", w);
        }
    }
    let (lo, hi) = (Value::int(0), Value::int(100));
    let (lo, hi) = (Bound::Included(&lo), Bound::Included(&hi));
    let (docs, used) = orders.range("n", lo, hi, &Projection::ALL).unwrap();
    prop_assert!(used, "the collection's index on n went unused");
    let mut indexed: Vec<Value> = docs.iter().map(|d| d.get_field("_key").clone()).collect();
    indexed.sort();
    prop_assert_eq!(indexed, live_docs, "the collection's index on n");
    let (rows, used) = customers.range("n", lo, hi, &Projection::ALL).unwrap();
    prop_assert!(used, "the table's index on n went unused");
    let mut indexed: Vec<Value> = rows.iter().map(|r| r.get_field("id").clone()).collect();
    indexed.sort();
    prop_assert_eq!(indexed, live_rows, "the table's index on n");
    let edges = latest_edges(db);
    for v in (0..KEYS).map(|k| format!("persons/{k}")) {
        for dir in [Direction::Outbound, Direction::Inbound] {
            let mut far: Vec<String> = edges
                .iter()
                .filter_map(|(_, from, to)| match dir {
                    Direction::Outbound => (*from == v).then(|| to.clone()),
                    _ => (*to == v).then(|| from.clone()),
                })
                .collect();
            far.sort();
            far.dedup();
            prop_assert_eq!(graph.neighbors(&v, dir, Some("knows")).unwrap(), far, "{} {:?}", v, dir);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The model stores follow the version store through raw write sets
    /// that re-put live keys, delete absent ones and move edges, and
    /// through a load of their fold over a store that holds other state.
    /// An edge joins live vertices and a vertex is deleted only once it
    /// has no edges: the view's vertex-delete cascade is not the log's.
    #[test]
    fn the_views_follow_the_version_store(
        sets in prop::collection::vec(prop::collection::vec(arb_raw_write(), 1..6), 1..8)
    ) {
        let db = views_store();
        let (mut vertices, mut edges) = (vec![false; KEYS], vec![None; KEYS]);
        for set in &sets {
            let mut kept = Vec::new();
            for w in set {
                match *w {
                    RawWrite::Vertex(k, None)
                        if edges.iter().flatten().any(|&(from, to)| from == k || to == k) => continue,
                    RawWrite::Vertex(k, n) => vertices[k] = n.is_some(),
                    RawWrite::Edge(_, Some((from, to, _))) if !vertices[from] || !vertices[to] => continue,
                    RawWrite::Edge(k, e) => edges[k] = e.map(|(from, to, _)| (from, to)),
                    _ => {}
                }
                kept.push(w.clone());
            }
            commit_raw(&db, &kept);
            views_follow_the_version_store(&db)?;
        }

        // A second store that holds a value under every key, each edge
        // between other vertices than the first store's.
        let other = views_store();
        let everything: Vec<RawWrite> = (0..KEYS)
            .flat_map(|k| {
                [
                    RawWrite::Doc(k, Some(-1)),
                    RawWrite::Kv(k, Some(-1)),
                    RawWrite::Row(k, Some(-1)),
                    RawWrite::Vertex(k, Some(-1)),
                ]
            })
            .chain((0..KEYS).map(|k| RawWrite::Edge(k, Some((k, (k + 1) % KEYS, -1)))))
            .collect();
        commit_raw(&other, &everything);
        load_fold_of(&db, &other);
        views_follow_the_version_store(&other)?;
        for w in &everything {
            let (domain, key, _) = staged(w);
            let latest = |db: &Database| db.mvcc().get_latest(domain, &key).unwrap();
            prop_assert_eq!(latest(&other), latest(&db), "{:?} after the load", w);
        }
    }
}
