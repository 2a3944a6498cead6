//! Integration test: the tutorial's full running example through the
//! public `mmdb` API — every model, the recommendation query, both query
//! frontends, evolution and indexes, in one database.

use mmdb::paper::{self, RECOMMENDATION};
use mmdb::{Database, Value};

fn paper_db() -> Database {
    let db = Database::in_memory();
    paper::load(&db).unwrap();
    db
}

#[test]
fn the_recommendation_query_returns_the_papers_answer() {
    let db = paper_db();
    let got = db.query(RECOMMENDATION).unwrap();
    assert_eq!(got, vec![Value::str("2724f"), Value::str("3424g")]);
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mmdb-paper-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn loading_the_data_set_again_after_a_reopen_is_already_exists_and_changes_nothing() {
    let dir = tmpdir("reload");
    paper::load(&Database::open(&dir).unwrap()).unwrap();
    let db = Database::open(&dir).unwrap();
    let wal_tail = db.last_commit_lsn();
    let err = paper::load(&db).unwrap_err();
    assert_eq!(err.kind(), "already_exists", "{err}");
    assert_eq!(db.mvcc().stats().0, 0, "no transaction committed");
    assert_eq!(db.last_commit_lsn(), wal_tail);
    assert_eq!(db.query("FOR c IN customers RETURN c.id").unwrap().len(), 3);
    assert_eq!(db.query(RECOMMENDATION).unwrap(), vec![Value::str("2724f"), Value::str("3424g")]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mmdb_serve_demo_restarts_on_a_directory_that_holds_the_data_set() {
    let dir = tmpdir("serve");
    for expected in ["", "demo data already present"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mmdb-serve"))
            .args(["--addr", "127.0.0.1:0", "--demo", "--data-dir"])
            .arg(&dir)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains(expected), "{stdout}");
        assert!(stdout.contains("listening on"), "{stdout}");
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.query(RECOMMENDATION).unwrap(), vec![Value::str("2724f"), Value::str("3424g")]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn indexes_do_not_change_answers() {
    let db = paper_db();
    let before = db.query(RECOMMENDATION).unwrap();
    db.create_index("customers", "credit_limit").unwrap();
    let after = db.query(RECOMMENDATION).unwrap();
    assert_eq!(before, after);
    // EXPLAIN confirms the relational index is picked.
    let plan = db
        .explain("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c")
        .unwrap();
    assert!(plan.contains("IndexScan"), "{plan}");
}

#[test]
fn sql_frontend_agrees_with_mmql() {
    let db = paper_db();
    let sql = db
        .query_sql("SELECT name FROM customers WHERE credit_limit >= 3000 ORDER BY name")
        .unwrap();
    let mmql = db
        .query("FOR c IN customers FILTER c.credit_limit >= 3000 SORT c.name RETURN c.name")
        .unwrap();
    assert_eq!(sql, mmql);
}

#[test]
fn evolution_preserves_answers_across_models() {
    let db = paper_db();
    // Evolve the relation into documents; the same filter over the new
    // model gives the same names.
    mmdb::core::evolution::table_to_collection(&db, "customers", "cust_docs").unwrap();
    let from_docs = db
        .query("FOR c IN cust_docs FILTER c.credit_limit > 3000 RETURN c.name")
        .unwrap();
    let from_table = db
        .query("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c.name")
        .unwrap();
    assert_eq!(from_docs, from_table);
    // And into RDF.
    mmdb::core::evolution::table_to_rdf(&db, "customers").unwrap();
    let rdf = db
        .query(r#"FOR t IN TRIPLES(NULL, "credit_limit", NULL) FILTER t.o > 3000 RETURN t.s"#)
        .unwrap();
    assert_eq!(rdf, vec![Value::str("customers:1")]);
}

#[test]
fn cross_model_transaction_spans_the_whole_scenario() {
    let db = paper_db();
    db.transact(mmdb_txn::IsolationLevel::Snapshot, 3, |s| {
        // Anne places an order: document + cart + graph edge + credit.
        s.insert_document(
            "orders",
            mmdb::from_json(r#"{"_key":"new1","orderlines":[{"product_no":"2724f","price":66}],"total":66}"#)
                .unwrap(),
        )?;
        s.kv_put("cart", "3", Value::str("new1"))?;
        let mut anne = s.get_row("customers", &Value::int(3))?.unwrap();
        let cur = anne.get_field("credit_limit").as_int()?;
        anne.as_object_mut()?.insert("credit_limit", Value::int(cur - 66));
        s.update_row("customers", anne)
    })
    .unwrap();
    assert_eq!(db.kv().get("cart", "3").unwrap(), Some(Value::str("new1")));
    let anne_credit = db
        .query("FOR c IN customers FILTER c.id == 3 RETURN c.credit_limit")
        .unwrap();
    assert_eq!(anne_credit, vec![Value::int(2000 - 66)]);
    // The recommendation query now also sees Anne's friend's purchases
    // through Mary (credit 5000 > 3000 knows John; Anne knows Mary but
    // Anne's own credit is below threshold) — the original answer stands.
    let got = db.query(RECOMMENDATION).unwrap();
    assert_eq!(got, vec![Value::str("2724f"), Value::str("3424g")]);
}

#[test]
fn fulltext_and_xpath_round_out_the_models() {
    let db = paper_db();
    db.create_collection("reviews").unwrap();
    db.insert_json("reviews", r#"{"_key":"r1","product_no":"2724f","text":"a great toy"}"#)
        .unwrap();
    db.create_fulltext_index("rtext", "reviews", "text").unwrap();
    let hit = db
        .query(r#"FOR r IN FULLTEXT("rtext", "toy") RETURN r.product_no"#)
        .unwrap();
    assert_eq!(hit, vec![Value::str("2724f")]);
    db.register_xml("p", r#"<product no="2724f"><name>Toy</name></product>"#).unwrap();
    let name = db.query(r#"RETURN XPATH("p", "/product/name")[0]"#).unwrap();
    assert_eq!(name, vec![Value::str("Toy")]);
}
