//! Crash-recovery torture suite. Built only with `--features failpoints`
//! (see the `[[test]]` entry in Cargo.toml); `scripts/ci.sh` runs it.
//!
//! For every registered failpoint site the suite seeds the paper's
//! five-model scenario into a file-backed database, crashes the engine at
//! the site (an injected panic caught at the test boundary — the process
//! survives, the `Database` is dropped cold), reopens from disk, and
//! checks the recovery invariants:
//!
//!   1. committed transactions survive, and cross-model query answers —
//!      including the paper's recommendation query — are byte-identical
//!      to an uncrashed oracle run;
//!   2. the transaction in flight at the crash either vanishes entirely
//!      (crash before the durability point) or lands atomically across
//!      all models (crash at/after it) — never partially;
//!   3. the catalog comes back from the WAL alone: nobody re-issues
//!      `create_table` before querying, and every index — one per model
//!      — is back, so the probes' `EXPLAIN` texts are the oracle's.
//!
//! Site coverage is enforced from the registry itself: the doomed-op
//! table panics on any site it does not know, so registering a new
//! failpoint without extending this suite fails the build's test run.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use mmdb::paper::RECOMMENDATION;
use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
use mmdb::substrate::txn::IsolationLevel;
use mmdb::{fault, Database, Value};
use mmdb_client::Client;
use mmdb_server::{Server, ServerConfig};

/// Failpoints are process-global, so the tests in this binary serialize.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fault::clear_all();
    guard
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `f`, catching the injected panic; the default hook is swapped out
/// so the expected crash does not spray a backtrace over the test output.
fn catch_crash<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    let _ = panic::take_hook();
    panic::set_hook(prev);
    result
}

/// Every failpoint site the storage, txn and query crates register, in
/// deterministic order. (`repl`'s, which only a replica evaluates, are
/// checked by `tests/replication.rs`.)
fn all_sites() -> Vec<&'static str> {
    let mut sites: Vec<&'static str> = mmdb::substrate::storage::FAILPOINT_SITES
        .iter()
        .chain(mmdb::substrate::txn::FAILPOINT_SITES)
        .chain(mmdb::substrate::query::FAILPOINT_SITES)
        .copied()
        .collect();
    sites.sort_unstable();
    sites
}

/// Seed the paper scenario through WAL-logged paths only: relational rows,
/// graph vertices/edges and RDF facts go through sessions (the direct
/// `Graph` handles in `paper_scenario.rs` bypass MVCC and would not
/// survive a reopen).
fn seed(db: &Database) {
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
    db.create_bucket("cart").unwrap();
    db.create_collection("orders").unwrap();
    db.create_graph("social").unwrap();
    db.create_vertex_collection("social", "persons").unwrap();
    db.create_edge_collection("social", "knows").unwrap();
    // The doomed transaction's stores.
    db.create_collection("doomed").unwrap();
    db.create_bucket("scratch").unwrap();
    // One index per model, defined before the data it covers: replay
    // installs each after that data.
    db.create_index("orders", "orderlines[0].price").unwrap();
    db.create_index("customers", "credit_limit").unwrap();
    db.create_fulltext_index("order_text", "orders", "orderlines").unwrap();
    // One committed cross-model transaction per customer, so recovery
    // replays genuinely mixed write sets.
    for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.insert_row(
                "customers",
                mmdb::from_json(&format!(
                    r#"{{"id":{id},"name":"{name}","credit_limit":{limit}}}"#
                ))
                .unwrap(),
            )?;
            s.add_vertex(
                "social",
                "persons",
                mmdb::from_json(&format!(r#"{{"_key":"{id}"}}"#)).unwrap(),
            )?;
            s.rdf_insert(&format!("customers:{id}"), "credit_limit", Value::int(limit))
        })
        .unwrap();
    }
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        s.add_edge("social", "knows", "persons/1", "persons/2", mmdb::from_json("{}").unwrap())?;
        s.add_edge("social", "knows", "persons/3", "persons/1", mmdb::from_json("{}").unwrap())?;
        let gone = mmdb::from_json(r#"{"_key":"gone"}"#).unwrap();
        s.add_edge("social", "knows", "persons/2", "persons/3", gone).map(|_| ())
    })
    .unwrap();
    db.kv_put("cart", "1", Value::str("34e5e759")).unwrap();
    db.kv_put("cart", "2", Value::str("0c6df508")).unwrap();
    db.kv_put("cart", "3", Value::str("scratch")).unwrap();
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
    // One overwrite and one delete per model, so every reopen below
    // replays a history that folds: a row and its triple change, a key
    // is overwritten and another deleted, an order is updated, and an
    // edge is removed (edge removal has no session call; the raw
    // transaction takes the same road through the log and the hook).
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        s.update_row(
            "customers",
            mmdb::from_json(r#"{"id":3,"name":"Anne","credit_limit":2500}"#).unwrap(),
        )?;
        s.rdf_remove("customers:3", "credit_limit", &Value::int(2000))?;
        s.rdf_insert("customers:3", "credit_limit", Value::int(2500))?;
        s.kv_put("cart", "1", Value::str("34e5e759-v2"))?;
        s.kv_delete("cart", "3")?;
        s.update_document(
            "orders",
            "34e5e759",
            mmdb::from_json(r#"{"orderlines":[{"product_no":"1111a","price":3}]}"#).unwrap(),
        )
    })
    .unwrap();
    let mut t = db.mvcc().begin(IsolationLevel::Snapshot);
    t.delete("graph/social/e/knows", b"gone").unwrap();
    t.commit().unwrap();
}

/// A query served by each of `seed`'s indexes.
const INDEXED: [&str; 3] = [
    "FOR o IN orders FILTER o.orderlines[0].price >= 3 SORT o._key RETURN o._key",
    "FOR c IN customers FILTER c.credit_limit > 2200 SORT c.id RETURN c.id",
    r#"FOR o IN FULLTEXT("order_text", "toy") SORT o._key RETURN o._key"#,
];

/// Cross-model answers over the committed state, serialized to JSON so
/// oracle comparisons are byte-identical, not merely structurally equal.
/// Deliberately blind to the doomed markers (separate collection/bucket,
/// customer id 99) so the oracle comparison holds whether or not the
/// in-flight transaction survived.
fn probes(db: &Database) -> String {
    let mut out = vec![
        Value::Array(db.query(RECOMMENDATION).unwrap()),
        Value::Array(
            db.query_sql("SELECT id, name, credit_limit FROM customers WHERE id <= 3 ORDER BY id")
                .unwrap(),
        ),
        Value::Array(db.query("FOR o IN orders SORT o._key RETURN o").unwrap()),
        Value::Array(
            db.query(r#"FOR p IN 1..1 OUTBOUND "persons/3" knows RETURN p._key"#).unwrap(),
        ),
        Value::Array(
            db.query(r#"FOR p IN 1..1 OUTBOUND "persons/2" knows RETURN p._key"#).unwrap(),
        ),
        Value::Array(
            db.query(r#"FOR t IN TRIPLES(NULL, "credit_limit", NULL) SORT t.s RETURN [t.s, t.o]"#)
                .unwrap(),
        ),
    ];
    for key in ["1", "2", "3"] {
        out.push(db.kv().get("cart", key).unwrap().unwrap_or(Value::Null));
    }
    for q in INDEXED {
        out.push(Value::str(db.explain(q).unwrap()));
        out.push(Value::Array(db.query(q).unwrap()));
    }
    mmdb::to_json(&Value::Array(out))
}

/// The operation expected to trip each site. The catch-all arm makes
/// unknown sites a hard failure: a new failpoint must be mapped here.
fn doomed_op(db: &Database, site: &str) -> mmdb::Result<()> {
    match site {
        // Commit-path sites: one cross-model transaction touching a
        // document, a key/value pair and a relational row. Its marks live
        // in stores the probes never read. The `txn.group_commit.*` sites
        // fire on the sequencing leader, which for a lone committer is
        // this same thread.
        "wal.append"
        | "wal.sync"
        | "txn.group_commit.enqueue"
        | "txn.group_commit.before_sync"
        | "txn.group_commit.after_sync" => db
            .transact(IsolationLevel::Snapshot, 0, |s| {
                s.insert_document("doomed", mmdb::from_json(r#"{"_key":"d1","x":1}"#).unwrap())?;
                s.kv_put("scratch", "d", Value::int(1))?;
                s.insert_row(
                    "customers",
                    mmdb::from_json(r#"{"id":99,"name":"Doomed","credit_limit":1}"#).unwrap(),
                )
            })
            .map(|_| ()),
        // LSM sites: compaction first flushes the memtable, then merges.
        "lsm.flush" | "lsm.compact" => db.kv().compact("cart"),
        // Query-path site: every executor loop iteration ticks it, so any
        // query crosses it many times. Queries write nothing, so a crash
        // here must leave no marks at all.
        "query.eval_tick" => db.query(RECOMMENDATION).map(|_| ()),
        // Checkpoint-path sites: a manual checkpoint rewrites the log's
        // prefix as its fold, then appends the marker. Checkpoints write
        // no logical state, so whichever step crashes, reopen must land
        // on the oracle. The deeper per-step assertions (the tmp, the
        // log's base) live in tests/checkpoint.rs.
        s if s.starts_with("ckpt.") => db.checkpoint().map(|_| ()),
        other => panic!(
            "failpoint site '{other}' has no doomed operation in the torture harness — \
             a new site was registered without extending tests/crash_recovery.rs"
        ),
    }
}

/// Presence of the doomed transaction's three marks (document, kv, row).
/// Missing containers count as absent: the doomed collection and bucket
/// only exist if the doomed transaction replayed.
fn doomed_marks(db: &Database) -> (bool, bool, bool) {
    let doc = matches!(db.get_document("doomed", "d1"), Ok(Some(_)));
    let kv = matches!(db.kv().get("scratch", "d"), Ok(Some(_)));
    let rel = db
        .query("FOR c IN customers FILTER c.id == 99 RETURN c.id")
        .map(|rows| !rows.is_empty())
        .unwrap_or(false);
    (doc, kv, rel)
}

#[test]
fn every_site_crash_recovers_to_the_oracle() {
    let _serial = lock();
    let oracle_dir = fresh_dir("oracle");
    let oracle = {
        let db = Database::open(&oracle_dir).unwrap();
        seed(&db);
        for q in &INDEXED[..2] {
            let plan = db.explain(q).unwrap();
            assert!(plan.contains("IndexScan"), "{q} uses no index: {plan}");
        }
        assert_eq!(db.query(INDEXED[2]).unwrap(), vec![Value::str("0c6df508")]);
        probes(&db)
    };
    for site in all_sites() {
        fault::clear_all();
        let dir = fresh_dir(&format!("site-{}", site.replace('.', "-")));
        let db = Database::open(&dir).unwrap();
        seed(&db);

        let hits_before = fault::hits(site);
        fault::set(site, "panic").unwrap();
        let crashed = catch_crash(|| doomed_op(&db, site));
        assert!(crashed.is_err(), "site {site}: the armed operation must crash");
        assert!(fault::hits(site) > hits_before, "site {site}: failpoint never fired");
        fault::clear_all();
        drop(db);

        let db = Database::open(&dir).unwrap();
        assert_eq!(probes(&db), oracle, "site {site}: committed state diverged after recovery");

        let (doc, kv, rel) = doomed_marks(&db);
        assert!(
            doc == kv && kv == rel,
            "site {site}: in-flight transaction recovered non-atomically \
             (doc={doc}, kv={kv}, rel={rel})"
        );
        match site {
            // Crash before the durability point: no trace.
            "txn.group_commit.enqueue" | "wal.append" => {
                assert!(!doc, "site {site}: uncommitted transaction resurfaced")
            }
            // Crash at/after it: the records reached the log file (for
            // `wal.sync` and `txn.group_commit.before_sync`, unsynced but
            // readable on the same machine), so recovery replays the
            // transaction in full.
            "txn.group_commit.before_sync" | "txn.group_commit.after_sync" | "wal.sync" => {
                assert!(doc, "site {site}: durable transaction lost")
            }
            // LSM maintenance, queries and checkpoints write no new
            // logical state.
            _ => assert!(!doc, "site {site}: phantom transaction appeared"),
        }

        // The recovered engine accepts new writes.
        db.kv_put("cart", "post-recovery", Value::str(site)).unwrap();
        assert_eq!(db.kv().get("cart", "post-recovery").unwrap(), Some(Value::str(site)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&oracle_dir);
}

#[test]
fn error_injection_fails_cleanly_with_no_partial_state() {
    let _serial = lock();
    let dir = fresh_dir("error-mode");
    let db = Database::open(&dir).unwrap();
    seed(&db);
    let baseline = probes(&db);
    for site in all_sites() {
        match site {
            // Crash-only sites: they sit past the durability point, where
            // returning an error would disown an already-durable commit.
            "txn.group_commit.after_sync" => continue,
            // An error between the batch append and its fsync is the same
            // condition as a failed fsync: the appended records' durability
            // is unknowable, so the store latches degraded rather than
            // aborting cleanly. Exercised in tests/group_commit.rs.
            "txn.group_commit.before_sync" => continue,
            // Unit site (`eval_unit`): `error` degrades to off by design —
            // cancellation errors come from the deadline token, tortured
            // in tests/lifecycle_torture.rs.
            "query.eval_tick" => continue,
            // An fsync failure is not a clean abort: it latches the engine
            // into degraded read-only mode. Exercised separately below (and
            // end to end in tests/lifecycle_torture.rs).
            "wal.sync" => continue,
            _ => {}
        }
        let hits_before = fault::hits(site);
        fault::set(site, "error").unwrap();
        let err =
            doomed_op(&db, site).expect_err(&format!("site {site}: error injection must surface"));
        fault::clear_all();
        assert!(fault::hits(site) > hits_before, "site {site}: failpoint never fired");
        assert_eq!(err.kind(), "storage", "site {site}: unexpected error kind");
        assert_eq!(probes(&db), baseline, "site {site}: a failed operation leaked partial state");
        let (doc, kv, rel) = doomed_marks(&db);
        assert!(!doc && !kv && !rel, "site {site}: aborted transaction left marks");
    }
    // The engine keeps accepting work after every injected failure.
    db.kv_put("cart", "after-errors", Value::int(1)).unwrap();
    assert_eq!(db.kv().get("cart", "after-errors").unwrap(), Some(Value::int(1)));

    // `wal.sync` last: a failed fsync leaves the WAL tail's durability
    // unknowable, so instead of a clean abort the engine aborts *and*
    // latches degraded read-only mode. Reads keep answering; writes are
    // refused fast with a non-retryable `read_only` error.
    let hits_before = fault::hits("wal.sync");
    fault::set("wal.sync", "error").unwrap();
    let err = doomed_op(&db, "wal.sync").expect_err("fsync error injection must surface");
    fault::clear_all();
    assert!(fault::hits("wal.sync") > hits_before, "wal.sync failpoint never fired");
    assert_eq!(err.kind(), "storage", "the failing commit reports the storage error");
    assert_eq!(probes(&db), baseline, "a failed fsync leaked partial state");
    let (doc, kv, rel) = doomed_marks(&db);
    assert!(!doc && !kv && !rel, "aborted transaction left marks");
    assert!(db.is_degraded(), "fsync failure must latch degraded mode");
    let err = db.kv_put("cart", "rejected", Value::int(1)).unwrap_err();
    assert_eq!(err.kind(), "read_only", "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_append_truncates_to_the_committed_prefix() {
    let _serial = lock();
    let dir = fresh_dir("torn");
    {
        let db = Database::open(&dir).unwrap();
        seed(&db);
        // Tear the doomed commit's second record: Begin goes through
        // whole, the first data write stops mid-frame. (`from_hit` counts
        // cumulative evaluations, so arm relative to the current count.)
        let spec = format!("{}:short", fault::hits("wal.append") + 2);
        fault::set("wal.append", &spec).unwrap();
        let err = doomed_op(&db, "wal.append").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        fault::clear_all();
    }
    let oracle_dir = fresh_dir("torn-oracle");
    let oracle_db = Database::open(&oracle_dir).unwrap();
    seed(&oracle_db);

    // Reopen detects the torn tail, truncates it, and the committed
    // prefix matches the uncrashed oracle exactly.
    let db = Database::open(&dir).unwrap();
    assert_eq!(probes(&db), probes(&oracle_db));
    let (doc, kv, rel) = doomed_marks(&db);
    assert!(!doc && !kv && !rel, "torn transaction must vanish");

    // New commits extend the truncated log (they don't hide behind
    // garbage) and survive another reopen.
    db.kv_put("cart", "3", Value::str("later")).unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.kv().get("cart", "3").unwrap(), Some(Value::str("later")));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&oracle_dir);
}

#[test]
fn delayed_fsync_stalls_commit_but_loses_nothing() {
    let _serial = lock();
    let dir = fresh_dir("delay");
    let db = Database::open(&dir).unwrap();
    db.create_bucket("cart").unwrap();
    fault::set("wal.sync", "delay(80)").unwrap();
    let start = Instant::now();
    db.kv_put("cart", "slow", Value::int(1)).unwrap();
    let elapsed = start.elapsed();
    fault::clear_all();
    assert!(elapsed >= Duration::from_millis(80), "fsync was not delayed: {elapsed:?}");
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.kv().get("cart", "slow").unwrap(), Some(Value::int(1)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ddl_survives_a_crash_without_recreating_tables() {
    let _serial = lock();
    let dir = fresh_dir("ddl");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table(
            "customers",
            Schema::new(
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("name", DataType::Text).not_null(),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db.insert_row("customers", &mmdb::from_json(r#"{"id":1,"name":"Mary"}"#).unwrap())
            .unwrap();
        // Crash while creating a second table, just past the durability
        // point: the DDL record is in the log, the catalog never saw it.
        fault::set("txn.group_commit.after_sync", "panic").unwrap();
        let crashed = catch_crash(|| {
            db.create_table(
                "audit",
                Schema::new(vec![ColumnDef::new("id", DataType::Int)], "id").unwrap(),
            )
        });
        assert!(crashed.is_err());
        fault::clear_all();
    }

    // No create_table calls from here on: both tables come back from the
    // WAL alone — schema, rows and constraints.
    let db = Database::open(&dir).unwrap();
    assert_eq!(
        db.query_sql("SELECT name FROM customers ORDER BY id").unwrap(),
        vec![Value::str("Mary")]
    );
    db.insert_row("audit", &mmdb::from_json(r#"{"id":7}"#).unwrap()).unwrap();
    assert_eq!(db.query_sql("SELECT id FROM audit").unwrap(), vec![Value::int(7)]);
    // The recovered schema still validates (NOT NULL intact) ...
    assert!(db.insert_row("customers", &mmdb::from_json(r#"{"id":2}"#).unwrap()).is_err());
    // ... and the catalog knows both tables exist.
    let dup = db.create_table(
        "audit",
        Schema::new(vec![ColumnDef::new("id", DataType::Int)], "id").unwrap(),
    );
    assert!(dup.is_err(), "duplicate DDL must be rejected after recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_workload_exercises_every_registered_site() {
    let _serial = lock();
    fault::reset();
    let dir = fresh_dir("coverage");
    let db = Database::open(&dir).unwrap();
    seed(&db);
    let _ = probes(&db);
    db.kv().compact("cart").unwrap();
    db.checkpoint().unwrap();
    drop(db);

    let seen = fault::seen_sites();
    let registered = all_sites();
    for site in &registered {
        assert!(
            seen.iter().any(|s| s == site),
            "registered site '{site}' was never evaluated by the torture workload"
        );
    }
    for site in &seen {
        assert!(
            registered.contains(&site.as_str()),
            "site '{site}' fired but is not in any FAILPOINT_SITES roster — \
             add it so the torture suite covers it"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_surfaces_injected_commit_failure_as_a_clean_error() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory());
    db.create_bucket("cart").unwrap();
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    client.begin(false).unwrap();
    client.kv_put("cart", "k", Value::int(1)).unwrap();
    fault::set("txn.group_commit.enqueue", "error").unwrap();
    // The commit must come back as an error response — no hang, no
    // dropped connection — and the server-side transaction is aborted.
    let err = client.commit().unwrap_err();
    fault::clear_all();
    assert_eq!(err.kind(), "storage", "{err}");

    client.ping().unwrap();
    assert_eq!(db.kv().get("cart", "k").unwrap(), None, "aborted write must not land");
    let (_, aborts) = db.mvcc().stats();
    assert!(aborts >= 1, "server must abort the failed transaction");

    // The same connection can run a fresh transaction to completion.
    client.begin(false).unwrap();
    client.kv_put("cart", "k", Value::int(2)).unwrap();
    client.commit().unwrap();
    assert_eq!(db.kv().get("cart", "k").unwrap(), Some(Value::int(2)));
    server.shutdown().unwrap();
}
