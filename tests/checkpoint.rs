//! Checkpoint torture suite. Built only with `--features failpoints`
//! (see the `[[test]]` entry in Cargo.toml); `scripts/ci.sh` runs it.
//!
//! A checkpoint is pure maintenance: it rewrites the WAL's prefix below
//! its durable tail as one image block holding the prefix's fold,
//! appends a marker, and vacuums dead MVCC versions — it must never
//! change what a reopen recovers. This suite proves that by crashing the
//! engine at every `ckpt.*` failpoint site mid-checkpoint and asserting
//! the reopened database answers the five-model probes byte-identically
//! to an oracle that never checkpointed at all, and by checkpointing in
//! a loop beside four writers and a replica. It also proves the
//! operational claims: the WAL file measurably shrinks under a
//! multi-writer workload, a replica whose log cannot continue the
//! primary's is reset onto it from its base and converges byte-for-byte
//! (a replica that folds at its primary's markers holds the primary's
//! log bytes and header after every marker), a failed fsync stays
//! failed, and the growth-triggered server loop checkpoints without
//! being asked — and only when the log grew.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use mmdb::paper::RECOMMENDATION;
use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
use mmdb::substrate::repl::{ReplicaOptions, ReplicaRunner};
use mmdb::substrate::storage::wal::{Wal, WalRecord};
use mmdb::substrate::txn::IsolationLevel;
use mmdb::{fault, Database, Value};
use mmdb_client::{Client, ClientConfig};
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
    let dir = std::env::temp_dir().join(format!("mmdb-ckpt-{}-{tag}", std::process::id()));
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

/// The checkpoint-path failpoint sites, straight from the registry.
fn ckpt_sites() -> Vec<&'static str> {
    let mut sites: Vec<&'static str> = mmdb::substrate::storage::FAILPOINT_SITES
        .iter()
        .copied()
        .filter(|s| s.starts_with("ckpt."))
        .collect();
    sites.sort_unstable();
    assert_eq!(
        sites,
        ["ckpt.marker_append", "ckpt.wal_rewrite"],
        "expected the two checkpoint failpoint sites"
    );
    sites
}

/// Seed the paper scenario through WAL-logged paths only (same data as
/// `tests/crash_recovery.rs`, so the probes answer identically).
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
        s.add_edge("social", "knows", "persons/3", "persons/1", mmdb::from_json("{}").unwrap())
            .map(|_| ())
    })
    .unwrap();
    db.kv_put("cart", "1", Value::str("34e5e759")).unwrap();
    db.kv_put("cart", "2", Value::str("0c6df508")).unwrap();
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
}

/// Cross-model answers over the committed state, serialized to JSON so
/// oracle comparisons are byte-identical, not merely structurally equal.
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
            db.query(r#"FOR t IN TRIPLES(NULL, "credit_limit", NULL) SORT t.s RETURN [t.s, t.o]"#)
                .unwrap(),
        ),
    ];
    for key in ["1", "2"] {
        out.push(db.kv().get("cart", key).unwrap().unwrap_or(Value::Null));
    }
    mmdb::to_json(&Value::Array(out))
}

#[test]
fn crash_at_every_ckpt_site_reopens_byte_identical_to_the_oracle() {
    let _serial = lock();
    // The oracle never checkpoints: its probe answers are what recovery
    // must reproduce no matter where the checkpoint died.
    let oracle_dir = fresh_dir("oracle");
    let oracle = {
        let db = Database::open(&oracle_dir).unwrap();
        seed(&db);
        probes(&db)
    };
    for site in ckpt_sites() {
        fault::clear_all();
        let dir = fresh_dir(&format!("site-{}", site.replace('.', "-")));
        let db = Database::open(&dir).unwrap();
        seed(&db);

        let hits_before = fault::hits(site);
        fault::set(site, "panic").unwrap();
        let crashed = catch_crash(|| db.checkpoint());
        assert!(crashed.is_err(), "site {site}: the armed checkpoint must crash");
        assert!(fault::hits(site) > hits_before, "site {site}: failpoint never fired");
        fault::clear_all();
        drop(db);

        // What survived on disk differs per site — the old log beside a
        // complete but unpublished tmp, or the rewritten log without its
        // marker — but reopen must not care, and it drops the tmp.
        let db = Database::open(&dir).unwrap();
        assert_eq!(probes(&db), oracle, "site {site}: state diverged after recovery");
        assert!(!dir.join("mmdb.wal.tmp").exists(), "site {site}: the reopen left the tmp");

        // The recovered engine accepts new writes, a full checkpoint now
        // succeeds, and the state still matches after yet another reopen.
        db.kv_put("cart", "post-crash", Value::str(site)).unwrap();
        let summary = db.checkpoint().unwrap();
        assert!(summary.wal_bytes_reclaimed > 0, "site {site}: checkpoint reclaimed nothing");
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert_eq!(probes(&db), oracle, "site {site}: state diverged after the checkpoint");
        assert_eq!(db.kv().get("cart", "post-crash").unwrap(), Some(Value::str(site)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&oracle_dir);
}

#[test]
fn checkpoint_shrinks_the_wal_under_multi_writer_load() {
    let _serial = lock();
    let dir = fresh_dir("shrink");
    let db = Arc::new(Database::open(&dir).unwrap());
    db.create_bucket("cart").unwrap();

    // Sustained multi-writer load: four threads, fifty commits each, all
    // through group commit onto the one shared log.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..50 {
                    db.kv_put("cart", &format!("w{t}-{i}"), Value::int(i)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let wal_path = dir.join("mmdb.wal");
    let wal = db.wal().unwrap();
    // Bytes of records the log holds, below and past the horizon.
    let held = || wal.tail_lsn() - wal.base_lsn();
    let (before, file_before) = (held(), std::fs::metadata(&wal_path).unwrap().len());
    let summary = db.checkpoint().unwrap();
    // The marker is all that arrived past the horizon.
    let after = held() - (wal.tail_lsn() - summary.snapshot_lsn);
    let file_after = std::fs::metadata(&wal_path).unwrap().len();
    assert!(after < before, "checkpoint did not shrink the log: {before} -> {after} bytes");
    assert!(file_after < file_before, "the file did not shrink: {file_before} -> {file_after}");
    assert_eq!(summary.wal_bytes_reclaimed, before - after);
    assert_eq!(summary.snapshot_bytes, after, "what the log keeps below the horizon is the image");
    assert_eq!(summary.entries, 201, "one image entry per live key, and the bucket's");

    // Writers keep going against the rewritten log, and everything — the
    // image and post-checkpoint commits — survives a reopen.
    db.kv_put("cart", "after", Value::int(1)).unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.kv().get("cart", "w3-49").unwrap(), Some(Value::int(49)));
    assert_eq!(db.kv().get("cart", "after").unwrap(), Some(Value::int(1)));
    let _ = std::fs::remove_dir_all(&dir);
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

/// Spin until `cond` holds; panics with `what` after 15s.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Wait until the replica has applied the primary's whole log.
fn wait_caught_up(runner: &ReplicaRunner, primary: &Database, what: &str) {
    let tail = primary.wal().unwrap().tail_lsn();
    wait_until(what, || runner.status().is_connected() && runner.status().applied_lsn() >= tail);
}

/// Replica options that notice a dead stream quickly.
fn replica_opts() -> ReplicaOptions {
    ReplicaOptions {
        reconnect_delay: Duration::from_millis(25),
        client: ClientConfig {
            read_timeout: Some(Duration::from_secs(2)),
            ..ClientConfig::default()
        },
    }
}

#[test]
fn replica_below_the_horizon_bootstraps_from_a_snapshot_and_converges() {
    let _serial = lock();
    let dir = fresh_dir("bootstrap");
    let db = Arc::new(Database::open(&dir).unwrap());
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Seed, then checkpoint: the whole seed history is folded below the
    // horizon, so a replica joining from LSN 0 is fed by tailing the log
    // from its base — the image block first.
    seed(&db);
    let summary = db.checkpoint().unwrap();
    assert!(summary.snapshot_lsn > 0);
    assert_eq!(db.wal().unwrap().truncated_lsn(), summary.snapshot_lsn);

    let replica_db = Arc::new(Database::in_memory_logged());
    let runner = ReplicaRunner::start(Arc::clone(&replica_db), addr, replica_opts()).unwrap();
    wait_caught_up(&runner, &db, "bootstrap from the base");
    assert_eq!(probes(&replica_db), probes(&db), "bootstrapped replica diverged");

    // The stream seamlessly continues past the bootstrap: a live commit
    // on the primary reaches the replica through the ordinary tail.
    db.kv_put("cart", "live", Value::str("after-bootstrap")).unwrap();
    wait_caught_up(&runner, &db, "live tail after bootstrap");
    assert_eq!(
        replica_db.kv().get("cart", "live").unwrap(),
        Some(Value::str("after-bootstrap"))
    );

    runner.stop();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_nonempty_replica_converges_through_a_snapshot_bootstrap() {
    let _serial = lock();
    let dir = fresh_dir("stale-replica");
    let db = Arc::new(Database::open(&dir).unwrap());
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let addr = server.local_addr().to_string();
    seed(&db);
    let summary = db.checkpoint().unwrap();
    assert!(summary.snapshot_lsn > 0);

    // The replica is NOT empty: it holds state the primary never had —
    // ghost kv keys, a ghost order, a ghost person and edge. Its log is
    // not the primary's, so it is reset onto it, and the image replaces
    // its state: all of it must vanish. Merely applying the image as
    // writes would leave ghosts behind and the replica would diverge
    // forever (there is no history left to correct it).
    let replica_db = Arc::new(Database::in_memory_logged());
    replica_db.create_bucket("cart").unwrap();
    replica_db.create_collection("orders").unwrap();
    replica_db.create_graph("social").unwrap();
    replica_db.create_vertex_collection("social", "persons").unwrap();
    replica_db.create_edge_collection("social", "knows").unwrap();
    replica_db.kv_put("cart", "ghost", Value::str("stale")).unwrap();
    replica_db.kv_put("cart", "1", Value::str("wrong-value")).unwrap();
    replica_db
        .insert_json("orders", r#"{"_key":"ghost-order","orderlines":[]}"#)
        .unwrap();
    replica_db
        .transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_vertex(
                "social",
                "persons",
                mmdb::from_json(r#"{"_key":"9"}"#).unwrap(),
            )?;
            s.add_edge("social", "knows", "persons/9", "persons/9", mmdb::from_json("{}").unwrap())
                .map(|_| ())
        })
        .unwrap();

    let runner = ReplicaRunner::start(Arc::clone(&replica_db), addr, replica_opts()).unwrap();
    wait_caught_up(&runner, &db, "stale replica bootstrap from the base");

    // Byte-identical to the primary, ghosts and all, and every write of
    // the image applied: a replica's latch keeps its first reason, so a
    // hook failure shows only here.
    assert_eq!(probes(&replica_db), probes(&db), "stale replica diverged after bootstrap");
    assert_eq!(replica_db.hook_failure(), None);
    assert_eq!(replica_db.kv().get("cart", "ghost").unwrap(), None, "ghost kv key survived");
    assert_eq!(
        replica_db.get_document("orders", "ghost-order").unwrap(),
        None,
        "ghost document survived"
    );
    assert_eq!(
        replica_db
            .query(r#"FOR p IN 1..1 OUTBOUND "persons/9" knows RETURN p._key"#)
            .unwrap(),
        Vec::<Value>::new(),
        "ghost edge survived"
    );

    // And the stream continues normally past the bootstrap.
    db.kv_put("cart", "live", Value::str("after-replace")).unwrap();
    wait_caught_up(&runner, &db, "live tail after stale bootstrap");
    assert_eq!(
        replica_db.kv().get("cart", "live").unwrap(),
        Some(Value::str("after-replace"))
    );

    runner.stop();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seconds_since_checkpoint_survives_a_process_restart() {
    let _serial = lock();
    let dir = fresh_dir("ckpt-age");
    let db = Database::open(&dir).unwrap();
    db.create_bucket("cart").unwrap();
    db.kv_put("cart", "k", Value::int(1)).unwrap();
    assert_eq!(db.seconds_since_checkpoint(), None, "no checkpoint has ever run");
    db.checkpoint().unwrap();
    assert!(db.seconds_since_checkpoint().unwrap() < 60);

    // Reopen: the age must come back from the time in the log's header,
    // not reset to "never" — a freshly restarted server that reports
    // `null` here looks like it has unbounded recovery debt and pages
    // an operator for nothing.
    drop(db);
    let db = Database::open(&dir).unwrap();
    let age = db.seconds_since_checkpoint();
    assert!(
        age.is_some() && age.unwrap() < 60,
        "seconds_since_checkpoint must survive a reopen (got {age:?})"
    );

    // And it keeps ticking from the real checkpoint time, not reopen
    // time: a fresh checkpoint resets it.
    db.kv_put("cart", "k2", Value::int(2)).unwrap();
    db.checkpoint().unwrap();
    assert!(db.seconds_since_checkpoint().unwrap() < 60);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admin_checkpoint_reports_and_stats_expose_the_wal_footprint() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory_logged());
    db.create_bucket("cart").unwrap();
    for i in 0..32 {
        db.kv_put("cart", &i.to_string(), Value::int(i)).unwrap();
    }
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();

    let health = client.admin_health().unwrap();
    assert_eq!(health.get_field("seconds_since_checkpoint"), &Value::Null);

    let summary = client.admin_checkpoint().unwrap();
    assert!(summary.get_field("snapshot_lsn").as_int().unwrap() > 0);
    assert!(summary.get_field("wal_bytes_reclaimed").as_int().unwrap() > 0);

    let stats = client.admin_stats().unwrap();
    let engine = stats.get_field("engine");
    assert_eq!(engine.get_field("checkpoint_count").as_int().unwrap(), 1);
    assert!(engine.get_field("checkpoint_bytes_reclaimed").as_int().unwrap() > 0);
    let wal = stats.get_field("wal");
    assert!(wal.get_field("truncated_lsn").as_int().unwrap() > 0);

    let health = client.admin_health().unwrap();
    assert!(health.get_field("seconds_since_checkpoint").as_int().unwrap() >= 0);

    server.shutdown().unwrap();
}

#[test]
fn wal_size_threshold_triggers_checkpoints_automatically() {
    let _serial = lock();
    let dir = fresh_dir("auto");
    let db = Arc::new(Database::open(&dir).unwrap());
    db.create_bucket("cart").unwrap();
    let write = |from: i64| {
        for i in from..from + 200 {
            db.kv_put("cart", &format!("auto-{i}"), Value::int(i)).unwrap();
        }
    };
    // The log is well past the threshold before the loop's first poll.
    write(0);
    let config = ServerConfig { checkpoint_wal_bytes: Some(2048), ..server_config() };
    let server = Server::start(Arc::clone(&db), config).unwrap();
    wait_until("automatic checkpoint", || db.checkpoint_stats().0 > 0);

    // The trigger counts growth past the horizon, not the file size: the
    // image alone outsizes the threshold, so a trigger that read the size
    // would checkpoint on every poll. An idle log does not grow.
    std::thread::sleep(Duration::from_millis(400));
    assert!(db.wal_size_bytes() > 2048, "the live state must outsize the threshold");
    assert_eq!(db.checkpoint_stats().0, 1, "an idle log was checkpointed again");

    // Growth past the threshold brings the loop back, unasked.
    write(200);
    wait_until("another automatic checkpoint", || {
        db.checkpoint_stats().0 > 1 && db.wal().unwrap().bytes_since_checkpoint() < 2048
    });

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every key of the `cart` bucket with its value, serialized.
fn cart(db: &Database) -> String {
    mmdb::to_json(&Value::Array(db.query("FOR k IN cart SORT k._key RETURN k").unwrap()))
}

#[test]
fn checkpoints_in_a_loop_beside_four_writers_and_a_replica_lose_nothing() {
    let _serial = lock();
    let dir = fresh_dir("race");
    let replica_dir = fresh_dir("race-replica");
    let db = Arc::new(Database::open(&dir).unwrap());
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let replica_db = Arc::new(Database::open(&replica_dir).unwrap());
    let addr = server.local_addr().to_string();
    let runner = ReplicaRunner::start(Arc::clone(&replica_db), addr, replica_opts()).unwrap();
    db.create_bucket("cart").unwrap();

    // Four writers overwrite and delete their own keys through group
    // commit while a fifth thread checkpoints as fast as it can: the
    // rewrite's rename races the leaders' appends and syncs, and the
    // replica's stream races the rewrite.
    let writing = Arc::new(AtomicBool::new(true));
    let checkpointer = {
        let (db, writing) = (Arc::clone(&db), Arc::clone(&writing));
        std::thread::spawn(move || {
            let mut taken = 0;
            while writing.load(Ordering::SeqCst) {
                db.checkpoint().unwrap();
                taken += 1;
            }
            taken
        })
    };
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut acked = BTreeMap::new();
                for i in 0..150 {
                    let key = format!("w{w}-{}", i % 10);
                    if i % 7 == 6 {
                        db.transact(IsolationLevel::Snapshot, 3, |s| s.kv_delete("cart", &key))
                            .unwrap();
                        acked.insert(key, None);
                    } else {
                        db.kv_put("cart", &key, Value::int(i)).unwrap();
                        acked.insert(key, Some(Value::int(i)));
                    }
                }
                acked
            })
        })
        .collect();
    let mut acked = BTreeMap::new();
    for h in writers {
        acked.extend(h.join().unwrap());
    }
    writing.store(false, Ordering::SeqCst);
    assert!(checkpointer.join().unwrap() > 0, "the checkpointer never ran");
    // One more, so that both logs end with its marker and both fold at it.
    db.checkpoint().unwrap();

    wait_caught_up(&runner, &db, "the replica catching up");
    assert_eq!(cart(&replica_db), cart(&db), "the replica diverged from its primary");
    // The replica's log is its primary's: one id, base and horizon, and
    // the same bytes from the base to the tail.
    let (primary_wal, replica_wal) = (db.wal().unwrap(), replica_db.wal().unwrap());
    let (theirs, mine) = (primary_wal.header(), replica_wal.header());
    assert_eq!((mine.log_id, mine.base, mine.horizon), (theirs.log_id, theirs.base, theirs.horizon));
    assert_eq!(
        records_from_base(&replica_dir, replica_wal),
        records_from_base(&dir, primary_wal),
        "the replica's log is not its primary's, byte for byte"
    );
    runner.stop();
    server.shutdown().unwrap();
    let live = cart(&db);
    drop(db);

    let db = Database::open(&dir).unwrap();
    assert_eq!(cart(&db), live, "the reopen diverged from the live database");
    for (key, value) in &acked {
        assert_eq!(&db.kv().get("cart", key).unwrap(), value, "{key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

/// The bytes `dir`'s log holds from its base `B` to its tail.
fn records_from_base(dir: &Path, wal: &Wal) -> Vec<u8> {
    let bytes = std::fs::read(dir.join("mmdb.wal")).unwrap();
    let held = (wal.tail_lsn() - wal.base_lsn()) as usize;
    bytes[bytes.len() - held..].to_vec()
}

#[test]
fn a_followers_header_is_its_primarys_after_every_marker() {
    use mmdb::substrate::repl::{Follower, Frame};
    use std::collections::HashMap;

    let _serial = lock();
    let primary = Database::in_memory_logged();
    primary.create_bucket("cart").unwrap();
    let replica = Database::in_memory_logged();
    let (primary_wal, replica_wal) = (primary.wal().unwrap(), replica.wal().unwrap());
    let mut follower = Follower::new(&replica).unwrap();
    follower.take(Frame::Reset(primary_wal.header())).unwrap();

    // Five checkpoints between batches of commits; `(B, T)` is recorded
    // by `T` after each. The follower tails what is new, in `read_log`
    // chunks, after each batch and after each checkpoint.
    let (mut recorded, mut cursor) = (HashMap::new(), 0);
    let tail = |follower: &mut Follower, recorded: &HashMap<u64, u64>, mut cursor: u64| loop {
        let bytes = primary_wal.read_log(cursor, primary_wal.durable_lsn()).unwrap();
        if bytes.is_empty() {
            return cursor;
        }
        let lsn = cursor;
        cursor += bytes.len() as u64;
        follower.take(Frame::Log { lsn, bytes }).unwrap();
        // Once a marker lands, the replica's pair is the one recorded
        // for its `T`.
        let mine = replica_wal.header();
        assert_eq!(recorded.get(&mine.horizon).copied().unwrap_or(0), mine.base);
    };
    for round in 0..5 {
        for i in 0..40 {
            let key = format!("k{}", i % 9);
            if i % 5 == 4 {
                primary.transact(IsolationLevel::Snapshot, 0, |s| s.kv_delete("cart", &key)).unwrap();
            } else {
                primary.kv_put("cart", &key, Value::int(round * 100 + i)).unwrap();
            }
        }
        cursor = tail(&mut follower, &recorded, cursor);
        primary.checkpoint().unwrap();
        let header = primary_wal.header();
        recorded.insert(header.horizon, header.base);
        cursor = tail(&mut follower, &recorded, cursor);
        let mine = replica_wal.header();
        assert_eq!((mine.log_id, mine.base, mine.horizon), (header.log_id, header.base, header.horizon));
        assert_eq!(replica_wal.snapshot_bytes().unwrap(), primary_wal.snapshot_bytes().unwrap());
    }
    assert_eq!(cart(&replica), cart(&primary));
}

#[test]
fn a_replica_whose_cursor_lands_inside_the_image_rebootstraps_from_the_base() {
    let _serial = lock();
    let dir = fresh_dir("inside-image");
    let db = Arc::new(Database::open(&dir).unwrap());
    // The stream sleeps 200 ms between idle polls, so two checkpoints in
    // a row usually both land while it sleeps.
    let config = ServerConfig { poll_interval: Duration::from_millis(200), ..server_config() };
    let server = Server::start(Arc::clone(&db), config).unwrap();
    seed(&db);
    let replica_db = Arc::new(Database::in_memory_logged());
    let addr = server.local_addr().to_string();
    let runner = ReplicaRunner::start(Arc::clone(&replica_db), addr, replica_opts()).unwrap();

    // The stream's cursor sits at the tail T1. The first checkpoint
    // folds everything below T1 and appends its marker; the second
    // refolds that image with the marker, so its base moves up by one
    // marker and T1 falls inside the new image. The stream's next read
    // from T1 is `log_truncated`; the replica says hello from T1, which
    // is below the horizon, and is reset from the base.
    for attempt in 0.. {
        assert!(attempt < 20, "the stream never read from inside an image");
        wait_caught_up(&runner, &db, "the replica catching up");
        let connects = runner.status().connects();
        let first = db.checkpoint().unwrap().snapshot_lsn;
        db.checkpoint().unwrap();
        assert!(db.wal().unwrap().base_lsn() < first, "T1 lies inside the second image");
        wait_caught_up(&runner, &db, "the replica catching up again");
        if runner.status().connects() > connects {
            break;
        }
    }
    assert_eq!(probes(&replica_db), probes(&db), "the re-bootstrapped replica diverged");
    // The image re-puts every vertex and edge the replica holds already.
    assert_eq!(replica_db.hook_failure(), None);
    db.kv_put("cart", "live", Value::str("after")).unwrap();
    wait_caught_up(&runner, &db, "the live tail");
    assert_eq!(replica_db.kv().get("cart", "live").unwrap(), Some(Value::str("after")));

    runner.stop();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_sync_stays_failed_until_the_log_is_reopened() {
    let _serial = lock();
    let dir = fresh_dir("sticky-sync");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mmdb.wal");
    {
        let wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.sync().unwrap();
        fault::set("wal.sync", "error").unwrap();
        assert_eq!(wal.sync().unwrap_err().kind(), "storage");
        fault::clear_all();
        // The kernel may have dropped the pages the failed fsync covered:
        // a later fsync that succeeds would acknowledge them anyway.
        let err = wal.sync().unwrap_err();
        assert!(err.to_string().contains("an earlier sync failed"), "{err}");
        assert!(wal.fold_prefix(wal.durable_lsn()).is_err(), "a failed log is not rewritten");
        // Nor appended to: a record landing past a failed sync could only
        // ever be acknowledged by another sync, which fails too.
        let tail = wal.tail_lsn();
        let err = wal.append(&WalRecord::Begin { txid: 2 }).unwrap_err();
        assert!(err.to_string().contains("an earlier sync failed"), "{err}");
        let run = wal.read_log(0, tail).unwrap();
        let err = wal.append_at(tail, &run).unwrap_err();
        assert!(err.to_string().contains("an earlier sync failed"), "{err}");
        assert_eq!(wal.tail_lsn(), tail);
    }
    let wal = Wal::open(&path).unwrap();
    wal.sync().unwrap();
    drop(wal);

    // Through the engine: the checkpoint's marker sync fails, and the
    // next commit is refused instead of acknowledged by a later fsync.
    let db = Database::open(dir.join("db")).unwrap();
    db.create_bucket("cart").unwrap();
    db.kv_put("cart", "1", Value::int(1)).unwrap();
    fault::set("wal.sync", "error").unwrap();
    assert!(db.checkpoint().is_err());
    fault::clear_all();
    assert!(db.kv_put("cart", "2", Value::int(2)).is_err(), "a commit after a failed sync was acked");
    drop(db);
    let db = Database::open(dir.join("db")).unwrap();
    assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::int(1)));
    db.kv_put("cart", "2", Value::int(2)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
