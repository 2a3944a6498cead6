//! Replication failover torture suite. Built only with
//! `--features failpoints` (see the `[[test]]` entry in Cargo.toml);
//! `scripts/ci.sh` runs it.
//!
//! The crash-recovery suite (tests/crash_recovery.rs) proves a reopened
//! primary converges to the oracle; this suite proves a **replica** fed
//! from the primary's WAL stream converges to the *same* state:
//!
//!   1. for every WAL-path failpoint site, the primary is killed
//!      mid-stream (injected panic, database dropped cold); the replica
//!      keeps serving reads, reconnects when a primary comes back, and
//!      its cross-model probes are byte-identical to the reopened
//!      primary — the recovery oracle;
//!   2. a replica whose apply path fails drops the stream and resumes
//!      from its last applied transaction boundary, replaying the
//!      failed block idempotently;
//!   3. `Pool` reads under `read_your_writes` never observe a state
//!      older than the session's own last commit LSN, even while the
//!      replica is artificially lagged;
//!   4. `SUBSCRIBE` delivers exactly the committed writes (aborted
//!      transactions invisible) and resumes from a supplied LSN;
//!   5. a replicated apply whose log append fails leaves the replica's
//!      own WAL and version store untouched, and its retry converges.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
use mmdb::substrate::repl::{ReplicaOptions, ReplicaRunner};
use mmdb::substrate::txn::IsolationLevel;
use mmdb::{fault, Database, Value};
use mmdb_client::{Client, ClientConfig, Consistency, Pool, PoolConfig, RetryPolicy};
use mmdb_protocol::{Request, Response, SessionOp};
use mmdb_server::{Server, ServerConfig};

/// The paper's cross-model recommendation query (same as
/// `tests/crash_recovery.rs`); the oracle answer is `["2724f", "3424g"]`.
const RECOMMENDATION: &str = r#"
    FOR c IN customers
      FILTER c.credit_limit > 3000
      FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
        LET order = DOC("orders", KV_GET("cart", friend._key))
        FILTER order != NULL
        FOR line IN order.orderlines
          RETURN line.product_no
"#;

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
    let dir = std::env::temp_dir().join(format!("mmdb-repl-{}-{tag}", std::process::id()));
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

/// The WAL-path failpoint sites a primary commit crosses: killing the
/// primary at each exercises the stream at every durability stage.
fn wal_sites() -> Vec<&'static str> {
    let mut sites: Vec<&'static str> = mmdb::substrate::storage::FAILPOINT_SITES
        .iter()
        .chain(mmdb::substrate::txn::FAILPOINT_SITES)
        .copied()
        .filter(|s| s.starts_with("wal.") || s.starts_with("txn.commit."))
        .collect();
    sites.sort_unstable();
    assert!(!sites.is_empty(), "no WAL-path failpoint sites registered");
    sites
}

/// Tight timings so the suite's reconnect/catch-up waits settle fast.
fn fast_opts() -> ReplicaOptions {
    let defaults = ReplicaOptions::default();
    ReplicaOptions {
        reconnect_delay: Duration::from_millis(25),
        client: ClientConfig { read_timeout: Some(Duration::from_secs(2)), ..defaults.client },
    }
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
    // lint: allow(tick, test helper poll loop with a hard 15s deadline)
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Wait until the runner has applied everything up to `tail`.
fn wait_caught_up(runner: &ReplicaRunner, tail: u64, what: &str) {
    wait_until(what, || runner.status().is_connected() && runner.status().applied_lsn() >= tail);
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
    let g = db.create_graph("social").unwrap();
    g.create_vertex_collection("persons").unwrap();
    g.create_edge_collection("knows").unwrap();
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
/// replica-vs-oracle comparisons are byte-identical, not merely
/// structurally equal. Blind to the doomed markers (customer id 99,
/// scratch stores) so the comparison holds whether or not the in-flight
/// transaction survived the crash.
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

/// The cross-model transaction expected to trip a WAL-path site; its
/// marks live in stores the probes never read.
fn doomed_op(db: &Database) -> mmdb::Result<()> {
    db.transact(IsolationLevel::Snapshot, 0, |s| {
        s.insert_document("doomed", mmdb::from_json(r#"{"_key":"d1","x":1}"#).unwrap())?;
        s.kv_put("scratch", "d", Value::int(1))?;
        s.insert_row(
            "customers",
            mmdb::from_json(r#"{"id":99,"name":"Doomed","credit_limit":1}"#).unwrap(),
        )
    })
    .map(|_| ())
}

#[test]
fn every_wal_site_crash_converges_replicas_to_the_recovery_oracle() {
    let _serial = lock();
    for site in wal_sites() {
        fault::clear_all();
        let dir = fresh_dir(&format!("site-{}", site.replace('.', "-")));
        let db = Arc::new(Database::open(&dir).unwrap());
        let server = Server::start(Arc::clone(&db), server_config()).unwrap();
        let addr = server.local_addr().to_string();

        // A live replica tails the stream while the primary seeds.
        let replica_db = Arc::new(Database::in_memory());
        let runner = ReplicaRunner::start(Arc::clone(&replica_db), addr.clone(), fast_opts()).unwrap();
        seed(&db);
        wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "initial catch-up");
        assert!(replica_db.is_degraded(), "site {site}: replica must be latched read-only");
        assert_eq!(runner.status().lag_bytes(), 0, "site {site}: caught-up replica reports lag");

        // Kill the primary mid-stream at the armed WAL site.
        let hits_before = fault::hits(site);
        fault::set(site, "panic").unwrap();
        let crashed = catch_crash(|| doomed_op(&db));
        assert!(crashed.is_err(), "site {site}: the armed operation must crash");
        assert!(fault::hits(site) > hits_before, "site {site}: failpoint never fired");
        fault::clear_all();
        server.shutdown().unwrap();
        drop(db);

        // Orphaned replica: stream gone, reads still answered from the
        // last applied state.
        wait_until("stream loss detection", || !runner.status().is_connected());
        assert!(
            replica_db.query("FOR c IN customers RETURN c.id").is_ok(),
            "site {site}: an orphaned replica must keep serving reads"
        );
        let orphan_probes = probes(&replica_db);
        runner.stop();

        // Reopen the primary from disk — the recovery oracle — restart
        // serving, and stream the replica up to date again. (The old
        // sockets linger in TIME_WAIT, so the revived primary gets a
        // fresh port and the replica a fresh stream; `apply_replicated`
        // replays the log idempotently over the replica's state.)
        let db = Arc::new(Database::open(&dir).unwrap());
        let oracle = probes(&db);
        assert_eq!(
            orphan_probes, oracle,
            "site {site}: orphaned replica diverged from the committed prefix"
        );
        let server = Server::start(Arc::clone(&db), server_config()).unwrap();
        let addr = server.local_addr().to_string();
        let runner = ReplicaRunner::start(Arc::clone(&replica_db), addr, fast_opts()).unwrap();
        // A crash can leave a dangling Begin at the log tail (a valid
        // frame whose Commit never made it); the stream only passes it
        // once the next committed block proves it dead. Committing fresh
        // work is what drags the watermark over it — the probes are
        // blind to this marker key.
        db.kv_put("cart", "post-recovery", Value::str(site)).unwrap();
        wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "post-recovery catch-up");

        assert_eq!(
            probes(&replica_db),
            oracle,
            "site {site}: replica diverged from the recovery oracle"
        );
        assert_eq!(
            replica_db.kv().get("cart", "post-recovery").unwrap(),
            Some(Value::str(site)),
            "site {site}: the revived stream must carry new commits"
        );
        assert_eq!(runner.status().lag_bytes(), 0, "site {site}: converged replica reports lag");

        runner.stop();
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn replica_resumes_by_lsn_after_an_apply_failure() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory_logged());
    db.create_bucket("cart").unwrap();
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let addr = server.local_addr().to_string();

    let replica_db = Arc::new(Database::in_memory());
    let runner = ReplicaRunner::start(Arc::clone(&replica_db), addr, fast_opts()).unwrap();
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "initial catch-up");
    let resume_floor = runner.status().applied_lsn();
    let connects_before = runner.status().connects();

    // Poison the apply path: the stream drops mid-block and the runner
    // reconnects, resuming from the last applied transaction boundary.
    fault::set("repl.apply", "error").unwrap();
    db.kv_put("cart", "x", Value::int(1)).unwrap();
    wait_until("reconnect after apply failure", || {
        runner.status().connects() > connects_before
    });
    assert!(fault::hits("repl.apply") > 0, "repl.apply never fired");
    assert!(
        runner.status().applied_lsn() >= resume_floor,
        "resume point regressed below an applied boundary"
    );
    // Containers materialize on the replica with their first replicated
    // write, so the failed apply leaves not just the key but the whole
    // bucket absent.
    assert!(
        !matches!(replica_db.kv().get("cart", "x"), Ok(Some(_))),
        "a failed apply must not leak the transaction"
    );

    // Heal the apply path: the replayed block applies idempotently.
    fault::clear_all();
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "post-failure catch-up");
    assert_eq!(replica_db.kv().get("cart", "x").unwrap(), Some(Value::int(1)));
    db.kv_put("cart", "y", Value::int(2)).unwrap();
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "live tail after failure");
    assert_eq!(replica_db.kv().get("cart", "y").unwrap(), Some(Value::int(2)));

    runner.stop();
    server.shutdown().unwrap();
}

#[test]
fn a_replicated_apply_reaches_the_replicas_own_log_whole_or_not_at_all() {
    use mmdb::substrate::storage::wal::recover_from_bytes;
    use mmdb::substrate::txn::CommittedWrite;

    let _serial = lock();
    let db = Database::in_memory_logged();
    let wal = db.wal().unwrap();
    let writes: Vec<CommittedWrite> = ["1", "2"]
        .iter()
        .map(|k| CommittedWrite {
            domain: "kv/cart".into(),
            key: k.as_bytes().to_vec(),
            value: Some(Value::str("o1")),
        })
        .collect();

    // Fail the block's second record: record-by-record logging would
    // already have landed an orphan `Begin`.
    let tail = wal.tail_lsn();
    fault::set("wal.append", &format!("{}:error", fault::hits("wal.append") + 2)).unwrap();
    assert!(db.mvcc().apply_replicated(&writes).is_err());
    fault::clear_all();
    assert_eq!(wal.tail_lsn(), tail, "a failed apply leaves nothing in the log");
    assert_eq!(db.mvcc().get_latest("kv/cart", b"1"), None);
    assert_eq!(db.mvcc().stats().0, 0);

    // The stream replays the same block; this time it lands, once.
    db.mvcc().apply_replicated(&writes).unwrap();
    assert_eq!(db.kv().get("cart", "2").unwrap(), Some(Value::str("o1")));
    assert_eq!(recover_from_bytes(&wal.snapshot_bytes()).redo.len(), 2);
}

#[test]
fn read_your_writes_never_reads_below_the_session_commit_lsn() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory_logged());
    db.create_bucket("cart").unwrap();
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let primary_addr = server.local_addr().to_string();

    let replica_db = Arc::new(Database::in_memory());
    let runner = ReplicaRunner::start(Arc::clone(&replica_db), primary_addr.clone(), fast_opts()).unwrap();
    let replica_server = Server::start(Arc::clone(&replica_db), server_config()).unwrap();
    let replica_addr = replica_server.local_addr().to_string();
    let status = runner.status();
    replica_server.attach_replica_status(Arc::new(move || status.to_value()));
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "initial catch-up");

    // Lag the replica: every apply stalls, so immediately after a commit
    // the replica is usually *behind* the session's commit LSN and the
    // freshness check must bounce the read back to the primary.
    fault::set("repl.apply", "delay(15)").unwrap();

    let pool = Pool::new(
        &primary_addr,
        PoolConfig {
            replicas: vec![replica_addr],
            consistency: Consistency::ReadYourWrites,
            ..PoolConfig::default()
        },
    );
    let policy = RetryPolicy::default();
    for i in 0..30 {
        pool.retry_write(&policy, |c| {
            c.begin(false)?;
            c.kv_put("cart", "k", Value::int(i))?;
            c.commit()
        })
        .unwrap();
        assert!(pool.session_lsn() > 0, "commit LSN token never flowed back to the pool");
        // A session read must see its own write — from a caught-up
        // replica or, while the replica lags, from the primary.
        let got = pool.retry_read(&policy, |c| c.kv_get("cart", "k")).unwrap();
        assert_eq!(got, Some(Value::int(i)), "read-your-writes violated at iteration {i}");
    }
    fault::clear_all();
    let stats = pool.stats();
    assert!(
        stats.replica_fallbacks > 0,
        "a lagged replica never bounced a read to the primary: {stats:?}"
    );

    // Once the replica catches up, bounded-staleness reads land on it.
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "catch-up after lag");
    let fresh_pool = Pool::new(
        &primary_addr,
        PoolConfig {
            replicas: vec![replica_server.local_addr().to_string()],
            consistency: Consistency::BoundedStaleness(Duration::from_secs(30)),
            ..PoolConfig::default()
        },
    );
    let got = fresh_pool.retry_read(&policy, |c| c.kv_get("cart", "k")).unwrap();
    assert_eq!(got, Some(Value::int(29)));
    assert_eq!(
        fresh_pool.stats().replica_reads,
        1,
        "a caught-up replica under bounded staleness must serve the read"
    );

    runner.stop();
    replica_server.shutdown().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn pipelined_reads_route_through_the_pool_consistency_modes() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory_logged());
    db.create_bucket("cart").unwrap();
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let primary_addr = server.local_addr().to_string();

    let replica_db = Arc::new(Database::in_memory());
    let runner = ReplicaRunner::start(Arc::clone(&replica_db), primary_addr.clone(), fast_opts()).unwrap();
    let replica_server = Server::start(Arc::clone(&replica_db), server_config()).unwrap();
    let replica_addr = replica_server.local_addr().to_string();
    let status = runner.status();
    replica_server.attach_replica_status(Arc::new(move || status.to_value()));

    let policy = RetryPolicy::default();
    let pool = Pool::new(
        &primary_addr,
        PoolConfig {
            replicas: vec![replica_addr],
            consistency: Consistency::BoundedStaleness(Duration::from_secs(30)),
            ..PoolConfig::default()
        },
    );
    for i in 0..10 {
        pool.retry_write(&policy, |c| {
            c.begin(false)?;
            c.kv_put("cart", &format!("k{i}"), Value::int(i))?;
            c.commit()
        })
        .unwrap();
    }
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "catch-up before pipelining");

    // A caught-up replica under bounded staleness serves the whole
    // pipelined batch on one freshness check.
    {
        let mut pipe = pool.read_pipeline().unwrap();
        assert!(pipe.is_replica(), "caught-up replica must serve the pipeline");
        let ids: Vec<u64> = (0..10)
            .map(|i| {
                pipe.submit(&Request::Op(SessionOp::KvGet {
                    bucket: "cart".into(),
                    key: format!("k{i}"),
                }))
                .unwrap()
            })
            .collect();
        // Receive in reverse order to exercise the stash on the routed
        // connection too.
        for (i, id) in ids.iter().enumerate().rev() {
            match pipe.receive(*id).unwrap() {
                Response::Maybe(Some(v)) => assert_eq!(v, Value::int(i as i64)),
                other => panic!("pipelined get k{i} on replica: {other:?}"),
            }
        }
        assert_eq!(pipe.in_flight(), 0);
    }
    let stats = pool.stats();
    assert_eq!(stats.replica_pipelines, 1, "{stats:?}");
    assert_eq!(stats.pipeline_fallbacks, 0, "{stats:?}");

    // Lag the replica and demand read-your-writes: a pipeline checked
    // out right after a commit must fall back to the primary (instead
    // of silently serving stale data, the pre-`read_pipeline` failure
    // mode) and still observe the session's own write.
    fault::set("repl.apply", "delay(15)").unwrap();
    let rw_pool = Pool::new(
        &primary_addr,
        PoolConfig {
            replicas: vec![replica_server.local_addr().to_string()],
            consistency: Consistency::ReadYourWrites,
            ..PoolConfig::default()
        },
    );
    for i in 0..20 {
        rw_pool
            .retry_write(&policy, |c| {
                c.begin(false)?;
                c.kv_put("cart", "rw", Value::int(i))?;
                c.commit()
            })
            .unwrap();
        assert!(rw_pool.session_lsn() > 0, "commit LSN never reached the pool");
        let mut pipe = rw_pool.read_pipeline().unwrap();
        let id = pipe
            .submit(&Request::Op(SessionOp::KvGet { bucket: "cart".into(), key: "rw".into() }))
            .unwrap();
        match pipe.receive(id).unwrap() {
            Response::Maybe(Some(v)) => {
                assert_eq!(v, Value::int(i), "pipelined read-your-writes violated at {i}")
            }
            other => panic!("pipelined get rw: {other:?}"),
        }
    }
    fault::clear_all();
    let stats = rw_pool.stats();
    assert!(
        stats.pipeline_fallbacks > 0,
        "a lagged replica never bounced a pipeline to the primary: {stats:?}"
    );
    assert_eq!(
        stats.replica_pipelines + stats.pipeline_fallbacks,
        20,
        "every pipeline checkout must be counted exactly once: {stats:?}"
    );

    runner.stop();
    replica_server.shutdown().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn subscribe_streams_committed_writes_and_resumes_by_lsn() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory_logged());
    db.create_bucket("cart").unwrap();
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let addr = server.local_addr().to_string();
    let start_lsn = db.wal().unwrap().tail_lsn();

    // Two committed writes with an aborted transaction between them: the
    // feed must carry exactly the committed two, in commit order.
    db.kv_put("cart", "a", Value::int(1)).unwrap();
    let aborted: mmdb::Result<()> = db.transact(IsolationLevel::Snapshot, 0, |s| {
        s.kv_put("cart", "doomed", Value::int(9))?;
        Err(mmdb::Error::Query("client-side rollback".into()))
    });
    assert!(aborted.is_err());
    db.kv_put("cart", "b", Value::int(2)).unwrap();

    let mut sub = Client::connect(&addr).unwrap();
    sub.subscribe(start_lsn).unwrap();
    let first = next_event(&mut sub);
    let second = next_event(&mut sub);
    for (event, want) in [(&first, 1), (&second, 2)] {
        assert_eq!(event.get_field("type").as_str().unwrap(), "write");
        assert!(!event.get_field("deleted").as_bool().unwrap());
        assert_eq!(event.get_field("value"), &Value::int(want), "event: {}", mmdb::to_json(event));
    }
    let feed_json = format!("{} {}", mmdb::to_json(&first), mmdb::to_json(&second));
    assert!(!feed_json.contains("doomed"), "aborted write leaked into the feed: {feed_json}");

    // A live commit reaches the open subscription.
    db.kv_put("cart", "c", Value::int(3)).unwrap();
    assert_eq!(next_event(&mut sub).get_field("value"), &Value::int(3));

    // Resuming from the first event's cursor replays everything after
    // that commit, not the whole log.
    let resume_lsn = u64::try_from(first.get_field("lsn").as_int().unwrap()).unwrap();
    let mut resumed = Client::connect(&addr).unwrap();
    resumed.subscribe(resume_lsn).unwrap();
    assert_eq!(next_event(&mut resumed).get_field("value"), &Value::int(2));
    assert_eq!(next_event(&mut resumed).get_field("value"), &Value::int(3));

    server.shutdown().unwrap();
}

#[test]
fn subscribe_below_the_truncation_horizon_is_a_typed_nonretryable_error() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory_logged());
    db.create_bucket("cart").unwrap();
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Writes, then a checkpoint: the whole prefix — including LSN 0 —
    // now sits below the truncation horizon.
    for i in 0..8 {
        db.kv_put("cart", &i.to_string(), Value::int(i)).unwrap();
    }
    let summary = db.checkpoint().unwrap();
    assert!(summary.snapshot_lsn > 0);

    // A change feed cannot be rebuilt from a snapshot (the intermediate
    // events are gone), so resuming below the horizon must fail loudly —
    // a typed, non-retryable error, not a silent skip-ahead.
    let mut sub = Client::connect(&addr).unwrap();
    sub.subscribe(0).unwrap();
    let err = sub.next_change().unwrap_err();
    assert_eq!(err.kind(), "log_truncated", "{err}");
    assert!(!err.is_retryable(), "log_truncated must not invite a retry: {err}");

    // Resuming at or past the horizon still works.
    let mut ok = Client::connect(&addr).unwrap();
    ok.subscribe(summary.snapshot_lsn).unwrap();
    db.kv_put("cart", "fresh", Value::int(99)).unwrap();
    assert_eq!(next_event(&mut ok).get_field("value"), &Value::int(99));

    server.shutdown().unwrap();
}

#[test]
fn replica_applies_a_streamed_checkpoint_and_truncates_its_own_log() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory_logged());
    db.create_bucket("cart").unwrap();
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let addr = server.local_addr().to_string();

    // The replica keeps its own log (in-memory logged) so the streamed
    // checkpoint has something to truncate locally.
    let replica_db = Arc::new(Database::in_memory_logged());
    let runner = ReplicaRunner::start(Arc::clone(&replica_db), addr, fast_opts()).unwrap();
    for i in 0..16 {
        db.kv_put("cart", &i.to_string(), Value::int(i)).unwrap();
    }
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "pre-checkpoint catch-up");
    let replica_log_before = replica_db.wal_size_bytes();
    assert!(replica_log_before > 0, "replica re-logs applied transactions");

    // The primary checkpoints; the marker rides the stream and the
    // replica checkpoints its own store in response.
    db.checkpoint().unwrap();
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "checkpoint record delivery");
    wait_until("replica local checkpoint", || {
        let (count, _, _) = replica_db.checkpoint_stats();
        count > 0
    });
    assert!(
        replica_db.wal_size_bytes() < replica_log_before,
        "the streamed checkpoint must bound the replica's own log"
    );

    // Replication continues normally past the checkpoint record.
    db.kv_put("cart", "post", Value::int(1)).unwrap();
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "post-checkpoint tail");
    assert_eq!(replica_db.kv().get("cart", "post").unwrap(), Some(Value::int(1)));

    runner.stop();
    server.shutdown().unwrap();
}

/// Pull the next CDC event, skipping heartbeats.
fn next_event(sub: &mut Client) -> Value {
    // lint: allow(tick, bounded by the client read timeout; heartbeats arrive every 200ms)
    loop {
        let event = sub.next_change().unwrap();
        if matches!(event.get_field("type").as_str(), Ok("heartbeat")) {
            continue;
        }
        return event;
    }
}

#[test]
fn admin_endpoints_report_replication_lag() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory_logged());
    db.create_bucket("cart").unwrap();
    let server = Server::start(Arc::clone(&db), server_config()).unwrap();
    let primary_addr = server.local_addr().to_string();

    let replica_db = Arc::new(Database::in_memory());
    let runner = ReplicaRunner::start(Arc::clone(&replica_db), primary_addr.clone(), fast_opts()).unwrap();
    let replica_server = Server::start(Arc::clone(&replica_db), server_config()).unwrap();
    let status = runner.status();
    replica_server.attach_replica_status(Arc::new(move || status.to_value()));
    // Container creation is not logged; only the committed write below
    // moves the WAL tail (and materializes the bucket replica-side).
    db.kv_put("cart", "seed", Value::int(1)).unwrap();
    wait_caught_up(&runner, db.wal().unwrap().tail_lsn(), "initial catch-up");

    // The primary reports its WAL tail; the replica reports role, lag
    // and staleness through the same `ADMIN REPL` verb.
    let mut primary_client = Client::connect(&primary_addr).unwrap();
    let p = primary_client.admin_repl().unwrap();
    assert_eq!(p.get_field("role").as_str().unwrap(), "primary");
    assert!(p.get_field("wal_tail_lsn").as_int().unwrap() > 0);

    let mut replica_client = Client::connect(replica_server.local_addr().to_string()).unwrap();
    let r = replica_client.admin_repl().unwrap();
    assert_eq!(r.get_field("role").as_str().unwrap(), "replica");
    assert!(r.get_field("connected").as_bool().unwrap());
    assert_eq!(r.get_field("lag_bytes").as_int().unwrap(), 0);
    assert_eq!(r.get_field("primary").as_str().unwrap(), primary_addr);

    // `ADMIN HEALTH` on a replica carries the replication block too.
    let h = replica_client.admin_health().unwrap();
    assert_eq!(h.get_field("status").as_str().unwrap(), "replica");

    // Kill the primary: the replica flips to disconnected and staleness
    // starts climbing, while reads keep working.
    server.shutdown().unwrap();
    drop(primary_client);
    wait_until("disconnect detection", || !runner.status().is_connected());
    let r = replica_client.admin_repl().unwrap();
    assert!(!r.get_field("connected").as_bool().unwrap());
    assert!(replica_client.kv_get("cart", "missing").unwrap().is_none());

    runner.stop();
    replica_server.shutdown().unwrap();
}
