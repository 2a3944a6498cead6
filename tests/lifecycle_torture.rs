//! Request-lifecycle torture suite. Built only with `--features
//! failpoints` (see the `[[test]]` entry in Cargo.toml); `scripts/ci.sh`
//! runs it.
//!
//! Tortures the three legs of request-lifecycle hardening end to end,
//! through the real client/server stack:
//!
//!   1. **Deadlines** — a query slowed by the `query.eval_tick` failpoint
//!      is aborted cooperatively once the client's deadline (or the
//!      server's own `max_query_time` cap) expires, surfacing as a
//!      retryable `deadline_exceeded` error on a connection that stays
//!      healthy.
//!   2. **Degraded read-only mode** — an injected fsync failure
//!      (`wal.sync=error`) latches the engine read-only: writes fail fast
//!      with `read_only`, reads keep answering, `ADMIN HEALTH` reports
//!      `degraded`, and only a reopen (restart after the disk is fixed)
//!      clears the latch.
//!   3. **Client retry** — a pool under a [`RetryPolicy`] completes a
//!      read workload across dropped connections and checkout pressure
//!      with zero caller-visible errors, counting its retries in
//!      [`PoolStats`].
//!
//! Leg 1 holds only if every operator that iterates rows ticks per row;
//! `every_row_iterating_operator_ticks_per_row` counts the ticks. A tick
//! checks the token on a query's first tick, on every 64th after it and
//! whenever its failpoint fired: `an_expired_token_fails_the_first_tick`
//! and `a_delayed_tick_is_checked_at_once` hold it to that.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use mmdb::paper::RECOMMENDATION;
use mmdb::substrate::query::exec::execute_plan;
use mmdb::substrate::query::optimize::optimize;
use mmdb::substrate::query::parse_query;
use mmdb::substrate::query::plan::{build_plan, Plan, PlanNode};
use mmdb::substrate::txn::IsolationLevel;
use mmdb::substrate::types::CancelToken;
use mmdb::{fault, Database, Value};
use mmdb_client::{Client, ClientConfig, Pool, PoolConfig, RetryPolicy};
use mmdb_protocol::Request;
use mmdb_server::{Server, ServerConfig};

/// Failpoints are process-global, so the tests in this binary serialize
/// (even the ones that arm nothing: a concurrently armed `delay` would
/// slow their queries).
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
    let dir = std::env::temp_dir().join(format!("mmdb-lifecycle-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seed the paper scenario (the same data `tests/crash_recovery.rs`
/// uses), enough for the recommendation query to do real cross-model
/// work: relational customers, a social graph, a kv cart, and document
/// orders.
fn seed(db: &Database) {
    use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
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
            )
            .map(|_| ())
        })
        .unwrap();
    }
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        s.add_edge("social", "knows", "persons/1", "persons/2", mmdb::from_json("{}").unwrap())
            .map(|_| ())
    })
    .unwrap();
    db.kv_put("cart", "2", Value::str("0c6df508")).unwrap();
    db.insert_json(
        "orders",
        r#"{"_key":"0c6df508","orderlines":[
            {"product_no":"2724f","product_name":"Toy","price":66},
            {"product_no":"3424g","product_name":"Book","price":40}]}"#,
    )
    .unwrap();
}

fn oracle() -> Vec<Value> {
    vec![Value::str("2724f"), Value::str("3424g")]
}

#[test]
fn a_client_deadline_aborts_a_slow_query_with_a_retryable_error() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory());
    seed(&db);
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();

    // Sanity: with a generous deadline the query answers normally.
    assert_eq!(
        client.query_with_deadline(RECOMMENDATION, Duration::from_secs(10)).unwrap(),
        oracle()
    );

    // Slow every executor tick down; a 100ms deadline now expires after a
    // handful of iterations and the query aborts cooperatively.
    fault::set("query.eval_tick", "delay(25)").unwrap();
    let err = client
        .query_with_deadline(RECOMMENDATION, Duration::from_millis(100))
        .expect_err("the deadline must abort the slowed query");
    fault::clear_all();
    assert_eq!(err.kind(), "deadline_exceeded", "{err}");
    assert!(err.is_retryable(), "deadline_exceeded must invite a retry");

    // The error travelled the wire as a clean response: the same
    // connection serves the same query to completion once the delay is
    // gone.
    assert_eq!(client.query(RECOMMENDATION).unwrap(), oracle());
    server.shutdown().unwrap();
}

#[test]
fn the_server_cap_bounds_queries_that_carry_no_deadline() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory());
    seed(&db);
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig { max_query_time: Duration::from_millis(80), ..ServerConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();

    fault::set("query.eval_tick", "delay(25)").unwrap();
    // No client deadline at all: the server's own budget is the backstop.
    let err = client.query(RECOMMENDATION).expect_err("the server cap must fire");
    // A client deadline can only shorten the budget, never extend it.
    let err2 = client
        .query_with_deadline(RECOMMENDATION, Duration::from_secs(3600))
        .expect_err("a huge client deadline must not override the cap");
    fault::clear_all();
    assert_eq!(err.kind(), "deadline_exceeded", "{err}");
    assert_eq!(err2.kind(), "deadline_exceeded", "{err2}");
    server.shutdown().unwrap();
}

/// The executor checks its token on the first tick of a query, then on
/// every 64th: an expired token fails a query that ticks once, even
/// after ticks that left the countdown between checks (a plan run
/// through `exec::execute_plan`, outside any scope).
#[test]
fn an_expired_token_fails_the_first_tick() {
    let _serial = lock();
    let db = Database::in_memory();
    let unscoped = plan(&db, "FOR x IN [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] RETURN x");
    assert_eq!(execute_plan(db.world(), &unscoped).unwrap().len(), 10);
    let expired = CancelToken::with_timeout(Duration::ZERO);
    let before = fault::hits("query.eval_tick");
    let err = db.query_with("RETURN 1", &expired).expect_err("an expired token must fail the query");
    assert_eq!(fault::hits("query.eval_tick") - before, 1, "the query ticks once");
    assert_eq!(err.kind(), "deadline_exceeded", "{err}");
    let err = db
        .query_traced_with("RETURN 1", &expired)
        .expect_err("an expired token must fail the traced query");
    assert_eq!(err.kind(), "deadline_exceeded", "{err}");
}

/// A tick whose failpoint fired checks the token at once, so a slowed
/// query fails within a few delays of its deadline instead of at the
/// 65th tick, the next one the countdown checks.
#[test]
fn a_delayed_tick_is_checked_at_once() {
    let _serial = lock();
    let db = Arc::new(tick_db());
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();
    // 2 * N ticks: more than 64, so the countdown alone would check again
    // only after 64 delays of 25ms.
    let text = "FOR x IN items RETURN x.n";
    assert_eq!(client.query(text).unwrap().len() as u64, N);
    fault::set("query.eval_tick", "delay(25)").unwrap();
    let before = fault::hits("query.eval_tick");
    let err = client
        .query_with_deadline(text, Duration::from_millis(100))
        .expect_err("the deadline must abort the slowed query");
    let hits = fault::hits("query.eval_tick") - before;
    fault::clear_all();
    assert_eq!(err.kind(), "deadline_exceeded", "{err}");
    assert!(hits <= 8, "{hits} delayed ticks before a 100ms deadline was seen");
    server.shutdown().unwrap();
}

/// A request that panics on the executor pool fails alone: a tagged
/// query (the direct path) and an untagged one (the connection's lane)
/// are each answered `internal`, the lane's panic aborts the
/// transaction open on the connection, no worker is lost (a query still
/// answers after more panicking ones than there are workers), and the
/// server shuts down cleanly.
#[test]
fn a_panicking_pooled_request_is_answered_internal_and_the_pool_lives_on() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory());
    seed(&db);
    let config = ServerConfig::default();
    let workers = config.workers;
    let server = Server::start(Arc::clone(&db), config).unwrap();
    // A request nobody answers fails the test in seconds, not minutes.
    let timeout = ClientConfig { read_timeout: Some(Duration::from_secs(5)), ..Default::default() };
    let mut client = Client::connect_with(server.local_addr().to_string(), timeout).unwrap();
    let query = Request::Query { text: RECOMMENDATION.into(), deadline_ms: None };

    fault::set("query.eval_tick", "panic").unwrap();
    let id = client.submit(&query).unwrap();
    let err = client.receive(id).expect_err("a tagged query that panics");
    assert_eq!(err.kind(), "internal", "{err}");
    client.begin(false).unwrap();
    let err = client.call(&query).expect_err("an untagged query that panics");
    assert_eq!(err.kind(), "internal", "{err}");
    for _ in 0..workers + 1 {
        assert_eq!(client.call(&query).expect_err("a panicking query").kind(), "internal");
    }
    fault::clear_all();

    let err = client.commit().expect_err("the lane's panic aborted the transaction");
    assert_eq!(err.kind(), "txn_closed", "{err}");
    assert_eq!(client.query(RECOMMENDATION).unwrap(), oracle());
    server.shutdown().unwrap();
}

#[test]
fn an_fsync_failure_latches_degraded_read_only_mode_until_reopen() {
    let _serial = lock();
    let dir = fresh_dir("degraded");
    {
        let db = Arc::new(Database::open(&dir).unwrap());
        db.create_bucket("cart").unwrap();
        db.kv_put("cart", "committed", Value::int(1)).unwrap();
        let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr().to_string()).unwrap();
        assert_eq!(client.admin_health().unwrap().get_field("status"), &Value::str("ok"));

        // The write that hits the failing fsync reports the storage error
        // and latches the engine.
        fault::set("wal.sync", "error").unwrap();
        let err = client.kv_put("cart", "doomed", Value::int(2)).unwrap_err();
        assert_eq!(err.kind(), "storage", "{err}");
        fault::clear_all();

        // The latch outlives the fault: the disk may be "fine" again, but
        // the WAL tail's durability is unknowable, so writes stay refused.
        let err = client.kv_put("cart", "rejected", Value::int(3)).unwrap_err();
        assert_eq!(err.kind(), "read_only", "{err}");
        assert!(!err.is_retryable(), "read_only is not retryable on this node");

        // Reads keep serving the committed state...
        assert_eq!(client.kv_get("cart", "committed").unwrap(), Some(Value::int(1)));
        assert_eq!(
            client.query(r#"RETURN KV_GET("cart", "committed")"#).unwrap(),
            vec![Value::int(1)]
        );
        // ...and the health endpoint tells operators to drain writes.
        let health = client.admin_health().unwrap();
        assert_eq!(health.get_field("status"), &Value::str("degraded"));
        assert_ne!(health.get_field("reason"), &Value::Null, "reason must be reported");
        server.shutdown().unwrap();
    }

    // Reopen after the "disk is fixed": recovery replays the log and the
    // latch is gone. The doomed write resurfaces — its records reached the
    // WAL file before the failed fsync, which is exactly the ambiguity
    // (reported-failed but actually durable) that justifies latching
    // instead of letting the engine keep acknowledging writes.
    let db = Database::open(&dir).unwrap();
    assert!(!db.is_degraded(), "a clean reopen clears the latch");
    assert_eq!(db.kv().get("cart", "committed").unwrap(), Some(Value::int(1)));
    assert_eq!(db.kv().get("cart", "doomed").unwrap(), Some(Value::int(2)));
    db.kv_put("cart", "after", Value::int(4)).unwrap();
    assert_eq!(db.kv().get("cart", "after").unwrap(), Some(Value::int(4)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_retrying_pool_rides_through_dropped_connections_without_caller_errors() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory());
    seed(&db);
    // The server reaps idle connections aggressively, killing pooled
    // connections between checkouts — the "injected connection drop".
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig { idle_timeout: Duration::from_millis(100), ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Health checks are disabled (threshold far above the test's
    // lifetime) so the dead connections reach the caller's operation and
    // the *retry* path — not the checkout health check — must absorb them.
    let pool = Pool::new(
        &addr,
        PoolConfig {
            max_size: 2,
            health_check_after: Duration::from_secs(3600),
            ..PoolConfig::default()
        },
    );
    let policy = RetryPolicy {
        max_retries: 8,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(80),
        budget: Duration::from_secs(10),
    };

    for round in 0..4 {
        let rows = pool
            .retry_read(&policy, |c| c.query(RECOMMENDATION))
            .unwrap_or_else(|e| panic!("round {round}: caller saw an error: {e}"));
        assert_eq!(rows, oracle(), "round {round}");
        // Let the server idle-reap the pooled connection before the next
        // read, so that read starts on a dead socket.
        std::thread::sleep(Duration::from_millis(250));
    }
    let stats = pool.stats();
    assert!(
        stats.retries_read >= 1,
        "the workload must actually have retried over dead connections: {stats:?}"
    );
    server.shutdown().unwrap();
}

#[test]
fn checkout_pressure_is_retried_not_surfaced() {
    let _serial = lock();
    let db = Arc::new(Database::in_memory());
    db.create_bucket("cart").unwrap();
    db.kv_put("cart", "k", Value::int(7)).unwrap();
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    // A one-connection pool whose only connection is checked out: `get`
    // times out with a retryable `busy`, and the retry loop wins once the
    // hog lets go.
    let pool = Pool::new(
        &addr,
        PoolConfig {
            max_size: 1,
            checkout_timeout: Duration::from_millis(50),
            ..PoolConfig::default()
        },
    );
    let hog = pool.get().unwrap();
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(hog);
    });
    let policy = RetryPolicy {
        max_retries: 20,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(50),
        budget: Duration::from_secs(10),
    };
    let got = pool.retry_read(&policy, |c| c.kv_get("cart", "k")).unwrap();
    assert_eq!(got, Some(Value::int(7)));
    release.join().unwrap();
    let stats = pool.stats();
    assert!(stats.retries_connect >= 1, "checkout pressure must show up as retries: {stats:?}");
    server.shutdown().unwrap();
}

/// Rows in the tick test's `items` and `persons`.
const N: u64 = 50;
/// Distinct `items.grp` values.
const GROUPS: u64 = 5;
/// The baseline of most tick cases: the scan, then nothing.
const FOR_ITEMS: &str = "FOR x IN items LIMIT 0 RETURN 1";

/// `items`: N documents `{n, grp: n % GROUPS, tags: [n, n + 1]}`, indexed
/// on `n`; `persons`: N vertices, each `knows` the next two.
fn tick_db() -> Database {
    let db = Database::in_memory();
    db.create_collection("items").unwrap();
    db.create_graph("social").unwrap();
    db.create_vertex_collection("social", "persons").unwrap();
    db.create_edge_collection("social", "knows").unwrap();
    let json = |text: String| mmdb::from_json(&text).unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for n in 0..N {
            let doc = format!(r#"{{"n":{n},"grp":{},"tags":[{n},{}]}}"#, n % GROUPS, n + 1);
            s.insert_document("items", json(doc))?;
            s.add_vertex("social", "persons", json(format!(r#"{{"_key":"{n}"}}"#)))?;
        }
        Ok(())
    })
    .unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for n in 0..N {
            for d in 1..=2 {
                let (from, to) = (format!("persons/{n}"), format!("persons/{}", (n + d) % N));
                s.add_edge("social", "knows", &from, &to, json("{}".into()))?;
            }
        }
        Ok(())
    })
    .unwrap();
    db.create_index("items", "n").unwrap();
    db
}

fn plan(db: &Database, text: &str) -> Plan {
    optimize(build_plan(&parse_query(text).unwrap()).unwrap(), db.world())
}

/// The tick cases of one operator, `(query, baseline, rows)`: `query` is
/// `baseline` plus the operator, ahead of a `LIMIT 0` so nothing after
/// it runs, and must tick at least once per row the operator iterates.
/// An exhaustive match: a new operator does not compile without a case.
fn tick_cases(node: &PlanNode) -> Vec<(&'static str, &'static str, u64)> {
    match node {
        // A scan, and a scan that filters its items in place.
        PlanNode::For { .. } => vec![
            (FOR_ITEMS, "LIMIT 0 RETURN 1", N),
            ("FOR x IN items FILTER x.grp >= 0 LIMIT 0 RETURN 1", "LIMIT 0 RETURN 1", N),
        ],
        PlanNode::IndexScan { .. } => {
            vec![("FOR x IN items FILTER x.n >= 10 LIMIT 0 RETURN 1", "LIMIT 0 RETURN 1", N - 10)]
        }
        PlanNode::HashJoin { .. } => vec![
            // The build side: N items hashed for one probe that matches none.
            (
                "FOR p IN [-1] FOR x IN items FILTER x.n == p LIMIT 0 RETURN 1",
                "FOR p IN [-1] LIMIT 0 RETURN 1",
                N,
            ),
            // The probe side: N probes with one match each, plus the build.
            (
                "FOR p IN items FOR x IN items FILTER x.n == p.n LIMIT 0 RETURN 1",
                "FOR p IN items LIMIT 0 RETURN 1",
                3 * N,
            ),
        ],
        PlanNode::Traverse { .. } => vec![(
            r#"FOR x IN items FOR v IN 1..1 OUTBOUND CONCAT("persons/", x.n) knows LIMIT 0 RETURN 1"#,
            FOR_ITEMS,
            2 * N,
        )],
        // After a LET: a filter right after a scan moves into it.
        PlanNode::Filter(_) => vec![(
            "FOR x IN items LET g = x.grp FILTER g >= 0 LIMIT 0 RETURN 1",
            "FOR x IN items LET g = x.grp LIMIT 0 RETURN 1",
            N,
        )],
        // N rows, each running a subquery that scans and returns 2 tags.
        PlanNode::Let { .. } => vec![(
            "FOR x IN items LET t = (FOR y IN x.tags RETURN y) LIMIT 0 RETURN 1",
            FOR_ITEMS,
            N + N * 2 * 2,
        )],
        PlanNode::Sort(_) => vec![("FOR x IN items SORT x.n DESC LIMIT 0 RETURN 1", FOR_ITEMS, N)],
        // Iterates nothing: asserts exactly no extra tick.
        PlanNode::Limit { .. } => vec![("FOR x IN items LIMIT 10 LIMIT 0 RETURN 1", FOR_ITEMS, 0)],
        // N rows grouped, GROUPS groups emitted, N members aggregated.
        PlanNode::Collect { .. } => vec![(
            "FOR x IN items COLLECT g = x.grp AGGREGATE m = MAX(x.n) LIMIT 0 RETURN 1",
            FOR_ITEMS,
            N + GROUPS + N,
        )],
        // N rows, all distinct, checked; the baseline returns the same
        // rows without DISTINCT, so it plans no Dedup.
        PlanNode::Dedup(_) => vec![(
            "FOR x IN items FOR y IN [x.n] RETURN DISTINCT TO_STRING(y)",
            "FOR x IN items FOR y IN [x.n] RETURN TO_STRING(y)",
            N,
        )],
    }
}

/// Every operator that iterates rows calls `cancel::tick()` per row, so
/// a deadline reaches it: counted as `query.eval_tick` evaluations.
#[test]
fn every_row_iterating_operator_ticks_per_row() {
    let _serial = lock();
    let db = tick_db();
    let ticks = |text: &str| {
        let before = fault::hits("query.eval_tick");
        db.query(text).unwrap();
        fault::hits("query.eval_tick") - before
    };
    // One plan holding every operator picks the cases. The Dedup goes
    // after the Collect, behind the last row-counting node: the traversal
    // multiplies the rows of `x` and `y`, and is the last node to read
    // either.
    let tour = plan(
        &db,
        r#"FOR p IN [-1]
             SORT p
             LIMIT 5
             COLLECT g = p AGGREGATE m = MAX(p)
             FOR x IN items FILTER x.n >= 10
             FOR y IN items FILTER y.n == x.n
             FOR v IN 1..1 OUTBOUND CONCAT("persons/", x.n, y.n) knows
             FILTER v != null
             LET t = (FOR z IN v.tags RETURN z)
             RETURN DISTINCT t"#,
    );
    assert_eq!(tour.nodes.len(), 10, "one node per operator:\n{}", tour.explain());
    for node in &tour.nodes {
        for (query, baseline, rows) in tick_cases(node) {
            let kind = std::mem::discriminant(node);
            assert!(
                plan(&db, query).nodes.iter().any(|n| std::mem::discriminant(n) == kind),
                "{query:?} does not plan a {}",
                node.describe()
            );
            let extra = ticks(query) - ticks(baseline);
            if rows == 0 {
                assert_eq!(extra, 0, "{query:?} iterates nothing but ticked");
            } else {
                assert!(extra >= rows, "{query:?}: {extra} ticks for {rows} rows");
            }
        }
    }
    // The RETURN projection is not a plan node.
    let extra = ticks("FOR x IN items RETURN 1") - ticks(FOR_ITEMS);
    assert!(extra >= N, "RETURN: {extra} ticks for {N} rows");
}
