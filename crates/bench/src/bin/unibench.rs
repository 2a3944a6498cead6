//! The UniBench harness: runs Workloads A, B and C on the multi-model
//! engine and the polyglot baseline, and the E4–E9 ablations
//! (`mmdb_bench::ablations`), and prints the tables that EXPERIMENTS.md
//! records.
//!
//! ```text
//! unibench [--scale 0.5] [--workload a|b|c|r|p|ablations|all] [--seed 42]
//! ```
//!
//! Workload P (pipelining; opt-in, not part of `all`) measures
//! request-parallel QPS over hot connections at pipeline depth 1 vs 32
//! while thousands of idle connections sit on the same server. The idle
//! connections live in a re-exec'd child process (`--idle-holder`, an
//! internal mode) so the bench process's fd budget is not shared with
//! the server's.

use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mmdb_bench::gen::{self, Dataset};
use mmdb_bench::polyglot::PolyglotStores;
use mmdb_bench::report::{fmt_duration, fmt_throughput, TextTable};
use mmdb_bench::workloads;
use mmdb_client::Client;
use mmdb_core::Database;
use mmdb_protocol::{Request, SessionOp};
use mmdb_server::{Server, ServerConfig};
use mmdb_txn::IsolationLevel::{Serializable, Snapshot};
use mmdb_types::Value;

struct Args {
    scale: f64,
    workload: String,
    seed: u64,
    /// Writer-thread counts for the concurrent Workload C section.
    writers: Vec<usize>,
    /// Workload P: idle connections parked on the server.
    idle_conns: usize,
    /// Workload P: hot client threads issuing requests.
    hot_conns: usize,
    /// Workload P: requests per hot connection per depth.
    pipeline_ops: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.5,
        workload: "all".into(),
        seed: 42,
        writers: vec![1, 8, 64],
        idle_conns: 10_000,
        hot_conns: 100,
        pipeline_ops: 512,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(0.5),
            "--workload" => args.workload = it.next().unwrap_or_else(|| "all".into()),
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(42),
            "--writers" => {
                args.writers = it
                    .next()
                    .map(|v| v.split(',').filter_map(|w| w.parse().ok()).collect())
                    .filter(|v: &Vec<usize>| !v.is_empty())
                    .unwrap_or_else(|| vec![1, 8, 64]);
            }
            "--idle-conns" => {
                args.idle_conns = it.next().and_then(|v| v.parse().ok()).unwrap_or(10_000)
            }
            "--hot-conns" => {
                args.hot_conns = it.next().and_then(|v| v.parse().ok()).unwrap_or(100)
            }
            "--pipeline-ops" => {
                args.pipeline_ops = it.next().and_then(|v| v.parse().ok()).unwrap_or(512)
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    // Internal re-exec mode: hold N idle connections open from a child
    // process (its own fd budget), then park until stdin closes.
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--idle-holder") {
        idle_holder(&argv[2], argv[3].parse().expect("idle-holder count"));
        return;
    }
    let args = parse_args();
    println!("UniBench — scale {}, seed {}\n", args.scale, args.seed);
    let data = gen::generate(args.scale, args.seed);
    println!(
        "data set: {} customers, {} knows-edges, {} products, {} orders, {} feedback entries\n",
        data.customers.len(),
        data.knows.len(),
        data.products.len(),
        data.orders.len(),
        data.feedback.len()
    );
    let run_a = args.workload == "all" || args.workload == "a";
    let run_b = args.workload == "all" || args.workload == "b";
    let run_c = args.workload == "all" || args.workload == "c";
    let run_r = args.workload == "all" || args.workload == "r" || args.workload == "recovery";
    let run_p = args.workload == "p" || args.workload == "pipeline";
    let run_ablations = args.workload == "all" || args.workload == "ablations";

    if run_a {
        workload_a(&data);
    }
    if run_b {
        workload_b(&data);
    }
    if run_c {
        workload_c(&data);
        workload_c_writers(&data, &args.writers);
    }
    if run_r {
        workload_recovery(&data);
    }
    if run_ablations {
        for (title, run) in mmdb_bench::ablations::ALL {
            println!("== {title} ==");
            println!("{}", run(args.scale).expect(title).render());
        }
    }
    if run_p {
        workload_pipeline(&args);
    }
}

/// `--idle-holder <addr> <count>`: connect `count` clients, report
/// readiness on stdout, hold the connections until stdin closes.
fn idle_holder(addr: &str, count: usize) {
    let mut conns = Vec::with_capacity(count);
    for i in 0..count {
        match Client::connect(addr) {
            Ok(c) => conns.push(c),
            Err(e) => {
                println!("error connecting idle conn {i}: {e}");
                let _ = std::io::stdout().flush();
                return;
            }
        }
    }
    println!("ready {}", conns.len());
    let _ = std::io::stdout().flush();
    let mut sink = String::new();
    let _ = std::io::stdin().lock().read_line(&mut sink);
}

/// Hot threads each drive one connection at the given pipeline depth:
/// submit a window of KvGets, then receive them all, until
/// `ops_per_thread` requests have completed. Depth 1 degenerates to
/// strict request/response.
fn run_pipeline_depth(
    addr: &str,
    hot: usize,
    depth: usize,
    ops_per_thread: usize,
) -> (usize, Duration) {
    let barrier = Arc::new(Barrier::new(hot + 1));
    let handles: Vec<_> = (0..hot)
        .map(|t| {
            let addr = addr.to_string();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("hot connect");
                barrier.wait();
                let mut done = 0usize;
                while done < ops_per_thread {
                    let window = depth.min(ops_per_thread - done);
                    let ids: Vec<u64> = (0..window)
                        .map(|i| {
                            let key = format!("k{}", (t * 31 + done + i) % 1024);
                            client
                                .submit(&Request::Op(SessionOp::KvGet {
                                    bucket: "cart".into(),
                                    key,
                                }))
                                .expect("submit")
                        })
                        .collect();
                    for id in ids {
                        client.receive(id).expect("receive");
                    }
                    done += window;
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("hot thread");
    }
    (hot * ops_per_thread, t0.elapsed())
}

/// Workload P: pipelined request throughput with a cold-connection
/// backdrop. Parks `idle_conns` handshaken-but-silent connections (in a
/// child process), then measures `hot_conns` threads running
/// `pipeline_ops` KvGets each at depth 1 vs depth 32 against the same
/// server. Idle connections cost one parked reader thread each and no
/// executor-pool slots, so the hot path's QPS must not degrade with
/// them present; the depth-32 row shows the win from batching frames
/// across the connection, the executor lane, and the outbound writer.
fn workload_pipeline(args: &Args) {
    println!("== Workload P: pipelined request throughput ==");
    let db = Arc::new(Database::in_memory());
    db.create_bucket("cart").expect("bucket");
    for i in 0..1024 {
        db.kv_put("cart", &format!("k{i}"), Value::int(i)).expect("seed key");
    }
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: args.idle_conns + args.hot_conns + 16,
            idle_timeout: Duration::from_secs(3600),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let mut child = None;
    if args.idle_conns > 0 {
        let exe = std::env::current_exe().expect("current_exe");
        let mut c = std::process::Command::new(exe)
            .arg("--idle-holder")
            .arg(&addr)
            .arg(args.idle_conns.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn idle holder");
        let mut ready = String::new();
        BufReader::new(c.stdout.take().expect("holder stdout"))
            .read_line(&mut ready)
            .expect("holder readiness");
        assert!(
            ready.starts_with("ready"),
            "idle holder failed: {}",
            ready.trim()
        );
        println!("parked {} idle connections", args.idle_conns);
        child = Some(c);
    }

    let mut table =
        TextTable::new(&["depth", "idle conns", "hot conns", "ops", "elapsed", "throughput"]);
    for depth in [1usize, 32] {
        let (ops, elapsed) =
            run_pipeline_depth(&addr, args.hot_conns, depth, args.pipeline_ops);
        table.row(&[
            depth.to_string(),
            args.idle_conns.to_string(),
            args.hot_conns.to_string(),
            ops.to_string(),
            fmt_duration(elapsed),
            fmt_throughput(ops, elapsed),
        ]);
    }
    println!("{}", table.render());

    if let Some(mut c) = child {
        drop(c.stdin.take());
        let _ = c.wait();
    }
    server.shutdown().expect("server shutdown");
}

fn fresh_loaded(data: &Dataset) -> Database {
    let db = Database::in_memory();
    workloads::create_mmdb_schema(&db).expect("schema");
    workloads::load_mmdb(&db, data).expect("load");
    db.create_fulltext_index("feedback_text", "feedback", "text").expect("ft");
    db
}

fn workload_a(data: &Dataset) {
    println!("== Workload A: insertion and reading ==");
    let mut table = TextTable::new(&["operation", "backend", "items", "elapsed", "throughput"]);

    // Loading, multi-model: Sessions, 64 writes per commit.
    let t0 = Instant::now();
    let db = fresh_loaded(data);
    let mm_load = t0.elapsed();
    let items = data.customers.len() + data.knows.len() + data.products.len()
        + data.orders.len() + data.carts.len() + data.feedback.len();
    table.row(&[
        "load (64 writes/txn)".into(),
        "mmdb".into(),
        items.to_string(),
        fmt_duration(mm_load),
        fmt_throughput(items, mm_load),
    ]);

    // Bulk insertion, polyglot.
    let t0 = Instant::now();
    let poly = PolyglotStores::new().expect("stores");
    poly.load(data).expect("load");
    let pg_load = t0.elapsed();
    let pg_items = items - data.feedback.len(); // baseline has no text store
    table.row(&[
        "bulk insert".into(),
        "polyglot".into(),
        pg_items.to_string(),
        fmt_duration(pg_load),
        fmt_throughput(pg_items, pg_load),
    ]);

    // Transactional insertion (mmdb only — the baseline has no txns).
    let db2 = Database::in_memory();
    workloads::create_mmdb_schema(&db2).expect("schema");
    let n = 200.min(data.orders.len());
    let t0 = Instant::now();
    for o in data.orders.iter().take(n) {
        db2.transact(Snapshot, 3, |s| {
            s.insert_document("orders", o.to_document())
        })
        .expect("txn insert");
    }
    let d = t0.elapsed();
    table.row(&[
        "txn insert (WAL'd)".into(),
        "mmdb".into(),
        n.to_string(),
        fmt_duration(d),
        fmt_throughput(n, d),
    ]);

    // Point reads across all four models.
    let n_reads = 2000;
    let t0 = Instant::now();
    let mut check = 0;
    for i in 0..n_reads {
        check += workloads::workload_a_read(&db, data, i).expect("read");
    }
    let d = t0.elapsed();
    assert_eq!(check, n_reads * 4);
    table.row(&[
        "4-model point read".into(),
        "mmdb".into(),
        (n_reads * 4).to_string(),
        fmt_duration(d),
        fmt_throughput(n_reads * 4, d),
    ]);
    println!("{}", table.render());
}

fn workload_b(data: &Dataset) {
    println!("== Workload B: cross-model queries ==");
    let db = fresh_loaded(data);
    let poly = PolyglotStores::new().expect("stores");
    poly.load(data).expect("load");

    let mut table = TextTable::new(&["query", "backend", "results", "elapsed"]);

    // Q2: the paper's recommendation query.
    let t0 = Instant::now();
    let mm = workloads::q2_mmdb(&db, 3000).expect("q2");
    let mm_d = t0.elapsed();
    let t0 = Instant::now();
    let pg = poly.recommendation_query(3000).expect("q2");
    let pg_d = t0.elapsed();
    assert_eq!(mm, pg, "Q2 results must agree");
    table.row(&["Q2 recommendation (rel⋈graph⋈kv⋈doc)".into(), "mmdb (MMQL)".into(), mm.len().to_string(), fmt_duration(mm_d)]);
    table.row(&["Q2 recommendation (rel⋈graph⋈kv⋈doc)".into(), "polyglot (app joins)".into(), pg.len().to_string(), fmt_duration(pg_d)]);

    // Q3: text + documents.
    let t0 = Instant::now();
    let hits = workloads::q3_mmdb(&db, "toys", "great").expect("q3");
    table.row(&["Q3 reviews (text⋈doc)".into(), "mmdb (MMQL)".into(), hits.len().to_string(), fmt_duration(t0.elapsed())]);

    // Q4: aggregation join — naive correlated form, COLLECT rewrite, and
    // the hand-written baseline.
    let t0 = Instant::now();
    let mm4 = workloads::q4_mmdb(&db).expect("q4");
    let mm4_d = t0.elapsed();
    let t0 = Instant::now();
    let mm4g = workloads::q4_mmdb_grouped(&db).expect("q4 grouped");
    let mm4g_d = t0.elapsed();
    let t0 = Instant::now();
    let pg4 = poly.spend_per_customer().expect("q4");
    let pg4_d = t0.elapsed();
    assert_eq!(mm4, pg4, "Q4 results must agree");
    assert_eq!(mm4g, pg4, "Q4 rewrite must agree");
    table.row(&["Q4 spend per customer (rel⋈doc agg)".into(), "mmdb (naive MMQL)".into(), mm4.len().to_string(), fmt_duration(mm4_d)]);
    table.row(&["Q4 spend per customer (rel⋈doc agg)".into(), "mmdb (COLLECT rewrite)".into(), mm4g.len().to_string(), fmt_duration(mm4g_d)]);
    table.row(&["Q4 spend per customer (rel⋈doc agg)".into(), "polyglot (app joins)".into(), pg4.len().to_string(), fmt_duration(pg4_d)]);

    // Q5: 2-hop graph + kv + doc.
    let t0 = Instant::now();
    let circle = workloads::q5_mmdb(&db, 5).expect("q5");
    table.row(&["Q5 friend-circle purchases (graph 2-hop)".into(), "mmdb (MMQL)".into(), circle.len().to_string(), fmt_duration(t0.elapsed())]);

    println!("{}", table.render());
}

fn workload_c(data: &Dataset) {
    println!("== Workload C: cross-model transactions ==");
    let db = fresh_loaded(data);
    let poly = PolyglotStores::new().expect("stores");
    poly.load(data).expect("load");

    let n_txns = 300.min(data.customers.len());
    let mut table = TextTable::new(&["metric", "mmdb", "polyglot"]);

    // Throughput of the new-order transaction.
    let t0 = Instant::now();
    for i in 0..n_txns {
        let order = order_for(i, "mm");
        workloads::place_order_mmdb(&db, Snapshot, (i % data.customers.len()) as i64 + 1, &order)
            .expect("place order");
    }
    let mm_d = t0.elapsed();
    let t0 = Instant::now();
    for i in 0..n_txns {
        let order = order_for(i, "pg");
        poly.place_order_non_atomic((i % data.customers.len()) as i64 + 1, &order, None)
            .expect("place order");
    }
    let pg_d = t0.elapsed();
    table.row(&[
        format!("new-order txns ({n_txns})"),
        format!("{} ({})", fmt_duration(mm_d), fmt_throughput(n_txns, mm_d)),
        format!("{} ({})", fmt_duration(pg_d), fmt_throughput(n_txns, pg_d)),
    ]);
    // The same transaction, serializable: its reads are validated at commit.
    let t0 = Instant::now();
    for i in 0..n_txns {
        let cid = (i % data.customers.len()) as i64 + 1;
        workloads::place_order_mmdb(&db, Serializable, cid, &order_for(i, "ser"))
            .expect("place order");
    }
    let ser_d = t0.elapsed();
    table.row(&[
        format!("new-order txns ({n_txns}), serializable"),
        format!("{} ({})", fmt_duration(ser_d), fmt_throughput(n_txns, ser_d)),
        "n/a (no txn layer)".into(),
    ]);

    // Atomicity under injected crashes: crash 1 in 5 "transactions"
    // between store writes.
    let db2 = fresh_loaded(data);
    let poly2 = PolyglotStores::new().expect("stores");
    poly2.load(data).expect("load");
    let mut mm_failed = 0;
    let mut pg_incomplete = 0;
    for i in 0..n_txns {
        let cid = (i % data.customers.len()) as i64 + 1;
        let crash = if i % 5 == 0 { Some(1 + i % 3) } else { None };
        let order = order_for(i, "crash");
        if crash.is_some() {
            // mmdb: a crash mid-transaction = the txn never commits.
            let mut s = db2.begin(Snapshot);
            let _ = s.insert_document("orders", order.clone());
            let _ = s.kv_put("cart", &cid.to_string(), order.get_field("_key").clone());
            s.abort(); // crash before commit
            mm_failed += 1;
            if !poly2.place_order_non_atomic(cid, &order, crash).expect("po") {
                pg_incomplete += 1;
            }
        } else {
            workloads::place_order_mmdb(&db2, Snapshot, cid, &order).expect("place order");
            poly2.place_order_non_atomic(cid, &order, None).expect("place order");
        }
    }
    let mm_bad = 0; // by construction: aborted txns leave nothing behind
    let pg_bad = poly2.count_inconsistencies().expect("count");
    table.row(&[
        format!("injected crashes ({mm_failed})"),
        "all rolled back".into(),
        format!("{pg_incomplete} partial writes"),
    ]);
    table.row(&[
        "dangling cross-store states".into(),
        mm_bad.to_string(),
        pg_bad.to_string(),
    ]);
    let (commits, aborts) = db2.mvcc().stats();
    table.row(&[
        "mvcc commits/aborts".into(),
        format!("{commits}/{aborts}"),
        "n/a (no txn layer)".into(),
    ]);
    println!("{}", table.render());
    assert!(pg_bad > 0, "the crash injection should have produced polyglot inconsistencies");
}

/// Workload C under concurrency: the same new-order transaction fired
/// from N writer threads against one shared database. This is the
/// group-commit showcase — all writers' commits sequence through one
/// leader, so the fsync count stays near the batch count while
/// throughput scales with writers.
fn workload_c_writers(data: &Dataset, writer_counts: &[usize]) {
    println!("== Workload C: concurrent writers (group commit) ==");
    const TOTAL_TXNS: usize = 256;
    let n_customers = data.customers.len();
    let mut table = TextTable::new(&[
        "writers", "txns", "elapsed", "throughput", "batches", "max batch", "fsyncs saved",
    ]);
    for &writers in writer_counts {
        let writers = writers.max(1);
        let per_writer = TOTAL_TXNS.div_ceil(writers);
        let db = std::sync::Arc::new(fresh_loaded(data));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let db = std::sync::Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        // Spread customers across writers so row-update
                        // conflicts stay rare; retry the retryable rest.
                        let cid = ((t + i * writers) % n_customers) as i64 + 1;
                        let order = order_for(t * per_writer + i, &format!("w{writers}"));
                        loop {
                            match workloads::place_order_mmdb(&db, Snapshot, cid, &order) {
                                Ok(()) => break,
                                Err(e) if e.is_retryable() => continue,
                                Err(e) => panic!("place order: {e}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        let elapsed = t0.elapsed();
        let txns = per_writer * writers;
        let g = db.mvcc().group_commit_stats();
        table.row(&[
            writers.to_string(),
            txns.to_string(),
            fmt_duration(elapsed),
            fmt_throughput(txns, elapsed),
            g.batches.to_string(),
            g.max_group_size.to_string(),
            g.fsyncs_saved.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// Time-to-reopen: how long `Database::open` takes to bring a durable
/// database back, replaying the full history vs a checkpointed log — its
/// image block (the history's fold) plus the marker. The no-checkpoint
/// reopen replays every record the load produced.
fn workload_recovery(data: &Dataset) {
    println!("== Recovery: time-to-reopen, full history vs checkpointed log ==");
    let dir =
        std::env::temp_dir().join(format!("mmdb-unibench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).expect("open");
    workloads::create_mmdb_schema(&db).expect("schema");
    workloads::load_mmdb(&db, data).expect("load");
    let wal_replay_bytes = db.wal_size_bytes();
    drop(db);

    let mut table = TextTable::new(&["reopen", "wal bytes", "elapsed"]);
    let t0 = Instant::now();
    let db = Database::open(&dir).expect("reopen");
    let replay = t0.elapsed();
    table.row(&["full history".into(), wal_replay_bytes.to_string(), fmt_duration(replay)]);

    db.checkpoint().expect("checkpoint");
    let wal_image_bytes = db.wal_size_bytes();
    drop(db);
    let t0 = Instant::now();
    let db = Database::open(&dir).expect("reopen");
    let image = t0.elapsed();
    drop(db);
    table.row(&["checkpoint image".into(), wal_image_bytes.to_string(), fmt_duration(image)]);
    println!("{}", table.render());
    let _ = std::fs::remove_dir_all(&dir);
}

fn order_for(i: usize, tag: &str) -> Value {
    Value::object([
        ("_key", Value::str(format!("obench-{tag}-{i:05}"))),
        ("customer_id", Value::int(i as i64)),
        (
            "orderlines",
            Value::array([Value::object([
                ("product_no", Value::str("p0001")),
                ("product_name", Value::str("bench toy")),
                ("price", Value::int(10)),
            ])]),
        ),
        ("total", Value::int(10)),
    ])
}
