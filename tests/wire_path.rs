//! The request path of one connection: which requests its reader runs
//! itself, when it writes the socket, and that none of it shows on the
//! wire. Replies are the bytes and the order the serial lane would have
//! produced; the read deadline still only runs while a frame is
//! half-arrived; a peer that stops reading is still disconnected; and
//! requests the reader ran are counted like any other.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmdb::{Database, Value};
use mmdb_client::Client;
use mmdb_protocol::{frame, Request, Response, SessionOp, PROTOCOL_VERSION};
use mmdb_server::{Server, ServerConfig};

const MAX: u32 = frame::MAX_FRAME_LEN;

fn start_server(config: ServerConfig) -> (Arc<Database>, Server, String) {
    let db = Arc::new(Database::in_memory());
    db.create_bucket("cart").unwrap();
    db.create_collection("items").unwrap();
    db.kv_put("cart", "seed", Value::str("0c6df508")).unwrap();
    for i in 0..50 {
        db.insert_json("items", &format!("{{\"_key\": \"i{i}\", \"n\": {i}}}")).unwrap();
    }
    serve(db, config)
}

fn serve(db: Arc<Database>, config: ServerConfig) -> (Arc<Database>, Server, String) {
    let server = Server::start(Arc::clone(&db), config).unwrap();
    let addr = server.local_addr().to_string();
    (db, server, addr)
}

fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Raw-socket handshake so tests control frame bytes exactly.
fn raw_handshake(addr: &str) -> TcpStream {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.set_nodelay(true).unwrap();
    let hello = Request::Hello { version: PROTOCOL_VERSION };
    frame::write_frame(&mut raw, &hello.encode(), MAX).unwrap();
    let reply = frame::read_frame(&mut raw, MAX).unwrap();
    assert!(matches!(Response::decode(&reply).unwrap(), Response::Hello { .. }));
    raw
}

fn kv_get(key: &str) -> Request {
    Request::Op(SessionOp::KvGet { bucket: "cart".into(), key: key.into() })
}

fn kv_put(key: &str, value: Value) -> Request {
    Request::Op(SessionOp::KvPut { bucket: "cart".into(), key: key.into(), value })
}

fn inline_requests(server: &Server) -> u64 {
    server.metrics().inline_requests.load(Ordering::Relaxed)
}

/// The issue's sequence: requests the reader runs itself interleaved
/// with ones it must hand to the pool, inside and outside a transaction.
fn mixed_sequence() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Query { text: "FOR x IN items FILTER x.n < 3 RETURN x.n".into(), deadline_ms: None },
        Request::Ping,
        kv_get("seed"),
        Request::Begin { serializable: false },
        kv_put("a", Value::int(1)),
        kv_get("a"),
        Request::Op(SessionOp::GetDocument { collection: "items".into(), key: "i7".into() }),
        Request::Commit,
    ]
}

#[test]
fn untagged_replies_are_the_same_bytes_in_fifo_order_on_either_path() {
    // One request at a time, every connection quiescent between them:
    // the reader runs all but the query and the commit itself.
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut raw = raw_handshake(&addr);
    let mut one_by_one = Vec::new();
    for req in mixed_sequence() {
        frame::write_frame(&mut raw, &req.encode(), MAX).unwrap();
        one_by_one.push(frame::read_frame(&mut raw, MAX).unwrap());
    }
    // The first ping always (the handshake leaves the connection
    // quiescent); the rest unless the writer thread that answered the
    // query was descheduled before it could mark itself idle.
    assert!(inline_requests(&server) >= 1, "the reader ran cheap requests itself");
    server.shutdown().unwrap();

    // The same requests in one write against an identical fresh server:
    // once the query is in the pool the connection is not quiescent, so
    // everything behind it takes the serial lane, as it always has.
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut raw = raw_handshake(&addr);
    let mut batch = Vec::new();
    for req in mixed_sequence() {
        frame::write_frame(&mut batch, &req.encode(), MAX).unwrap();
    }
    raw.write_all(&batch).unwrap();
    let batched: Vec<Vec<u8>> =
        (0..one_by_one.len()).map(|_| frame::read_frame(&mut raw, MAX).unwrap()).collect();
    server.shutdown().unwrap();
    assert_eq!(batched, one_by_one, "both paths must put the same bytes on the wire");

    // And they are the replies the protocol defines, bare (no envelope).
    let decoded: Vec<Response> = batched.iter().map(|p| Response::decode(p).unwrap()).collect();
    assert_eq!(decoded[0], Response::Pong);
    assert_eq!(decoded[1], Response::Rows(vec![Value::int(0), Value::int(1), Value::int(2)]));
    assert_eq!(decoded[2], Response::Pong);
    assert_eq!(decoded[3], Response::Maybe(Some(Value::str("0c6df508"))));
    assert!(matches!(decoded[4], Response::TxnBegun { .. }), "{:?}", decoded[4]);
    assert_eq!(decoded[5], Response::Ok);
    assert_eq!(decoded[6], Response::Maybe(Some(Value::int(1))), "own staged write");
    assert!(matches!(decoded[7], Response::Maybe(Some(_))), "{:?}", decoded[7]);
    assert!(matches!(decoded[8], Response::Committed { .. }), "{:?}", decoded[8]);
    for (payload, resp) in batched.iter().zip(&decoded) {
        assert_eq!(payload, &resp.encode());
    }
}

#[test]
fn tagged_inline_replies_echo_their_id_and_go_out_before_a_later_pooled_reply() {
    let (db, server, addr) = start_server(ServerConfig::default());
    for i in 0..4000 {
        db.insert_json("items", &format!("{{\"n\": {}, \"pad\": \"{:0>64}\"}}", 1000 + i, i)).unwrap();
    }
    let mut raw = raw_handshake(&addr);
    let scan = Request::Query {
        text: "FOR x IN items FILTER x.n >= 1000 RETURN x".into(),
        deadline_ms: None,
    };
    // Two requests the reader answers itself, a slow scan for the pool,
    // and a ping behind it that the pool may finish first.
    let mut batch = Vec::new();
    for (id, req) in [(11, Request::Ping), (12, kv_get("seed")), (13, scan), (14, Request::Ping)] {
        frame::write_frame(&mut batch, &req.encode_with_id(Some(id)), MAX).unwrap();
    }
    raw.write_all(&batch).unwrap();
    let mut arrival = Vec::new();
    for _ in 0..4 {
        let payload = frame::read_frame(&mut raw, MAX).unwrap();
        let (id, resp) = Response::decode_with_id(&payload).unwrap();
        match id {
            Some(11) | Some(14) => assert_eq!(resp, Response::Pong),
            Some(12) => assert_eq!(resp, Response::Maybe(Some(Value::str("0c6df508")))),
            Some(13) => assert!(matches!(resp, Response::Rows(ref r) if r.len() == 4000)),
            other => panic!("unexpected id {other:?}"),
        }
        arrival.push(id.unwrap());
    }
    // The reader flushes its own replies before it enqueues the scan.
    assert_eq!(&arrival[..2], &[11, 12], "arrival order was {arrival:?}");
    assert!(inline_requests(&server) >= 2);
    server.shutdown().unwrap();
}

#[test]
fn an_idle_gap_is_never_cut_and_a_slow_frame_always_is() {
    let (_db, server, addr) = start_server(ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut raw = raw_handshake(&addr);
    let ping = {
        let mut bytes = Vec::new();
        frame::write_frame(&mut bytes, &Request::Ping.encode(), MAX).unwrap();
        bytes
    };
    let expect_pong = |raw: &mut TcpStream| {
        let payload = frame::read_frame(raw, MAX).unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);
    };

    // Gaps between whole frames twice as long as the read timeout.
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(300));
        raw.write_all(&ping).unwrap();
        expect_pong(&mut raw);
    }
    // A frame that arrives in two parts inside the timeout is fine, and
    // the deadline it armed is gone again once the frame is complete.
    let (front, back) = ping.split_at(3);
    raw.write_all(front).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    raw.write_all(back).unwrap();
    expect_pong(&mut raw);
    std::thread::sleep(Duration::from_millis(300));
    raw.write_all(&ping).unwrap();
    expect_pong(&mut raw);

    // Two whole frames and the front of a third in one write: both are
    // answered, then the third's clock runs out.
    let started = Instant::now();
    let mut burst = [ping.as_slice(), ping.as_slice()].concat();
    burst.extend_from_slice(&ping[..ping.len() - 1]);
    raw.write_all(&burst).unwrap();
    expect_pong(&mut raw);
    expect_pong(&mut raw);
    let payload = frame::read_frame(&mut raw, MAX).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Err { kind, message } => {
            assert_eq!(kind, "storage");
            assert!(message.contains("stalled"), "{message}");
        }
        other => panic!("expected a stall error, got {other:?}"),
    }
    assert!(started.elapsed() >= Duration::from_millis(150));
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap(), 0, "server closes the stalled connection");
    server.shutdown().unwrap();
}

#[test]
fn a_stream_that_ends_mid_frame_is_told_so() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut raw = raw_handshake(&addr);
    raw.write_all(&64u32.to_be_bytes()).unwrap();
    raw.write_all(b"half a payload").unwrap();
    raw.shutdown(Shutdown::Write).unwrap();
    let payload = frame::read_frame(&mut raw, MAX).unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Err { kind, message } => {
            assert_eq!(kind, "protocol");
            assert!(message.contains("mid-frame"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    server.shutdown().unwrap();
}

#[test]
fn a_peer_that_stops_reading_a_pure_read_pipeline_is_disconnected() {
    // Every request is a session-less point read, so the connection's
    // reader answers all of them and no writer thread ever exists: the
    // reader's own flush has to notice the peer is gone.
    let (db, server, addr) = start_server(ServerConfig {
        write_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    db.kv_put("cart", "big", Value::str("x".repeat(512 * 1024))).unwrap();
    let mut raw = raw_handshake(&addr);
    let mut batch = Vec::new();
    for id in 1..=128u64 {
        frame::write_frame(&mut batch, &kv_get("big").encode_with_id(Some(id)), MAX).unwrap();
    }
    raw.write_all(&batch).unwrap();
    // Never read: 64 MiB of replies cannot fit in the socket buffers.
    let started = Instant::now();
    eventually("stalled pure-read connection killed", || {
        server.metrics().connections_active.load(Ordering::Relaxed) == 0
    });
    assert!(started.elapsed() >= Duration::from_millis(300), "cut only after write_timeout");

    let mut probe = Client::connect(&addr).unwrap();
    probe.ping().unwrap();
    let stats = probe.admin_stats().unwrap();
    let pipeline = stats.get_field("pipeline");
    assert_eq!(pipeline.get_field("responses_queued"), &Value::int(0));
    assert_eq!(
        pipeline.get_field("responses_queued_peak"),
        &Value::int(0),
        "nothing was ever queued for a writer thread"
    );
    assert!(pipeline.get_field("inline_requests").as_int().unwrap() >= 1);
    server.shutdown().unwrap();
}

#[test]
fn requests_the_reader_ran_are_counted_like_any_other() {
    let (_db, server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let m = server.metrics();
    let total = m.requests_total.load(Ordering::Relaxed);
    let ops = m.command("op").count.load(Ordering::Relaxed);
    let pings = m.command("ping").count.load(Ordering::Relaxed);
    let kv = m.model_ops("kv");
    let docs = m.model_ops("document");
    let inline = inline_requests(&server);

    // 3 pings, 4 session-less reads, begin, 2 staged ops, abort: 11
    // requests, none of which needs the pool on a quiescent connection.
    for _ in 0..3 {
        client.ping().unwrap();
    }
    for _ in 0..3 {
        assert_eq!(client.kv_get("cart", "seed").unwrap(), Some(Value::str("0c6df508")));
    }
    assert!(client.get_document("items", "i3").unwrap().is_some());
    client.begin(false).unwrap();
    client.kv_put("cart", "staged", Value::int(9)).unwrap();
    assert_eq!(client.kv_get("cart", "staged").unwrap(), Some(Value::int(9)));
    client.abort().unwrap();
    // An error reply is a reply: counted, and the connection lives on.
    assert!(client.kv_get("nope", "k").is_err());
    assert!(client.abort().is_err());

    assert_eq!(inline_requests(&server) - inline, 13);
    assert_eq!(m.requests_total.load(Ordering::Relaxed) - total, 13);
    assert_eq!(m.command("ping").count.load(Ordering::Relaxed) - pings, 3);
    assert_eq!(m.command("op").count.load(Ordering::Relaxed) - ops, 7);
    assert_eq!(m.command("op").latency.count(), m.command("op").count.load(Ordering::Relaxed));
    assert_eq!(m.command("op").errors.load(Ordering::Relaxed), 1);
    assert_eq!(m.model_ops("kv") - kv, 6);
    assert_eq!(m.model_ops("document") - docs, 1);

    // Requests that can wait never run on the reader: an auto-commit
    // write, a commit, a serializable session's operations (they queue
    // for locks), a query. The operator sees the split in ADMIN STATS.
    let inline = inline_requests(&server);
    client.kv_put("cart", "auto", Value::int(1)).unwrap();
    client.begin(true).unwrap();
    client.kv_put("cart", "locked", Value::int(2)).unwrap();
    client.commit().unwrap();
    client.query("FOR x IN items FILTER x.n < 2 RETURN x.n").unwrap();
    // (And the BEGIN itself only if the writer thread that answered the
    // auto-commit had marked itself idle by the time it arrived.)
    assert!(inline_requests(&server) - inline <= 1, "at most the BEGIN");
    let stats = client.admin_stats().unwrap();
    assert_eq!(
        stats.get_field("pipeline").get_field("inline_requests"),
        &Value::int(inline_requests(&server) as i64)
    );
    assert_eq!(server.metrics().sessions_reaped.load(Ordering::Relaxed), 0);
    server.shutdown().unwrap();
}

#[test]
fn session_less_reads_leave_no_trace_in_the_transaction_counters() {
    // A point read outside a transaction used to be an auto-commit of an
    // empty write set; served from a bare snapshot it still counts as
    // neither a commit nor an abort.
    let (db, server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let before = db.mvcc().stats();
    for _ in 0..10 {
        client.kv_get("cart", "seed").unwrap();
    }
    assert_eq!(db.mvcc().stats(), before);
    server.shutdown().unwrap();
}

/// A file-backed database (commits fsync a real WAL) behind a server.
/// Debug builds mark every connection's reader hot, so in the two tests
/// below a reader that parked, or queued behind another connection's
/// fsync, would panic instead of answering.
fn start_wal_backed_server(tag: &str) -> (std::path::PathBuf, Arc<Database>, Server, String) {
    let dir = std::env::temp_dir().join(format!("mmdb-wire-path-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(Database::open(&dir).unwrap());
    db.create_bucket("cart").unwrap();
    let (db, server, addr) = serve(db, ServerConfig::default());
    (dir, db, server, addr)
}

#[test]
fn a_serializable_op_queues_for_its_lock_on_the_lane_and_completes_after_the_holder_commits() {
    let (dir, _db, server, addr) = start_wal_backed_server("contend");
    let mut holder = Client::connect(&addr).unwrap();
    let mut waiter = Client::connect(&addr).unwrap();
    holder.begin(true).unwrap();
    holder.kv_put("cart", "k", Value::str("holder")).unwrap();
    waiter.begin(true).unwrap();

    let (granted_tx, granted_rx) = std::sync::mpsc::channel();
    let waiting = std::thread::spawn(move || {
        waiter.kv_put("cart", "k", Value::str("waiter")).unwrap();
        granted_tx.send(()).unwrap();
        waiter.abort().unwrap();
    });
    // The waiter's op is admitted and unanswered: it sits in the lock
    // queue on a pool thread, and stays there while the holder is open.
    eventually("the waiter's op is in flight", || {
        server.metrics().inflight_requests.current() == 1
    });
    assert!(granted_rx.try_recv().is_err(), "granted while the holder still holds the lock");
    holder.commit().unwrap();
    granted_rx.recv_timeout(Duration::from_secs(5)).expect("granted once the holder committed");
    waiting.join().unwrap();
    assert_eq!(holder.kv_get("cart", "k").unwrap(), Some(Value::str("holder")));
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_reader_aborts_a_session_with_staged_writes_while_another_connection_fsyncs() {
    let (dir, db, server, addr) = start_wal_backed_server("abort");
    let commits = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let committer = {
        let (commits, stop, addr) = (Arc::clone(&commits), Arc::clone(&stop), addr.clone());
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            while !stop.load(Ordering::SeqCst) {
                client.kv_put("cart", "durable", Value::int(1)).unwrap();
                commits.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // Every request of this connection is one its reader runs itself, so
    // it stays quiescent and the ABORT is handled where it was read —
    // round after round, until 25 commits have fsynced alongside.
    let mut client = Client::connect(&addr).unwrap();
    let inline = inline_requests(&server);
    let (_, aborts) = db.mvcc().stats();
    let mut rounds = 0u64;
    while commits.load(Ordering::SeqCst) < 25 && !committer.is_finished() {
        client.begin(false).unwrap();
        client.kv_put("cart", "staged", Value::int(rounds as i64)).unwrap();
        client.abort().unwrap();
        rounds += 1;
    }
    stop.store(true, Ordering::SeqCst);
    committer.join().unwrap();
    assert!(rounds > 0);
    assert_eq!(inline_requests(&server) - inline, 3 * rounds);
    assert_eq!(db.mvcc().stats().1 - aborts, rounds);
    assert_eq!(client.kv_get("cart", "staged").unwrap(), None);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}
