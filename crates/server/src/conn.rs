//! Per-connection machinery for the pipelined server.
//!
//! Each connection is three cooperating parts:
//!
//! * a **reader** thread (spawned at accept) that blocks on the socket,
//!   parses every frame one `read` delivered, and is the executor of
//!   first resort: while the connection is *quiescent* (nothing admitted
//!   is unanswered or unwritten) it runs requests that cannot block
//!   itself ([`run_inline`]) and writes their replies with one write
//!   before it next blocks or hands anything to the pool. Everything
//!   else it enqueues onto the shared executor pool — stopping at
//!   `pipeline_depth` requests in flight, which is the whole
//!   backpressure story. The thread is marked *hot* for its life
//!   (`parking_lot::hot_thread`): in debug builds a park, a lock held
//!   across an fsync or an fsync reached from it panics, except under
//!   the three `permit_wait`s below. Lane, pool and writer threads are
//!   deliberately *not* marked: they are where everything that may wait
//!   is sent;
//! * the **executor pool** (shared, `workers` threads) that runs the
//!   requests: stateless tagged requests in parallel, everything
//!   touching session state (and every untagged request, to preserve
//!   legacy request/response ordering) on the connection's *serial
//!   lane* — a queue drained by at most one pool job at a time. A
//!   request that panics there is answered `internal` and fails alone
//!   (a lane request's panic also aborts the connection's session);
//! * a lazily-spawned **writer** thread that batches completed
//!   responses off the outbound queue and writes them with one syscall
//!   per batch. Connections whose requests all ran on the reader (idle
//!   clients, depth-1 point reads, pure-read pipelines) never get one.
//!
//! A connection owns at most one [`Session`]. When the reader retires
//! with the session still open — client vanished, protocol error,
//! shutdown — dropping it aborts the transaction (see
//! `mmdb_core::session`), and the reap is counted in the metrics.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mmdb_core::Session;
use mmdb_protocol::frame::{self, FrameReader};
use mmdb_protocol::{DdlOp, Request, Response, SessionOp, PROTOCOL_VERSION};
use mmdb_repl::feed::{self, CdcBuffer};
use mmdb_storage::wal;
use mmdb_types::{lock_rank, CancelToken, Error, Result, Value};
use mmdb_txn::IsolationLevel;

use parking_lot::{Condvar, Mutex};

use crate::{Job, ServerInner, SERVER_NAME};

/// A connection's read buffer and its reader's reply buffer are this
/// large while idle (they grow to what one message needs and shrink
/// back): 10 000 parked connections must stay cheap.
const IDLE_BUF_BYTES: usize = 1024;

/// The reader writes its replies out early once this many bytes wait:
/// one `read` can deliver many requests, each with a large answer.
const REPLY_FLUSH_BYTES: usize = 64 * 1024;

/// One request parked on a connection's serial lane.
struct LaneJob {
    id: Option<u64>,
    req: Request,
    token: Option<CancelToken>,
    enqueued: Instant,
}

/// State a connection's reader, writer, and executor jobs share.
/// One mutex per connection: the queues are small and the hold times
/// are a few pointer moves.
struct ConnShared {
    /// Completed responses as fully framed bytes, oldest first. Bounded
    /// by construction: the reader admits at most `pipeline_depth`
    /// requests, so at most that many responses can ever be queued
    /// (plus one terminal error frame).
    out: VecDeque<Vec<u8>>,
    /// Requests decoded but not yet answered.
    inflight: usize,
    /// Serial-lane backlog (untagged + session-affecting requests).
    lane: VecDeque<LaneJob>,
    /// Whether a lane-drainer job is in (or queued for) the pool.
    lane_running: bool,
    /// The writer thread, once spawned; the reader joins it on exit.
    writer: Option<JoinHandle<()>>,
    writer_spawned: bool,
    /// The writer popped a batch and is mid-write (the out queue being
    /// empty does not mean the socket is quiet).
    writer_busy: bool,
    /// The writer hit a write error/timeout: the peer stopped reading.
    /// Responses are dropped instead of queued from here on.
    dead: bool,
    /// No more requests will arrive; the writer drains and exits.
    closing: bool,
}

impl ConnShared {
    /// Nothing admitted is unanswered and nothing answered is unwritten.
    /// Only the reader admits requests, so until it does, no pool job,
    /// lane job or writer touches the socket or the session: the reader
    /// may use both.
    fn quiescent(&self) -> bool {
        self.inflight == 0
            && self.lane.is_empty()
            && !self.lane_running
            && self.out.is_empty()
            && !self.writer_busy
    }
}

/// Everything the reaper, shutdown, and executor jobs need to reach a
/// connection. The `TcpStream` is owned here, *unduplicated*: reader
/// and writer do I/O through `&TcpStream` (both halves are independent)
/// and the reaper unblocks the reader with [`TcpStream::shutdown`] —
/// cloning the stream would double the server's fd footprint.
pub(crate) struct ConnHandle {
    pub(crate) id: u64,
    stream: TcpStream,
    epoch: Instant,
    state: Mutex<ConnShared>,
    cv: Condvar,
    /// Milliseconds since `epoch` of the last completed frame read.
    last_activity_ms: AtomicU64,
    /// The reader is mid-frame (first byte arrived): `read_timeout`
    /// governs, not `idle_timeout`.
    mid_frame: AtomicBool,
    /// The connection flipped into replication/CDC push mode.
    streaming: AtomicBool,
    /// The connection's open transaction, if any. Only serial-lane jobs
    /// and the retiring reader touch it; the lane runs one job at a
    /// time, so the lock is uncontended by design.
    session: Mutex<Option<Session>>,
}

impl ConnHandle {
    pub(crate) fn new(id: u64, stream: TcpStream, inner: &ServerInner) -> ConnHandle {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
        ConnHandle {
            id,
            stream,
            epoch: Instant::now(),
            state: Mutex::new(ConnShared {
                out: VecDeque::new(),
                inflight: 0,
                lane: VecDeque::new(),
                lane_running: false,
                writer: None,
                writer_spawned: false,
                writer_busy: false,
                dead: false,
                closing: false,
            }),
            cv: Condvar::new(),
            last_activity_ms: AtomicU64::new(0),
            mid_frame: AtomicBool::new(false),
            streaming: AtomicBool::new(false),
            session: Mutex::with_rank(lock_rank::SERVER_SESSION, None),
        }
    }

    /// Unblock a reader parked in a blocking read by shutting the
    /// socket's read half down: the reader sees EOF and retires
    /// cleanly. The write half stays up so queued responses still
    /// flush. Used by the idle reaper and by graceful shutdown.
    pub(crate) fn unblock_reader(&self) {
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    /// Milliseconds since the last completed frame read (or since
    /// accept).
    pub(crate) fn idle_for_ms(&self) -> u64 {
        let now = self.epoch.elapsed().as_millis() as u64;
        now.saturating_sub(self.last_activity_ms.load(Ordering::Relaxed)) // relaxed: idle-time heuristic read by the reaper; no synchronization role
    }

    /// Whether the idle reaper may close this connection: nothing in
    /// flight, nothing queued, no frame mid-read, not a push stream.
    pub(crate) fn reapable(&self) -> bool {
        if self.mid_frame.load(Ordering::Relaxed) || self.streaming.load(Ordering::Relaxed) { // relaxed: reaper heuristic; a racing frame start is re-checked next tick
            return false;
        }
        self.state.lock().quiescent()
    }

    /// Whether the connection is quiescent, giving a writer that has
    /// written its last batch (or a lane drainer that ran its last job)
    /// but has not yet been scheduled a moment to say so: the
    /// peer can answer a reply faster than the thread that sent it gets
    /// the CPU back, and without this a depth-1 client that follows a
    /// pooled request with cheap ones could stay on the pool path.
    fn settled(&self) -> bool {
        for _ in 0..3 {
            {
                let st = self.state.lock();
                if st.quiescent() {
                    return true;
                }
                if st.inflight > 0 || !st.lane.is_empty() || !st.out.is_empty() {
                    return false;
                }
            }
            std::thread::yield_now();
        }
        false
    }

    fn note_activity(&self) {
        let now = self.epoch.elapsed().as_millis() as u64;
        self.last_activity_ms.store(now, Ordering::Relaxed); // relaxed: idle-time heuristic read by the reaper; no synchronization role
    }

    /// The raw stream, for rejecting a connection whose reader thread
    /// could not be spawned.
    pub(crate) fn raw_stream(&self) -> &TcpStream {
        &self.stream
    }
}

/// Append `resp` (tagged with `id` when present) to `buf` as one wire
/// frame, encoded straight into it. A response too large for the frame
/// limit is cut back off and degrades to a framed error — the request
/// id is preserved so a pipelining client still gets its answer.
fn append_frame(inner: &ServerInner, buf: &mut Vec<u8>, id: Option<u64>, resp: &Response) {
    let max = inner.config.max_frame_len;
    let Err(len) = frame::append_frame(buf, max, |out| resp.encode_with_id_into(id, out)) else {
        return;
    };
    let err = Response::from_error(&Error::Protocol(format!(
        "response of {len} bytes exceeds the {max} byte frame limit"
    )));
    let _ = frame::append_frame(buf, max, |out| err.encode_with_id_into(id, out));
}

fn encode_frame(inner: &ServerInner, id: Option<u64>, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    append_frame(inner, &mut buf, id, resp);
    buf
}

/// Queue one framed message for the writer, lazily spawning it. Drops
/// the frame when the writer is dead (the peer stopped reading).
fn push_frame(inner: &Arc<ServerInner>, conn: &Arc<ConnHandle>, bytes: Vec<u8>) {
    let mut st = conn.state.lock();
    if st.dead {
        return;
    }
    st.out.push_back(bytes);
    inner.metrics.responses_queued.inc();
    spawn_writer_if_needed(inner, conn, &mut st);
    conn.cv.notify_all();
}

fn spawn_writer_if_needed(
    inner: &Arc<ServerInner>,
    conn: &Arc<ConnHandle>,
    st: &mut ConnShared,
) {
    if st.writer_spawned {
        return;
    }
    st.writer_spawned = true;
    let handle = {
        let inner = Arc::clone(inner);
        let conn = Arc::clone(conn);
        std::thread::Builder::new()
            .name(format!("mmdb-wr-{}", conn.id))
            .stack_size(crate::CONN_STACK_BYTES)
            .spawn(move || writer_loop(&inner, &conn))
    };
    match handle {
        Ok(h) => st.writer = Some(h),
        Err(_) => {
            // No thread, no flush path: treat it like a dead peer.
            st.dead = true;
            st.out.clear();
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Record the outcome, frame the response, and hand it to the writer,
/// releasing one slot of the connection's in-flight budget.
fn finish(
    inner: &Arc<ServerInner>,
    conn: &Arc<ConnHandle>,
    id: Option<u64>,
    req: &Request,
    resp: Response,
    enqueued: Instant,
) {
    let ok = !matches!(resp, Response::Err { .. });
    inner.metrics.record_request(req, ok, enqueued.elapsed());
    let bytes = encode_frame(inner, id, &resp);
    let mut st = conn.state.lock();
    st.inflight -= 1;
    inner.metrics.inflight_requests.dec();
    if !st.dead {
        st.out.push_back(bytes);
        inner.metrics.responses_queued.inc();
        spawn_writer_if_needed(inner, conn, &mut st);
    }
    conn.cv.notify_all();
}

/// The per-connection writer: batch everything queued, write it with
/// one syscall, repeat. Exits when the connection is closing and fully
/// drained, or the moment a write fails/times out (a peer that stopped
/// reading its responses gets disconnected, not buffered without
/// bound).
fn writer_loop(inner: &Arc<ServerInner>, conn: &Arc<ConnHandle>) {
    loop {
        let batch: VecDeque<Vec<u8>> = {
            let mut st = conn.state.lock();
            loop {
                if st.dead {
                    return;
                }
                if !st.out.is_empty() {
                    st.writer_busy = true;
                    // Claimed frames leave the gauge here, under the
                    // lock: `responses_queued` counts frames waiting
                    // for the writer, not bytes in flight to the
                    // kernel (that window is `writer_busy`).
                    inner.metrics.responses_queued.sub(st.out.len() as u64);
                    break std::mem::take(&mut st.out);
                }
                if st.closing && st.inflight == 0 {
                    return;
                }
                conn.cv.wait(&mut st);
            }
        };
        let total: usize = batch.iter().map(Vec::len).sum();
        let mut buf = Vec::with_capacity(total);
        for frame_bytes in &batch {
            buf.extend_from_slice(frame_bytes);
        }
        let result = write_all_bounded(&conn.stream, &buf, inner.config.write_timeout);
        let mut st = conn.state.lock();
        st.writer_busy = false;
        if result.is_err() {
            st.dead = true;
            inner.metrics.responses_queued.sub(st.out.len() as u64);
            st.out.clear();
            drop(st);
            // Unblock the reader too: with the peer not reading, the
            // connection is beyond saving.
            let _ = conn.stream.shutdown(Shutdown::Both);
            conn.cv.notify_all();
            return;
        }
        drop(st);
        conn.cv.notify_all();
    }
}

/// `write_all` against a socket with a write timeout configured,
/// bounding the *total* stall rather than trusting a byte-trickling
/// peer to reset the per-write clock forever.
fn write_all_bounded(stream: &TcpStream, buf: &[u8], timeout: Duration) -> Result<()> {
    let started = Instant::now();
    let mut done = 0usize;
    let mut w = stream;
    while done < buf.len() {
        match w.write(&buf[done..]) {
            Ok(0) => return Err(Error::Storage("socket closed mid-write".into())),
            Ok(n) => done += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if started.elapsed() >= timeout {
                    return Err(Error::Storage(format!(
                        "write stalled for {timeout:?}: peer not reading responses"
                    )));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Write out the replies the reader produced itself. The caller holds
/// the invariant that makes this safe: `replies` is non-empty only while
/// the connection is quiescent, so nobody else is writing the socket.
/// Same rule as the writer's: a peer that stopped reading is
/// disconnected after `write_timeout`, not buffered. False means the
/// connection is dead.
fn flush_replies(inner: &ServerInner, conn: &ConnHandle, replies: &mut Vec<u8>) -> bool {
    if replies.is_empty() {
        return true;
    }
    let sent = write_all_bounded(&conn.stream, replies, inner.config.write_timeout);
    frame::release(replies, IDLE_BUF_BYTES);
    if sent.is_err() {
        conn.state.lock().dead = true;
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    sent.is_ok()
}

/// The connection's reader loop: parse frames, run what cannot block
/// right here, admit the rest under the pipeline-depth cap and route it
/// to the serial lane or the parallel pool. Owns the connection's whole
/// lifecycle — on exit it flushes a terminal error (if any), drains and
/// joins the writer, aborts an orphaned transaction, and unregisters.
pub(crate) fn conn_reader(inner: &Arc<ServerInner>, conn: &Arc<ConnHandle>) {
    let _hot = parking_lot::hot_thread("server.conn_reader");
    inner.metrics.connections_active.fetch_add(1, Ordering::Relaxed); // relaxed: metric gauge read only by ADMIN STATS; no synchronization role
    conn.note_activity();
    let max_frame = inner.config.max_frame_len;
    let mut frames = FrameReader::new(IDLE_BUF_BYTES);
    // Framed replies to the requests this thread ran itself, waiting for
    // one write. Non-empty only while the connection is quiescent, and
    // never across a blocking call: flushed before every `read`, every
    // hand-off to the pool and every wait.
    let mut replies: Vec<u8> = Vec::new();
    let mut hello_done = false;
    // A fatal protocol/stall error to report before closing, tagged
    // with the offending request's id when one was decoded.
    let mut fatal: Option<(Option<u64>, Error)> = None;

    'conn: loop {
        // The next request: out of the buffer while whole frames are in
        // it, else off the socket.
        let decoded = loop {
            match frames.next_frame(max_frame) {
                Ok(Some(payload)) => break Request::decode_with_id(payload),
                Ok(None) => {}
                Err(e) => break Err(e),
            }
            if !flush_replies(inner, conn, &mut replies) {
                break 'conn;
            }
            conn.mid_frame.store(frames.has_partial(), Ordering::Relaxed); // relaxed: reaper heuristic flag; no synchronization role
            // Blocks indefinitely between frames (idle is the reaper's
            // job — it shuts the socket down under us, which reads as
            // EOF); a frame that has started must arrive whole within
            // `read_timeout` or the connection is cut off.
            match frames.fill_socket(&conn.stream, max_frame, inner.config.read_timeout) {
                Ok(0) if frames.has_partial() => {
                    break Err(Error::Protocol("connection closed mid-frame".into()))
                }
                Ok(0) => break 'conn,
                Ok(_) => conn.note_activity(),
                Err(e) => break Err(e),
            }
        };
        let (id, request) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => {
                fatal = Some((None, e));
                break;
            }
        };

        // The handshake is answered by the reader: nothing has been
        // enqueued yet, so the connection is quiescent by construction.
        if !hello_done {
            let started = Instant::now();
            let result = match &request {
                Request::Hello { version } if *version == PROTOCOL_VERSION => {
                    hello_done = true;
                    Ok(Response::Hello { version: PROTOCOL_VERSION, server: SERVER_NAME.into() })
                }
                Request::Hello { version } => Err(Error::Protocol(format!(
                    "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                ))),
                _ => Err(Error::Protocol("first request must be 'hello'".into())),
            };
            let resp = result.unwrap_or_else(|e| Response::from_error(&e));
            inner.metrics.record_request(&request, hello_done, started.elapsed());
            append_frame(inner, &mut replies, id, &resp);
            if !hello_done {
                break;
            }
            continue;
        }

        // Executor of first resort: on a quiescent connection the reader
        // owns the session and the socket, so a request that cannot
        // block is run here and its reply joins `replies`.
        let started = Instant::now();
        if conn.settled() {
            let result = run_inline(inner, &mut conn.session.lock(), &request);
            if let Some(result) = result {
                let resp = result.unwrap_or_else(|e| Response::from_error(&e));
                let ok = !matches!(resp, Response::Err { .. });
                inner.metrics.record_request(&request, ok, started.elapsed());
                inner.metrics.inline_requests.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic metric counter; no synchronization role
                append_frame(inner, &mut replies, id, &resp);
                if replies.len() >= REPLY_FLUSH_BYTES && !flush_replies(inner, conn, &mut replies) {
                    break;
                }
                continue;
            }
        }
        // Everything below waits or hands the request to the pool, whose
        // answers leave through the writer: the reader's own go first.
        if !flush_replies(inner, conn, &mut replies) {
            break;
        }

        // Stream requests flip the connection into push mode and never
        // come back; they cannot ride a pipeline.
        if matches!(request, Request::ReplicaHello { .. } | Request::Subscribe { .. }) {
            if id.is_some() {
                fatal = Some((
                    id,
                    Error::Protocol("stream requests cannot carry a request id".into()),
                ));
                break;
            }
            // Quiesce: every admitted request answered and flushed
            // before the reader takes over the write side.
            {
                // Nothing is read off this connection again, so no request
                // is kept waiting by the drain.
                let _permit = parking_lot::permit_wait("one-time drain before the stream handoff");
                let mut st = conn.state.lock();
                while !st.dead && (st.inflight > 0 || !st.out.is_empty() || st.writer_busy) {
                    conn.cv.wait(&mut st);
                }
                if st.dead {
                    break;
                }
            }
            conn.streaming.store(true, Ordering::Relaxed); // relaxed: reaper heuristic flag; no synchronization role
            let started = Instant::now();
            let result = {
                // The tail loop reads the WAL under its lock and sleeps —
                // on a connection that serves nothing else.
                let _permit = parking_lot::permit_wait("a dedicated push stream to its end");
                serve_stream(inner, conn, &request)
            };
            inner.metrics.record_request(&request, result.is_ok(), started.elapsed());
            if let Err(e) = result {
                append_frame(inner, &mut replies, None, &Response::from_error(&e));
            }
            break;
        }

        // Queries get their cancellation budget *now*: time spent
        // waiting in the pipeline counts against the deadline.
        let token = match &request {
            Request::Query { deadline_ms, .. }
            | Request::Sql { deadline_ms, .. }
            | Request::Explain { deadline_ms, .. } => Some(query_budget(inner, *deadline_ms)),
            _ => None,
        };

        // Admission under the pipeline-depth cap: stop pulling frames
        // off the socket until a slot frees. This is the backpressure.
        {
            let depth = inner.config.pipeline_depth.max(1);
            let _permit = parking_lot::permit_wait("pipeline-depth backpressure");
            let mut st = conn.state.lock();
            if st.inflight >= depth {
                inner.metrics.pipeline_stalls.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic metric counter; no synchronization role
            }
            while st.inflight >= depth && !st.dead {
                conn.cv.wait(&mut st);
            }
            if st.dead {
                break;
            }
            st.inflight += 1;
        }
        inner.metrics.inflight_requests.inc();

        // Untagged requests keep strict legacy ordering; tagged
        // session-affecting requests still need the lane so transaction
        // state mutates in submission order. Tagged stateless requests
        // run fully parallel.
        let lane_bound = id.is_none()
            || matches!(
                request,
                Request::Begin { .. }
                    | Request::Commit
                    | Request::Abort
                    | Request::Op(_)
                    | Request::Ddl(_)
            );
        let enqueued = Instant::now();
        if lane_bound {
            let mut st = conn.state.lock();
            st.lane.push_back(LaneJob { id, req: request, token, enqueued });
            let need_drainer = !st.lane_running;
            st.lane_running = true;
            drop(st);
            if need_drainer {
                inner.enqueue(Job::Lane { conn: Arc::clone(conn) });
            }
        } else {
            inner.enqueue(Job::Direct {
                conn: Arc::clone(conn),
                id,
                req: request,
                token,
                enqueued,
            });
        }
    }

    // Retirement. Report the fatal error: behind the reader's own
    // replies when the connection is quiescent (always, before the
    // handshake), else through the queue so it cannot interleave with a
    // concurrent writer flush — `replies` is empty then.
    if let Some((fatal_id, e)) = fatal {
        let resp = Response::from_error(&e);
        if conn.settled() {
            append_frame(inner, &mut replies, fatal_id, &resp);
        } else {
            push_frame(inner, conn, encode_frame(inner, fatal_id, &resp));
        }
    }
    flush_replies(inner, conn, &mut replies);
    let writer = {
        let mut st = conn.state.lock();
        st.closing = true;
        conn.cv.notify_all();
        st.writer.take()
    };
    if let Some(handle) = writer {
        let _ = handle.join();
    }
    if let Some(session) = conn.session.lock().take() {
        inner.metrics.sessions_reaped.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic metric counter; no synchronization role
        drop(session); // abort-on-drop
    }
    inner.unregister(conn.id);
    inner.metrics.connections_active.fetch_sub(1, Ordering::Relaxed); // relaxed: metric gauge read only by ADMIN STATS; no synchronization role
    inner.note_conn_gone();
}

/// Execute one stateless tagged request on the pool.
pub(crate) fn run_direct(
    inner: &Arc<ServerInner>,
    conn: &Arc<ConnHandle>,
    id: Option<u64>,
    req: &Request,
    token: Option<CancelToken>,
    enqueued: Instant,
) {
    let run = catch_unwind(AssertUnwindSafe(|| run_stateless(inner, req, token)));
    let resp = run.unwrap_or_else(|_| Err(panicked())).unwrap_or_else(|e| Response::from_error(&e));
    finish(inner, conn, id, req, resp, enqueued);
}

/// What a pooled request that panicked answers. The panic is caught
/// around the request alone, after the default hook printed it, so the
/// request is finished like any other and its executor thread takes the
/// next job.
fn panicked() -> Error {
    Error::Internal("the request panicked; the server's log has the panic".into())
}

/// Drain one connection's serial lane: run queued jobs in order until
/// the lane is empty. At most one drainer per connection is ever in the
/// pool (see `lane_running`), which is what makes the lane serial —
/// and what batches a pipelined burst of ops into one pool activation.
pub(crate) fn run_lane(inner: &Arc<ServerInner>, conn: &Arc<ConnHandle>) {
    loop {
        let job = {
            let mut st = conn.state.lock();
            match st.lane.pop_front() {
                Some(job) => job,
                None => {
                    st.lane_running = false;
                    return;
                }
            }
        };
        let resp = {
            let mut session = conn.session.lock();
            let run = catch_unwind(AssertUnwindSafe(|| {
                run_session_request(inner, &mut session, &job.req, job.token)
            }));
            let result = run.unwrap_or_else(|_| {
                // The request may have left its session half-changed:
                // abort it, so later requests find no transaction open.
                drop(session.take());
                Err(panicked())
            });
            result.unwrap_or_else(|e| Response::from_error(&e))
        };
        finish(inner, conn, job.id, &job.req, resp, job.enqueued);
    }
}

/// Requests that never touch per-connection session state. These run
/// concurrently on the pool; queries always execute on the committed
/// state, matching the embedded `Database::query` semantics.
fn run_stateless(
    inner: &ServerInner,
    req: &Request,
    token: Option<CancelToken>,
) -> Result<Response> {
    let db = &inner.db;
    let budget = |inner: &ServerInner| {
        token.clone().unwrap_or_else(|| CancelToken::with_timeout(inner.config.max_query_time))
    };
    Ok(match req {
        Request::Hello { .. } => {
            Response::Hello { version: PROTOCOL_VERSION, server: SERVER_NAME.into() }
        }
        Request::Ping => Response::Pong,
        // Every query runs traced, under a deadline token, and the trace
        // feeds the slow-query log. Tracing costs one walk of the plan per
        // query (each operator's line and, after the run, its access
        // path) plus two clock reads and a slot update per operator
        // evaluation, nothing per row. The token's clock is read on the
        // query's first executor tick and then on every 64th.
        Request::Query { text, .. } => {
            let (rows, stats) = db.query_traced_with(text, &budget(inner))?;
            note_slow_query(inner, "mmql", text, &stats);
            Response::Rows(rows)
        }
        Request::Sql { text, .. } => {
            let (rows, stats) = db.query_sql_traced_with(text, &budget(inner))?;
            note_slow_query(inner, "sql", text, &stats);
            Response::Rows(rows)
        }
        Request::Explain { text, analyze, .. } => {
            if *analyze {
                Response::Text(db.explain_analyze_with(text, &budget(inner))?)
            } else {
                Response::Text(db.explain(text)?)
            }
        }
        Request::Admin { command } => run_admin(inner, command)?,
        _ => {
            return Err(Error::Internal(
                "session-affecting request reached the stateless executor".into(),
            ))
        }
    })
}

/// The requests a connection's reader may run itself, because they
/// cannot wait: `Ping`, `Begin`, `Abort`, operations staged in or read
/// through an open session (of either isolation level), and session-less
/// point reads served from a snapshot of their own. None of them reaches
/// the commit sequencer or an fsync. `None` means the request is not one
/// of these and must take the lane/pool path: `Commit`, auto-commit
/// writes, DDL, queries, admin. Debug builds hold this function to its
/// word: the reader is a hot thread, so a request accepted here that
/// does reach a wait panics where it waits.
fn run_inline(
    inner: &ServerInner,
    session: &mut Option<Session>,
    req: &Request,
) -> Option<Result<Response>> {
    Some(match req {
        Request::Ping => Ok(Response::Pong),
        Request::Begin { .. } if session.is_some() => Err(Error::TxnClosed(
            "a transaction is already open on this connection".into(),
        )),
        Request::Begin { serializable } => {
            let isolation = if *serializable {
                IsolationLevel::Serializable
            } else {
                IsolationLevel::Snapshot
            };
            let s = inner.db.begin(isolation);
            let txn_id = s.id() as i64;
            *session = Some(s);
            Ok(Response::TxnBegun { txn_id })
        }
        Request::Abort => match session.take() {
            Some(s) => {
                s.abort();
                Ok(Response::Aborted)
            }
            None => Err(Error::TxnClosed("no open transaction to abort".into())),
        },
        Request::Op(op) => {
            let result = match session.as_mut() {
                Some(s) => apply_op(s, op),
                None if is_point_read(op) => {
                    let mut s = inner.db.begin(IsolationLevel::Snapshot);
                    let result = apply_op(&mut s, op);
                    // Nothing staged: returns before the commit sequencer
                    // and counts as neither a commit nor an abort.
                    s.commit().and(result)
                }
                _ => return None,
            };
            inner.metrics.record_model_op(op_model(op));
            result
        }
        _ => return None,
    })
}

/// Full dispatch for serial-lane jobs: whatever [`run_inline`] takes
/// (the lane runs it when the connection was not quiescent), the
/// session-affecting requests it leaves, plus anything stateless an
/// untagged client sent (delegated).
fn run_session_request(
    inner: &ServerInner,
    session: &mut Option<Session>,
    req: &Request,
    token: Option<CancelToken>,
) -> Result<Response> {
    if let Some(result) = run_inline(inner, session, req) {
        return result;
    }
    let db = &inner.db;
    Ok(match req {
        Request::Commit => {
            let s = session
                .take()
                .ok_or_else(|| Error::TxnClosed("no open transaction to commit".into()))?;
            let commit_ts = s.commit()? as i64;
            // The watermark is read after this commit's WAL block landed,
            // so it is at least this transaction's durable position — a
            // valid (if slightly strict) read-your-writes token.
            let lsn = db.wal().map(|_| db.last_commit_lsn());
            Response::Committed { commit_ts, lsn }
        }
        // `run_inline` took every op of an open session, so this one has
        // no explicit transaction: auto-commit it, retrying conflicts like
        // the embedded `transact` helper.
        Request::Op(op) => {
            inner.metrics.record_model_op(op_model(op));
            let mut result = None;
            db.transact(IsolationLevel::Snapshot, 3, |s| {
                result = Some(apply_op(s, op)?);
                Ok(())
            })?;
            result.ok_or_else(|| Error::Internal("auto-commit produced no response".into()))?
        }
        Request::Ddl(op) => apply_ddl(db, op)?,
        // Handled before dispatch (they change the connection mode);
        // reaching here is a logic error.
        Request::ReplicaHello { .. } | Request::Subscribe { .. } => {
            return Err(Error::Internal(
                "stream request reached request/response dispatch".into(),
            ))
        }
        stateless => run_stateless(inner, stateless, token)?,
    })
}

/// Serve the push stream after `REPLICA HELLO`/`SUBSCRIBE`: ship WAL
/// records from the request's position (catch-up), then live-tail the
/// log, heartbeating the tail LSN when idle. Replicas get raw records;
/// `SUBSCRIBE` gets decoded committed writes only. Runs on the
/// connection's reader thread (the pipeline is quiesced first, so the
/// reader owns the write side) until the peer or the server goes away.
fn serve_stream(inner: &ServerInner, conn: &ConnHandle, request: &Request) -> Result<()> {
    const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);
    let stream = &conn.stream;
    let Some(wal) = inner.db.wal().cloned() else {
        return Err(Error::Unsupported(
            "this server has no WAL to stream (pure in-memory database)".into(),
        ));
    };
    // Everything this stream reports or ships is bounded by the *durable*
    // LSN: with group commit, a batch sits appended-but-unsynced for a
    // moment, and shipping (or even advertising) those bytes would let a
    // replica get ahead of what a primary crash can replay. A cursor
    // continues the log only if it is `durable` or a record starts there,
    // and the first heartbeat tells the subscriber where the tail is even
    // when it starts caught up.
    let durable = wal.durable_lsn();
    let starts_a_record =
        |lsn| -> Result<bool> { Ok(lsn == durable || !wal.read_log(lsn, durable)?.is_empty()) };
    let mut cdc = matches!(request, Request::Subscribe { .. }).then(CdcBuffer::new);
    let mut cursor = match *request {
        Request::ReplicaHello { log_id, tail } => {
            let header = wal.header();
            let within = log_id == header.log_id && (header.horizon..=durable).contains(&tail);
            if within && starts_a_record(tail)? {
                tail
            } else {
                // The replica's log cannot continue this one: it is
                // another log, or it ends inside the image, inside a record
                // or past what is durable here. Reset it onto this log: the
                // header, then the bytes from the base. A checkpoint that
                // folds past a stream's cursor makes its next read
                // `log_truncated`; the replica reconnects and is reset.
                send_change(inner, stream, feed::reset_frame(&header))?;
                header.base
            }
        }
        Request::Subscribe { from_lsn } => {
            // A change feed cannot be rebuilt from the image — the
            // intermediate writes between the cursor and the horizon are
            // gone — so tell the subscriber instead of silently skipping
            // ahead and dropping events.
            let horizon = wal.truncated_lsn();
            if from_lsn < horizon {
                return Err(Error::LogTruncated(format!(
                    "subscribe cursor {from_lsn} predates the checkpoint horizon {horizon}; \
                     resubscribe from the current tail"
                )));
            }
            if !starts_a_record(from_lsn)? {
                return Err(Error::NotFound(format!(
                    "no record starts at subscribe cursor {from_lsn}; resume from an event's lsn"
                )));
            }
            from_lsn
        }
        _ => return Err(Error::Internal("not a stream request".into())),
    };
    send_change(inner, stream, feed::heartbeat_frame(durable))?;
    let mut last_beat = Instant::now();
    loop {
        if inner.shutting_down() {
            return Ok(());
        }
        let durable = wal.durable_lsn();
        let bytes = if cursor < durable { wal.read_log(cursor, durable)? } else { Vec::new() };
        if bytes.is_empty() {
            if last_beat.elapsed() >= HEARTBEAT_EVERY {
                send_change(inner, stream, feed::heartbeat_frame(durable))?;
                last_beat = Instant::now();
            }
            std::thread::sleep(inner.config.poll_interval.min(HEARTBEAT_EVERY));
            continue;
        }
        let at = cursor;
        cursor += bytes.len() as u64;
        if let Some(cdc) = &mut cdc {
            for rec in wal::records(&bytes, at) {
                for event in cdc.push(rec)? {
                    send_change(inner, stream, event)?;
                }
            }
        } else {
            send_change(inner, stream, feed::log_frame(at, bytes))?;
        }
        // Records just flowed; the next heartbeat can wait a full period.
        last_beat = Instant::now();
    }
}

fn send_change(inner: &ServerInner, stream: &TcpStream, event: Value) -> Result<()> {
    let mut w = stream;
    frame::write_frame(&mut w, &Response::Change(event).encode(), inner.config.max_frame_len)
}

/// Run one typed operation in `s`. A point read replies with the value
/// as the version store keeps it, in the log's bytes: nothing decodes it
/// here, and its reply frame copies the bytes as they are.
fn apply_op(s: &mut Session, op: &SessionOp) -> Result<Response> {
    Ok(match op {
        SessionOp::InsertDocument { collection, doc } => {
            Response::Key(s.insert_document(collection, doc.clone())?)
        }
        SessionOp::UpdateDocument { collection, key, doc } => {
            s.update_document(collection, key, doc.clone())?;
            Response::Ok
        }
        SessionOp::RemoveDocument { collection, key } => {
            s.remove_document(collection, key)?;
            Response::Ok
        }
        SessionOp::GetDocument { collection, key } => {
            Response::MaybeEncoded(s.get_document_encoded(collection, key)?)
        }
        SessionOp::KvPut { bucket, key, value } => {
            s.kv_put(bucket, key, value.clone())?;
            Response::Ok
        }
        SessionOp::KvDelete { bucket, key } => {
            s.kv_delete(bucket, key)?;
            Response::Ok
        }
        SessionOp::KvGet { bucket, key } => Response::MaybeEncoded(s.kv_get_encoded(bucket, key)?),
        SessionOp::InsertRow { table, row } => {
            s.insert_row(table, row.clone())?;
            Response::Ok
        }
        SessionOp::UpdateRow { table, row } => {
            s.update_row(table, row.clone())?;
            Response::Ok
        }
        SessionOp::DeleteRow { table, pk } => {
            s.delete_row(table, pk)?;
            Response::Ok
        }
        SessionOp::GetRow { table, pk } => Response::MaybeEncoded(s.get_row_encoded(table, pk)?),
        SessionOp::AddVertex { graph, collection, doc } => {
            Response::Key(s.add_vertex(graph, collection, doc.clone())?)
        }
        SessionOp::AddEdge { graph, collection, from, to, properties } => {
            Response::Key(s.add_edge(graph, collection, from, to, properties.clone())?)
        }
        SessionOp::RdfInsert { subject, predicate, object } => {
            s.rdf_insert(subject, predicate, object.clone())?;
            Response::Ok
        }
        SessionOp::RdfRemove { subject, predicate, object } => {
            s.rdf_remove(subject, predicate, object)?;
            Response::Ok
        }
    })
}

fn apply_ddl(db: &mmdb_core::Database, op: &DdlOp) -> Result<Response> {
    match op {
        DdlOp::CreateCollection { name } => db.create_collection(name)?,
        DdlOp::CreateBucket { name } => db.create_bucket(name)?,
        DdlOp::CreateGraph { name } => db.create_graph(name)?,
        DdlOp::CreateVertexCollection { graph, name } => db.create_vertex_collection(graph, name)?,
        DdlOp::CreateEdgeCollection { graph, name } => db.create_edge_collection(graph, name)?,
        DdlOp::CreateTable { name, schema } => {
            db.create_table(name, mmdb_protocol::schema_from_value(schema)?)?
        }
        DdlOp::CreateFulltextIndex { name, collection, field } => {
            db.create_fulltext_index(name, collection, field)?
        }
    }
    Ok(Response::Ok)
}

/// The typed operations that only read.
fn is_point_read(op: &SessionOp) -> bool {
    matches!(
        op,
        SessionOp::GetDocument { .. } | SessionOp::KvGet { .. } | SessionOp::GetRow { .. }
    )
}

/// The data model a typed operation belongs to, for the per-model
/// operation counters in `ADMIN STATS`.
fn op_model(op: &SessionOp) -> &'static str {
    match op {
        SessionOp::InsertDocument { .. }
        | SessionOp::UpdateDocument { .. }
        | SessionOp::RemoveDocument { .. }
        | SessionOp::GetDocument { .. } => "document",
        SessionOp::KvPut { .. } | SessionOp::KvDelete { .. } | SessionOp::KvGet { .. } => "kv",
        SessionOp::InsertRow { .. }
        | SessionOp::UpdateRow { .. }
        | SessionOp::DeleteRow { .. }
        | SessionOp::GetRow { .. } => "relational",
        SessionOp::AddVertex { .. } | SessionOp::AddEdge { .. } => "graph",
        SessionOp::RdfInsert { .. } | SessionOp::RdfRemove { .. } => "rdf",
    }
}

/// Record a successfully executed query in the slow-query log when its
/// execution time reached the configured threshold.
fn note_slow_query(
    inner: &ServerInner,
    kind: &str,
    text: &str,
    stats: &mmdb_core::ExecStats,
) {
    if stats.total < inner.config.slow_query_threshold {
        return;
    }
    let mut entry = stats.to_value();
    if let Ok(obj) = entry.as_object_mut() {
        obj.insert("kind", Value::str(kind));
        obj.insert("query", Value::str(text));
    }
    inner.push_slowlog(entry);
}

/// The effective execution budget for one query: the client's requested
/// deadline, capped by the server's `max_query_time`. Minted when the
/// request is *enqueued*, so pipeline queue time counts against it.
fn query_budget(inner: &ServerInner, deadline_ms: Option<u64>) -> CancelToken {
    let cap = inner.config.max_query_time;
    let budget = match deadline_ms {
        Some(ms) => cap.min(Duration::from_millis(ms)),
        None => cap,
    };
    CancelToken::with_timeout(budget)
}

fn run_admin(inner: &ServerInner, command: &str) -> Result<Response> {
    match command.trim().to_ascii_uppercase().as_str() {
        "STATS" => {
            let mut stats = inner.metrics.snapshot();
            let (commits, aborts) = inner.db.mvcc().stats();
            let group = inner.db.mvcc().group_commit_stats();
            let (ckpt_count, ckpt_micros, ckpt_reclaimed) = inner.db.checkpoint_stats();
            let world = inner.db.world();
            let rdf = world.rdf.read().stats();
            if let Ok(obj) = stats.as_object_mut() {
                obj.insert(
                    "engine",
                    Value::object([
                        ("commits", Value::int(commits as i64)),
                        ("aborts", Value::int(aborts as i64)),
                        ("group_commit_batches", Value::int(group.batches as i64)),
                        ("group_commit_txns", Value::int(group.txns as i64)),
                        ("group_commit_fsyncs_saved", Value::int(group.fsyncs_saved as i64)),
                        ("group_commit_max_size", Value::int(group.max_group_size as i64)),
                        ("checkpoint_count", Value::int(ckpt_count as i64)),
                        ("checkpoint_total_micros", Value::int(ckpt_micros as i64)),
                        ("checkpoint_bytes_reclaimed", Value::int(ckpt_reclaimed as i64)),
                    ]),
                );
                // Log footprint: current on-disk size and the LSN below
                // which the prefix has been checkpointed away.
                obj.insert(
                    "wal",
                    Value::object([
                        ("size_bytes", Value::int(inner.db.wal_size_bytes() as i64)),
                        (
                            "truncated_lsn",
                            match inner.db.wal() {
                                Some(wal) => Value::int(wal.truncated_lsn() as i64),
                                None => Value::Null,
                            },
                        ),
                    ]),
                );
                // Access paths taken by query operators since startup:
                // index-served scans vs full scans, plus the RDF triple
                // store's own indexed-vs-scan fallback counters.
                obj.insert(
                    "access_paths",
                    Value::object([
                        ("index_scans", Value::int(world.access.index_scans() as i64)),
                        ("full_scans", Value::int(world.access.full_scans() as i64)),
                        ("rdf_indexed", Value::int(rdf.indexed as i64)),
                        ("rdf_scans", Value::int(rdf.scans as i64)),
                    ]),
                );
            }
            Ok(Response::Stats(stats))
        }
        "SLOWLOG" => {
            let entries: Vec<Value> = inner.slowlog.lock().iter().cloned().collect();
            Ok(Response::Stats(Value::Array(entries)))
        }
        "SLOWLOG RESET" => {
            let dropped = {
                let mut log = inner.slowlog.lock();
                let n = log.len();
                log.clear();
                n
            };
            Ok(Response::Stats(Value::object([("dropped", Value::int(dropped as i64))])))
        }
        "PING" => Ok(Response::Pong),
        // Health summary for load balancers and operators: `ok` while the
        // engine accepts writes, `degraded` once a durability failure has
        // latched it read-only (reads keep serving; drain writes elsewhere).
        // A read replica reports `replica` plus its lag figures — it is
        // intentionally read-only, not degraded, even when its primary is
        // unreachable (it keeps serving reads and its staleness grows).
        // Both report `hook_failure`: why the commit hook first failed to
        // apply a committed write set to the model stores (null when it
        // never has) — on a replica, whose latch keeps its first reason,
        // the only place that shows.
        "HEALTH" => {
            let hook_failure = inner.db.hook_failure().map_or(Value::Null, Value::str);
            if let Some(provider) = inner.replica_status.get() {
                let mut status = provider();
                if let Ok(obj) = status.as_object_mut() {
                    obj.insert("status", Value::str("replica"));
                    obj.insert("hook_failure", hook_failure);
                }
                return Ok(Response::Stats(status));
            }
            let degraded = inner.db.is_degraded();
            let mut fields = vec![(
                "status".to_string(),
                Value::str(if degraded { "degraded" } else { "ok" }),
            )];
            if let Some(reason) = inner.db.degraded_reason() {
                fields.push(("reason".to_string(), Value::str(&reason)));
            }
            fields.push(("hook_failure".to_string(), hook_failure));
            // How stale the last checkpoint is; Null until the first one
            // runs (the stamp survives restarts via the time in the log's
            // header). Operators alert on this growing unbounded while
            // the WAL keeps expanding.
            fields.push((
                "seconds_since_checkpoint".to_string(),
                match inner.db.seconds_since_checkpoint() {
                    Some(s) => Value::int(s as i64),
                    None => Value::Null,
                },
            ));
            Ok(Response::Stats(Value::object(fields)))
        }
        // Take a checkpoint right now: fold the WAL prefix into its
        // image block, append the marker, vacuum dead versions. Returns
        // what it cost and what it reclaimed.
        "CHECKPOINT" => {
            let summary = inner.db.checkpoint()?;
            Ok(Response::Stats(Value::object([
                ("snapshot_lsn", Value::int(summary.snapshot_lsn as i64)),
                ("entries", Value::int(summary.entries as i64)),
                ("snapshot_bytes", Value::int(summary.snapshot_bytes as i64)),
                ("wal_bytes_reclaimed", Value::int(summary.wal_bytes_reclaimed as i64)),
                ("versions_vacuumed", Value::int(summary.versions_vacuumed as i64)),
                ("micros", Value::int(summary.micros as i64)),
            ])))
        }
        // Replication summary: on a replica, the live runner status
        // (connection state, applied LSN, lag); on a primary, the WAL
        // tail and commit watermark that feed session tokens.
        "REPL" => {
            if let Some(provider) = inner.replica_status.get() {
                return Ok(Response::Stats(provider()));
            }
            let db = &inner.db;
            Ok(Response::Stats(match db.wal() {
                Some(wal) => Value::object([
                    ("role", Value::str("primary")),
                    ("wal_tail_lsn", Value::int(wal.tail_lsn() as i64)),
                    ("last_commit_lsn", Value::int(db.last_commit_lsn() as i64)),
                ]),
                // No WAL: nothing to ship, but answer rather than error so
                // clients can probe capability.
                None => Value::object([
                    ("role", Value::str("primary")),
                    ("wal_tail_lsn", Value::Null),
                    ("last_commit_lsn", Value::Null),
                ]),
            }))
        }
        other => Err(Error::Unsupported(format!("unknown admin command '{other}'"))),
    }
}
