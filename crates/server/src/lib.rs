//! # mmdb-server — the networked front-end
//!
//! Exposes one [`mmdb_core::Database`] over TCP using the
//! `mmdb-protocol` wire format. Deliberately `std::net` only: the
//! concurrency model is legible and the dependency count is zero.
//!
//! ## Pipelined request execution
//!
//! One connection may carry many in-flight requests. Each connection
//! gets a cheap blocking **reader** thread that decodes frames and
//! enqueues them onto a shared **executor pool** (`workers` threads);
//! a lazily-spawned per-connection **writer** thread drains a bounded
//! outbound queue, so responses complete out of order when the client
//! tags requests with ids (see `mmdb-protocol`). Untagged (legacy)
//! requests keep strict request/response ordering: they run on a
//! per-connection *serial lane*, as do all session-affecting requests
//! (`BEGIN`/`COMMIT`/`ABORT`/typed ops/DDL) so transaction state stays
//! coherent under concurrency. Stateless tagged requests (queries,
//! ping, admin) go straight to the parallel pool.
//!
//! * **Backpressure** — at most `pipeline_depth` requests may be
//!   in flight per connection: the reader stops pulling frames off the
//!   socket at the cap, which bounds the outbound queue by construction
//!   and pushes back through TCP. New arrivals past `max_connections`
//!   get a framed `busy` error.
//! * **Timeouts** — a frame that stalls mid-read is cut off after
//!   `read_timeout`; idle connections (no frame in progress, nothing in
//!   flight) are reaped after `idle_timeout` by a background sweeper
//!   that shuts the socket down under the blocked reader. Writes are
//!   bounded by `write_timeout`: a peer that stops reading its
//!   responses is disconnected, never buffered unboundedly.
//! * **Graceful shutdown** — [`Server::shutdown`] stops accepting,
//!   unblocks every reader, lets in-flight requests finish and flush
//!   their responses, aborts transactions orphaned by their
//!   connections, then joins all threads.
//! * **Observability** — a [`Metrics`] registry counts connections,
//!   requests, and errors, with a latency histogram per command and
//!   pipeline gauges (in-flight requests, queue depths, stalls);
//!   clients read it with `ADMIN STATS`.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

mod conn;
mod metrics;

pub use metrics::{CommandStats, Gauge, LatencyHistogram, Metrics, COMMAND_LABELS, MODEL_LABELS};

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use mmdb_core::Database;
use mmdb_protocol::{frame, Request, Response};
use mmdb_types::{lock_rank, CancelToken, Error, Result};

use conn::ConnHandle;

/// Server identification string sent in the handshake.
pub const SERVER_NAME: &str = concat!("mmdb/", env!("CARGO_PKG_VERSION"));

/// Stack size for per-connection reader/writer threads. Connection
/// threads mostly sit in blocking reads; request execution happens on
/// the executor pool's default-stack threads, so these can be small —
/// which is what makes tens of thousands of idle connections cheap.
pub(crate) const CONN_STACK_BYTES: usize = 256 * 1024;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7687`; port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Executor threads: requests executed concurrently, across all
    /// connections. Idle connections hold no executor slot.
    pub workers: usize,
    /// Open connections beyond which new arrivals are refused with a
    /// `busy` error.
    pub max_connections: usize,
    /// In-flight (decoded but unanswered) requests allowed per
    /// connection. The reader stops pulling frames at the cap, so a
    /// pipelining client is backpressured through TCP and the outbound
    /// response queue is bounded by construction.
    pub pipeline_depth: usize,
    /// Poll tick for the acceptor, reaper, and executor idle waits;
    /// bounds how fast shutdown is observed.
    pub poll_interval: Duration,
    /// How long a read may stall mid-frame before the connection is
    /// dropped.
    pub read_timeout: Duration,
    /// Per-write socket timeout; a peer that stops reading responses is
    /// disconnected after roughly this long.
    pub write_timeout: Duration,
    /// Idle connections (no frame in progress, no requests in flight)
    /// are closed after this long.
    pub idle_timeout: Duration,
    /// Maximum frame payload size accepted or produced.
    pub max_frame_len: u32,
    /// Hard cap on any single query's execution budget. A client-supplied
    /// deadline can only shorten it; queries exceeding the budget abort
    /// cooperatively with a retryable `deadline_exceeded` error. The
    /// budget starts when the request is *enqueued*, so time spent
    /// waiting behind other pipelined requests counts against it.
    pub max_query_time: Duration,
    /// Queries (MMQL or SQL) whose execution takes at least this long are
    /// recorded in the slow-query log, readable with `ADMIN SLOWLOG`.
    /// `Duration::ZERO` logs every query.
    pub slow_query_threshold: Duration,
    /// Slow-query log entries kept in the in-memory ring; the oldest is
    /// evicted beyond this. `0` disables recording entirely. The log can
    /// be cleared at runtime with `ADMIN SLOWLOG RESET`.
    pub slow_query_log_size: usize,
    /// When set, a background thread checkpoints the database whenever
    /// the WAL grows this many bytes past the last checkpoint's horizon,
    /// bounding both the log's disk footprint and recovery replay time. `None` (the default) leaves
    /// checkpointing to `ADMIN CHECKPOINT`.
    pub checkpoint_wal_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_connections: 64,
            pipeline_depth: 32,
            poll_interval: Duration::from_millis(25),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(300),
            max_frame_len: frame::MAX_FRAME_LEN,
            max_query_time: Duration::from_secs(30),
            slow_query_threshold: Duration::from_millis(250),
            slow_query_log_size: 128,
            checkpoint_wal_bytes: None,
        }
    }
}

/// One unit of work for the executor pool.
pub(crate) enum Job {
    /// A stateless tagged request: runs on any executor, any order.
    Direct {
        conn: Arc<ConnHandle>,
        id: Option<u64>,
        req: Request,
        token: Option<CancelToken>,
        enqueued: Instant,
    },
    /// Drain one connection's serial lane (untagged and
    /// session-affecting requests, in arrival order). At most one lane
    /// job per connection is ever in the pool, which is what serializes
    /// the lane.
    Lane { conn: Arc<ConnHandle> },
}

/// State shared by the acceptor, connection threads, the executor pool,
/// and [`Server`].
pub(crate) struct ServerInner {
    pub(crate) db: Arc<Database>,
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Metrics,
    /// Ring buffer of recent slow queries (newest last), each a `Value`
    /// object with the query text, total time, and per-operator stats.
    pub(crate) slowlog: Mutex<VecDeque<mmdb_types::Value>>,
    shutdown: AtomicBool,
    /// Open connections, for the backpressure check and shutdown drain.
    active: AtomicU64,
    /// Executor pool inbox.
    jobs: Mutex<VecDeque<Job>>,
    jobs_ready: Condvar,
    /// Every open connection, keyed by connection id: lets the reaper
    /// and shutdown unblock readers parked in blocking reads by
    /// shutting their sockets down.
    registry: Mutex<HashMap<u64, Arc<ConnHandle>>>,
    next_conn_id: AtomicU64,
    /// Signalled by a connection thread when it retires, so shutdown
    /// can wait for `active == 0`.
    lifecycle: Mutex<()>,
    lifecycle_done: Condvar,
    /// Set once when this server fronts a read replica (see
    /// [`Server::attach_replica_status`]): a provider returning the
    /// live replication status object for `ADMIN REPL`/`ADMIN HEALTH`.
    pub(crate) replica_status: OnceLock<ReplicaStatusProvider>,
}

/// Callback returning a replica's live replication status as a `Value`
/// object (role, LSNs, lag) — supplied by the process that wired up the
/// replica so the server crate needs no dependency on the replication
/// machinery.
pub type ReplicaStatusProvider = Arc<dyn Fn() -> mmdb_types::Value + Send + Sync>;

impl ServerInner {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Append a slow-query entry, evicting the oldest at capacity.
    pub(crate) fn push_slowlog(&self, entry: mmdb_types::Value) {
        let cap = self.config.slow_query_log_size;
        if cap == 0 {
            return;
        }
        let mut log = self.slowlog.lock();
        while log.len() >= cap {
            log.pop_front();
        }
        log.push_back(entry);
    }

    /// Hand one job to the executor pool.
    pub(crate) fn enqueue(&self, job: Job) {
        let mut jobs = self.jobs.lock();
        jobs.push_back(job);
        self.metrics.executor_queue.set_current(jobs.len() as u64);
        drop(jobs);
        self.jobs_ready.notify_one();
    }

    /// A connection thread has fully retired; wake a waiting shutdown.
    pub(crate) fn note_conn_gone(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        let _guard = self.lifecycle.lock();
        self.lifecycle_done.notify_all();
    }

    pub(crate) fn unregister(&self, conn_id: u64) {
        self.registry.lock().remove(&conn_id);
    }
}

/// A running mmdb server. Dropping it without calling
/// [`Server::shutdown`] shuts down non-gracefully (threads are
/// detached).
pub struct Server {
    inner: Arc<ServerInner>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
}

/// Convert a refused service-thread spawn (OS thread limit, resource
/// exhaustion) into a typed [`Error::Startup`], unwinding the
/// half-started server: the shutdown flag plus a condvar broadcast make
/// every already-running service thread exit on its next tick. The
/// threads are detached rather than joined — the same contract as
/// dropping a `Server` without calling [`Server::shutdown`].
fn spawn_failed(inner: &Arc<ServerInner>, what: &str, e: std::io::Error) -> Error {
    inner.shutdown.store(true, Ordering::SeqCst);
    inner.jobs_ready.notify_all();
    Error::Startup(format!("could not spawn server {what} thread: {e}"))
}

impl Server {
    /// Bind and start serving `db` in background threads.
    ///
    /// Fails with a typed [`Error::Startup`] (no abort, nothing left
    /// running) when the OS refuses a service thread.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept, polled on the tick: a plain blocking
        // accept would never observe the shutdown flag.
        listener.set_nonblocking(true)?;

        let inner = Arc::new(ServerInner {
            db,
            config: config.clone(),
            metrics: Metrics::default(),
            slowlog: Mutex::new(VecDeque::new()),
            shutdown: AtomicBool::new(false),
            active: AtomicU64::new(0),
            jobs: Mutex::new(VecDeque::new()),
            jobs_ready: Condvar::new(),
            registry: Mutex::with_rank(lock_rank::SERVER_REGISTRY, HashMap::new()),
            next_conn_id: AtomicU64::new(1),
            lifecycle: Mutex::new(()),
            lifecycle_done: Condvar::new(),
            replica_status: OnceLock::new(),
        });

        // A refused thread spawn (OS thread limit, resource exhaustion)
        // is a typed `startup` error, not an abort: `spawn_failed`
        // flips the shutdown flag and wakes the already-started service
        // threads so they drain and exit before the error returns.
        let mut executors = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let worker = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("mmdb-exec-{i}"))
                .spawn(move || executor_loop(&worker))
                .map_err(|e| spawn_failed(&inner, "executor", e))?;
            executors.push(handle);
        }
        let acceptor = {
            let worker = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("mmdb-acceptor".into())
                .spawn(move || accept_loop(&worker, listener))
                .map_err(|e| spawn_failed(&inner, "acceptor", e))?
        };
        let reaper = {
            let worker = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("mmdb-reaper".into())
                .spawn(move || reaper_loop(&worker))
                .map_err(|e| spawn_failed(&inner, "reaper", e))?
        };

        // Growth-triggered checkpointing: poll the WAL's growth past the
        // last horizon and checkpoint past the threshold. Polling (rather than hooking
        // the commit path) keeps commits oblivious to checkpoint policy;
        // the WAL may overshoot by up to one poll tick of writes.
        let checkpointer = match config.checkpoint_wal_bytes {
            Some(threshold) => {
                let worker = Arc::clone(&inner);
                Some(
                    std::thread::Builder::new()
                        .name("mmdb-checkpointer".into())
                        .spawn(move || checkpoint_loop(&worker, threshold))
                        .map_err(|e| spawn_failed(&inner, "checkpointer", e))?,
                )
            }
            None => None,
        };

        Ok(Server {
            inner,
            local_addr,
            acceptor: Some(acceptor),
            executors,
            reaper: Some(reaper),
            checkpointer,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Declare this server a read replica. `provider` is polled by
    /// `ADMIN REPL` and `ADMIN HEALTH` for the live replication status
    /// (connection state, applied LSN, lag); the first call wins and
    /// later calls are ignored.
    pub fn attach_replica_status(&self, provider: ReplicaStatusProvider) {
        let _ = self.inner.replica_status.set(provider);
    }

    /// Stop gracefully: refuse new connections, unblock every reader,
    /// drain in-flight requests and flush their responses, abort
    /// orphaned transactions, join every thread.
    pub fn shutdown(mut self) -> Result<()> {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.jobs_ready.notify_all();
        // Shut the read half of every open socket: blocked readers see
        // EOF and retire. The write halves stay up so in-flight
        // responses still flush.
        {
            let registry = self.inner.registry.lock();
            for conn in registry.values() {
                conn.unblock_reader();
            }
        }
        if let Some(h) = self.acceptor.take() {
            h.join().map_err(|_| Error::Internal("acceptor thread panicked".into()))?;
        }
        // Connection threads drain their in-flight work (the executors
        // are still running) and retire; wait for the last one. The
        // poll-tick re-check covers a retire racing the wait.
        {
            let mut guard = self.inner.lifecycle.lock();
            while self.inner.active.load(Ordering::SeqCst) > 0 {
                self.inner
                    .lifecycle_done
                    .wait_for(&mut guard, self.inner.config.poll_interval);
            }
        }
        for h in self.executors.drain(..) {
            h.join().map_err(|_| Error::Internal("executor thread panicked".into()))?;
        }
        if let Some(h) = self.reaper.take() {
            h.join().map_err(|_| Error::Internal("reaper thread panicked".into()))?;
        }
        if let Some(h) = self.checkpointer.take() {
            h.join().map_err(|_| Error::Internal("checkpointer thread panicked".into()))?;
        }
        Ok(())
    }
}

/// Background loop for [`ServerConfig::checkpoint_wal_bytes`]: poll how
/// far the WAL has grown past the last checkpoint's horizon and
/// checkpoint once that passes `threshold`. The growth, not the file
/// size: the file holds the image block too, and a live state larger
/// than the threshold would otherwise checkpoint on every poll.
/// Checkpoint failures don't kill the loop — a durability failure has
/// already latched the store degraded (and the next pass repeats the
/// error) — but they are counted in the metrics.
fn checkpoint_loop(inner: &ServerInner, threshold: u64) {
    while !inner.shutting_down() {
        let grown = inner.db.wal().map_or(0, |w| w.bytes_since_checkpoint());
        if grown > threshold && inner.db.checkpoint().is_err() {
            inner.metrics.checkpoint_failures.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic metric counter; no synchronization role
        }
        std::thread::sleep(inner.config.poll_interval);
    }
}

fn accept_loop(inner: &Arc<ServerInner>, listener: TcpListener) {
    while !inner.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let active = inner.active.load(Ordering::SeqCst);
                if active >= inner.config.max_connections as u64 {
                    inner.metrics.connections_rejected.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic metric counter; admission control uses the SeqCst active gauge
                    reject_busy(inner, &stream);
                    continue;
                }
                inner.active.fetch_add(1, Ordering::SeqCst);
                inner.metrics.connections_accepted.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic metric counter; admission control uses the SeqCst active gauge
                let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed); // relaxed: unique-id counter; no synchronization role
                let conn = Arc::new(ConnHandle::new(conn_id, stream, inner));
                inner.registry.lock().insert(conn_id, Arc::clone(&conn));
                let spawned = {
                    let inner = Arc::clone(inner);
                    let conn = Arc::clone(&conn);
                    std::thread::Builder::new()
                        .name(format!("mmdb-conn-{conn_id}"))
                        .stack_size(CONN_STACK_BYTES)
                        .spawn(move || conn::conn_reader(&inner, &conn))
                };
                if spawned.is_err() {
                    // Thread exhaustion is a capacity problem like any
                    // other: tell the peer it's temporary and retire the
                    // connection as if it never happened.
                    inner.unregister(conn_id);
                    reject_busy(inner, conn.raw_stream());
                    inner.note_conn_gone();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(inner.config.poll_interval);
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake);
                // back off a tick and keep listening.
                std::thread::sleep(inner.config.poll_interval);
            }
        }
    }
}

/// Answer an over-capacity connection with a framed `busy` error.
///
/// The peer's `hello` may not have arrived yet; the error frame is
/// written immediately — a client that just connected is by definition
/// waiting for its first response.
fn reject_busy(inner: &ServerInner, stream: &TcpStream) {
    let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
    let resp = Response::from_error(&Error::Busy(format!(
        "server at capacity ({} connections)",
        inner.config.max_connections
    )));
    let mut w = stream;
    let _ = frame::write_frame(&mut w, &resp.encode(), inner.config.max_frame_len);
}

/// Executor pool loop: run jobs until shutdown *and* every connection
/// has retired. The drain order matters — a reader that decoded a frame
/// just before the shutdown flag flipped may still enqueue it, and its
/// writer cannot flush (and the reader cannot retire) until the job has
/// executed, so executors outlive connections, not the other way round.
fn executor_loop(inner: &Arc<ServerInner>) {
    loop {
        let job = {
            let mut jobs = inner.jobs.lock();
            loop {
                if let Some(job) = jobs.pop_front() {
                    inner.metrics.executor_queue.set_current(jobs.len() as u64);
                    break Some(job);
                }
                if inner.shutting_down() && inner.active.load(Ordering::SeqCst) == 0 {
                    break None;
                }
                inner.jobs_ready.wait_for(&mut jobs, inner.config.poll_interval);
            }
        };
        let Some(job) = job else { return };
        match job {
            Job::Direct { conn, id, req, token, enqueued } => {
                conn::run_direct(inner, &conn, id, &req, token, enqueued);
            }
            Job::Lane { conn } => conn::run_lane(inner, &conn),
        }
    }
}

/// Reap idle connections: no frame in progress, nothing in flight, and
/// no bytes received for `idle_timeout`. The reaper shuts the socket's
/// read half down; the blocked reader sees a clean EOF and closes the
/// connection silently (no error frame), aborting any orphaned
/// transaction on the way out.
fn reaper_loop(inner: &Arc<ServerInner>) {
    let tick = inner.config.poll_interval.min(Duration::from_millis(100));
    while !inner.shutting_down() {
        std::thread::sleep(tick);
        let idle_ms = inner.config.idle_timeout.as_millis() as u64;
        let doomed: Vec<Arc<ConnHandle>> = {
            let registry = inner.registry.lock();
            registry
                .values()
                .filter(|c| c.idle_for_ms() > idle_ms)
                .filter(|c| c.reapable())
                .map(Arc::clone)
                .collect()
        };
        for conn in doomed {
            conn.unblock_reader();
        }
    }
}
