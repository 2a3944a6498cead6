//! # mmdb-client — the Rust client library
//!
//! A blocking client for `mmdb-server` speaking `mmdb-protocol`. The
//! API mirrors the embedded `Database`/`Session` surface: queries,
//! typed model operations, explicit `begin`/`commit`/`abort`, DDL, and
//! `ADMIN STATS`. One [`Client`] is one connection and one (optional)
//! open transaction; [`Pool`] multiplexes clients across threads.
//!
//! Server-side failures come back as the same [`Error`] values the
//! embedded engine would have produced, so code can move between
//! embedded and networked deployments without changing its error
//! handling.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

mod pool;
mod retry;

pub use pool::{Consistency, Pool, PoolConfig, PoolStats, PooledClient, ReadPipeline};
pub use retry::RetryPolicy;

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mmdb_protocol::frame::{self, FrameReader};
use mmdb_protocol::{schema_to_value, DdlOp, Request, Response, SessionOp, PROTOCOL_VERSION};
use mmdb_relational::Schema;
use mmdb_types::{Error, Result, Value};

/// Connection tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket read timeout; `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout.
    pub write_timeout: Option<Duration>,
    /// Maximum frame payload accepted or produced.
    pub max_frame_len: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frame_len: frame::MAX_FRAME_LEN,
        }
    }
}

/// Size a connection's read and send buffers return to once drained:
/// room for a pipelined window of small messages per `read` / `write`.
const IDLE_BUF_BYTES: usize = 8 * 1024;

/// One connection to a mmdb server.
pub struct Client {
    stream: TcpStream,
    /// Every read of the socket goes through this buffer: a burst of
    /// pipelined responses (or pushed changes) costs one `read`.
    frames: FrameReader,
    config: ClientConfig,
    server: String,
    /// Set after an I/O or framing failure: the stream position is
    /// unknown, so the connection must not be reused.
    poisoned: bool,
    /// WAL position of the newest commit acknowledged on this
    /// connection; feeds read-your-writes session tokens.
    last_commit_lsn: Option<u64>,
    /// Set after `replica_hello`/`subscribe`: the server now pushes
    /// `Change` frames and ordinary request/response calls are invalid.
    streaming: bool,
    /// Next request id handed out by [`Client::submit`].
    next_id: u64,
    /// Ids submitted but not yet handed back by [`Client::receive`].
    pending: HashSet<u64>,
    /// Encoded frames buffered by `submit` and flushed in one write on
    /// the next `receive` (or explicit [`Client::flush`]).
    send_buf: Vec<u8>,
    /// Responses read off the wire ahead of the id the caller asked
    /// for: the server may complete pipelined requests out of order.
    stash: HashMap<u64, Response>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("server", &self.server)
            .field("peer", &self.stream.peer_addr().ok())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Client {
    /// Connect with default configuration and perform the handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit configuration and perform the handshake.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            frames: FrameReader::new(IDLE_BUF_BYTES),
            config,
            server: String::new(),
            poisoned: false,
            last_commit_lsn: None,
            streaming: false,
            next_id: 1,
            pending: HashSet::new(),
            send_buf: Vec::new(),
            stash: HashMap::new(),
        };
        match client.call(&Request::Hello { version: PROTOCOL_VERSION })? {
            Response::Hello { server, .. } => {
                client.server = server;
                Ok(client)
            }
            other => Err(Error::Protocol(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// The server identification from the handshake, e.g. `mmdb/0.1.0`.
    pub fn server_version(&self) -> &str {
        &self.server
    }

    /// True when an I/O failure made this connection unusable.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Send one request and wait for its response.
    ///
    /// Engine errors reported by the server come back as `Err` with the
    /// original error kind; the connection stays usable. I/O and
    /// framing failures (including a read timeout) poison the
    /// connection.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        if self.poisoned {
            return Err(Error::Protocol(
                "connection poisoned by an earlier I/O failure".into(),
            ));
        }
        if self.streaming {
            return Err(Error::Protocol(
                "connection is in streaming mode; only next_change is valid".into(),
            ));
        }
        if !self.pending.is_empty() {
            return Err(Error::Protocol(
                "pipelined requests in flight; receive them before call".into(),
            ));
        }
        let result = (|| {
            self.buffer_frame(None, req)?;
            self.flush()?;
            let payload = self.frames.read_frame(&mut self.stream, self.config.max_frame_len)?;
            Response::decode(payload)
        })();
        match result {
            Ok(Response::Err { kind, message }) => {
                Err(Response::into_error(&kind, message))
            }
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    // ---- pipelining --------------------------------------------------------

    /// Queue a request without waiting for its response; returns the
    /// request id to pass to [`Client::receive`].
    ///
    /// Frames are buffered locally and flushed in one write by the next
    /// `receive` (or an explicit [`Client::flush`]), so submitting N
    /// requests then receiving them costs one socket write instead of
    /// N. Responses may come back out of submission order; `receive`
    /// stashes whatever else arrives while it waits for the id you
    /// asked for. The server caps the ids it will hold in flight per
    /// connection at `pipeline_depth` and stops reading beyond it, so a
    /// client that submits far more than it receives will eventually
    /// block in `flush` — that is the backpressure working, not a bug.
    ///
    /// Transactions pipeline safely: the server executes `BEGIN` /
    /// model ops / `COMMIT` from one connection in submission order.
    pub fn submit(&mut self, req: &Request) -> Result<u64> {
        if self.poisoned {
            return Err(Error::Protocol(
                "connection poisoned by an earlier I/O failure".into(),
            ));
        }
        if self.streaming {
            return Err(Error::Protocol(
                "connection is in streaming mode; only next_change is valid".into(),
            ));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.buffer_frame(Some(id), req)?;
        self.pending.insert(id);
        Ok(id)
    }

    /// Encode `req` (tagged with `id` when present) straight into the
    /// send buffer as one frame. An oversized request is cut back off
    /// before it counts, so the buffer holds whole frames only and the
    /// connection stays clean.
    fn buffer_frame(&mut self, id: Option<u64>, req: &Request) -> Result<()> {
        let max = self.config.max_frame_len;
        frame::append_frame(&mut self.send_buf, max, |out| req.encode_with_id_into(id, out))
            .map_err(|len| {
                Error::Protocol(format!(
                    "outgoing frame of {len} bytes exceeds the {max} byte limit"
                ))
            })
    }

    /// Push all buffered [`Client::submit`] frames to the server in one
    /// write. `receive` calls this automatically.
    pub fn flush(&mut self) -> Result<()> {
        if self.send_buf.is_empty() {
            return Ok(());
        }
        if self.poisoned {
            return Err(Error::Protocol(
                "connection poisoned by an earlier I/O failure".into(),
            ));
        }
        let written = self.stream.write_all(&self.send_buf);
        frame::release(&mut self.send_buf, IDLE_BUF_BYTES);
        if let Err(e) = written {
            self.poisoned = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Wait for the response to a previously [`Client::submit`]ted id.
    ///
    /// Ids may be received in any order; responses that arrive for
    /// other pending ids are stashed and returned when asked for.
    /// Engine errors come back as `Err` with the original kind and the
    /// connection stays usable; I/O and framing failures poison it.
    pub fn receive(&mut self, id: u64) -> Result<Response> {
        if !self.pending.contains(&id) {
            return Err(Error::Protocol(format!(
                "request id {id} is not in flight on this connection"
            )));
        }
        self.flush()?;
        loop {
            if let Some(resp) = self.stash.remove(&id) {
                self.pending.remove(&id);
                return self.unwrap_pipelined(resp);
            }
            if self.poisoned {
                return Err(Error::Protocol(
                    "connection poisoned by an earlier I/O failure".into(),
                ));
            }
            let result = (|| {
                let payload =
                    self.frames.read_frame(&mut self.stream, self.config.max_frame_len)?;
                Response::decode_with_id(payload)
            })();
            match result {
                Ok((Some(got), resp)) if got == id => {
                    self.pending.remove(&id);
                    return self.unwrap_pipelined(resp);
                }
                Ok((Some(got), resp)) if self.pending.contains(&got) => {
                    self.stash.insert(got, resp);
                }
                Ok((got, resp)) => {
                    self.poisoned = true;
                    return Err(Error::Protocol(format!(
                        "unexpected pipelined frame (id {got:?}): {resp:?}"
                    )));
                }
                Err(e) => {
                    self.poisoned = true;
                    return Err(e);
                }
            }
        }
    }

    /// Number of submitted requests not yet received.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn unwrap_pipelined(&mut self, resp: Response) -> Result<Response> {
        match resp {
            Response::Err { kind, message } => Err(Response::into_error(&kind, message)),
            Response::Committed { commit_ts, lsn } => {
                if lsn.is_some() {
                    self.last_commit_lsn = self.last_commit_lsn.max(lsn);
                }
                Ok(Response::Committed { commit_ts, lsn })
            }
            other => Ok(other),
        }
    }

    fn expect_ok(&mut self, req: &Request) -> Result<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(req, &other)),
        }
    }

    fn expect_key(&mut self, req: &Request) -> Result<String> {
        match self.call(req)? {
            Response::Key(k) => Ok(k),
            other => Err(unexpected(req, &other)),
        }
    }

    fn expect_maybe(&mut self, req: &Request) -> Result<Option<Value>> {
        match self.call(req)? {
            Response::Maybe(v) => Ok(v),
            other => Err(unexpected(req, &other)),
        }
    }

    // ---- queries -----------------------------------------------------------

    /// Run an MMQL query; returns the result rows.
    pub fn query(&mut self, text: &str) -> Result<Vec<Value>> {
        self.query_request(Request::Query { text: text.into(), deadline_ms: None })
    }

    /// Run an MMQL query with an execution deadline. The server caps the
    /// budget by its own `max_query_time` and aborts the query with a
    /// retryable `deadline_exceeded` error once it expires.
    pub fn query_with_deadline(&mut self, text: &str, deadline: Duration) -> Result<Vec<Value>> {
        self.query_request(Request::Query {
            text: text.into(),
            deadline_ms: Some(deadline.as_millis().min(u64::MAX as u128) as u64),
        })
    }

    /// Run a SQL query; returns the result rows.
    pub fn query_sql(&mut self, text: &str) -> Result<Vec<Value>> {
        self.query_request(Request::Sql { text: text.into(), deadline_ms: None })
    }

    /// Run a SQL query with an execution deadline (see
    /// [`Client::query_with_deadline`]).
    pub fn query_sql_with_deadline(
        &mut self,
        text: &str,
        deadline: Duration,
    ) -> Result<Vec<Value>> {
        self.query_request(Request::Sql {
            text: text.into(),
            deadline_ms: Some(deadline.as_millis().min(u64::MAX as u128) as u64),
        })
    }

    fn query_request(&mut self, req: Request) -> Result<Vec<Value>> {
        match self.call(&req)? {
            Response::Rows(rows) => Ok(rows),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Explain an MMQL query plan.
    pub fn explain(&mut self, text: &str) -> Result<String> {
        let req = Request::Explain { text: text.into(), deadline_ms: None, analyze: false };
        match self.call(&req)? {
            Response::Text(t) => Ok(t),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// EXPLAIN ANALYZE: run the query on the server and return the plan
    /// annotated with actual per-operator row counts, timings, and access
    /// paths.
    pub fn explain_analyze(&mut self, text: &str) -> Result<String> {
        let req = Request::Explain { text: text.into(), deadline_ms: None, analyze: true };
        match self.call(&req)? {
            Response::Text(t) => Ok(t),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&Request::Ping, &other)),
        }
    }

    /// Fetch the server's metrics snapshot.
    pub fn admin_stats(&mut self) -> Result<Value> {
        match self.call(&Request::Admin { command: "STATS".into() })? {
            Response::Stats(v) => Ok(v),
            other => Err(unexpected(&Request::Admin { command: "STATS".into() }, &other)),
        }
    }

    /// Fetch the server's slow-query log: the most recent queries whose
    /// execution exceeded `ServerConfig::slow_query_threshold`, newest
    /// last, each with text, total time, and per-operator breakdown.
    pub fn admin_slowlog(&mut self) -> Result<Value> {
        match self.call(&Request::Admin { command: "SLOWLOG".into() })? {
            Response::Stats(v) => Ok(v),
            other => Err(unexpected(&Request::Admin { command: "SLOWLOG".into() }, &other)),
        }
    }

    /// Clear the server's slow-query log. Returns `{"dropped": N}` with
    /// the number of entries discarded.
    pub fn admin_slowlog_reset(&mut self) -> Result<Value> {
        let req = Request::Admin { command: "SLOWLOG RESET".into() };
        match self.call(&req)? {
            Response::Stats(v) => Ok(v),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Fetch the server's health summary: `{"status": "ok"}` while the
    /// engine accepts writes, `{"status": "degraded", "reason": ...}` once
    /// a durability failure has latched it read-only.
    pub fn admin_health(&mut self) -> Result<Value> {
        match self.call(&Request::Admin { command: "HEALTH".into() })? {
            Response::Stats(v) => Ok(v),
            other => Err(unexpected(&Request::Admin { command: "HEALTH".into() }, &other)),
        }
    }

    /// Fetch the server's replication summary: role, WAL tail / applied
    /// LSNs, and (on a replica) connection state and lag.
    pub fn admin_repl(&mut self) -> Result<Value> {
        let req = Request::Admin { command: "REPL".into() };
        match self.call(&req)? {
            Response::Stats(v) => Ok(v),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Ask the server to checkpoint now: snapshot the live state, append
    /// the checkpoint marker, truncate the WAL prefix, vacuum dead MVCC
    /// versions. Returns the summary (`snapshot_lsn`, `entries`,
    /// `snapshot_bytes`, `wal_bytes_reclaimed`, `versions_vacuumed`,
    /// `micros`).
    pub fn admin_checkpoint(&mut self) -> Result<Value> {
        let req = Request::Admin { command: "CHECKPOINT".into() };
        match self.call(&req)? {
            Response::Stats(v) => Ok(v),
            other => Err(unexpected(&req, &other)),
        }
    }

    // ---- streaming ---------------------------------------------------------

    /// Switch this connection into the raw WAL replica stream for a
    /// replica whose own log has id `log_id` and ends at `tail`: the
    /// server resumes there when that log is its own, and sends a `reset`
    /// frame first when it is not. After this call the only valid
    /// operation is [`Client::next_change`].
    pub fn replica_hello(&mut self, log_id: u64, tail: u64) -> Result<()> {
        self.enter_stream(&Request::ReplicaHello { log_id, tail })
    }

    /// Switch this connection into the `SUBSCRIBE` change feed: decoded
    /// committed writes starting at `from_lsn` (use an earlier event's
    /// `lsn` field to resume). After this call the only valid operation
    /// is [`Client::next_change`].
    pub fn subscribe(&mut self, from_lsn: u64) -> Result<()> {
        self.enter_stream(&Request::Subscribe { from_lsn })
    }

    fn enter_stream(&mut self, req: &Request) -> Result<()> {
        if self.poisoned {
            return Err(Error::Protocol(
                "connection poisoned by an earlier I/O failure".into(),
            ));
        }
        if self.streaming {
            return Err(Error::Protocol("connection is already streaming".into()));
        }
        if !self.pending.is_empty() {
            return Err(Error::Protocol(
                "pipelined requests in flight; receive them before streaming".into(),
            ));
        }
        if let Err(e) =
            frame::write_frame(&mut self.stream, &req.encode(), self.config.max_frame_len)
        {
            self.poisoned = true;
            return Err(e);
        }
        self.streaming = true;
        Ok(())
    }

    /// Block for the next pushed stream frame (after
    /// [`Client::replica_hello`] or [`Client::subscribe`]).
    ///
    /// A read timeout, like any other failure, poisons the connection:
    /// the server heartbeats idle streams several times a second, so a
    /// silent connection is a dead one — reconnect and resume by LSN.
    pub fn next_change(&mut self) -> Result<Value> {
        if self.poisoned {
            return Err(Error::Protocol(
                "connection poisoned by an earlier I/O failure".into(),
            ));
        }
        if !self.streaming {
            return Err(Error::Protocol(
                "next_change is only valid after replica_hello or subscribe".into(),
            ));
        }
        let result = (|| {
            let payload = self.frames.read_frame(&mut self.stream, self.config.max_frame_len)?;
            Response::decode(payload)
        })();
        match result {
            Ok(Response::Change(v)) => Ok(v),
            Ok(Response::Err { kind, message }) => {
                // The server ended the stream; nothing more will arrive.
                self.poisoned = true;
                Err(Response::into_error(&kind, message))
            }
            Ok(other) => {
                self.poisoned = true;
                Err(Error::Protocol(format!("unexpected stream frame: {other:?}")))
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    // ---- transactions ------------------------------------------------------

    /// Open an explicit transaction; returns the transaction id.
    pub fn begin(&mut self, serializable: bool) -> Result<u64> {
        match self.call(&Request::Begin { serializable })? {
            Response::TxnBegun { txn_id } => Ok(txn_id as u64),
            other => Err(unexpected(&Request::Begin { serializable }, &other)),
        }
    }

    /// Commit the open transaction; returns the commit timestamp.
    pub fn commit(&mut self) -> Result<u64> {
        match self.call(&Request::Commit)? {
            Response::Committed { commit_ts, lsn } => {
                if lsn.is_some() {
                    self.last_commit_lsn = self.last_commit_lsn.max(lsn);
                }
                Ok(commit_ts as u64)
            }
            other => Err(unexpected(&Request::Commit, &other)),
        }
    }

    /// WAL position of the newest commit acknowledged on this
    /// connection — the session token for read-your-writes routing.
    /// `None` until a commit succeeds (or when the server has no WAL).
    pub fn last_commit_lsn(&self) -> Option<u64> {
        self.last_commit_lsn
    }

    /// Abort the open transaction.
    pub fn abort(&mut self) -> Result<()> {
        match self.call(&Request::Abort)? {
            Response::Aborted => Ok(()),
            other => Err(unexpected(&Request::Abort, &other)),
        }
    }

    // ---- typed operations --------------------------------------------------
    // Inside an explicit transaction these stage writes; outside one
    // each op auto-commits.

    pub fn insert_document(&mut self, collection: &str, doc: Value) -> Result<String> {
        self.expect_key(&Request::Op(SessionOp::InsertDocument {
            collection: collection.into(),
            doc,
        }))
    }

    pub fn update_document(&mut self, collection: &str, key: &str, doc: Value) -> Result<()> {
        self.expect_ok(&Request::Op(SessionOp::UpdateDocument {
            collection: collection.into(),
            key: key.into(),
            doc,
        }))
    }

    pub fn remove_document(&mut self, collection: &str, key: &str) -> Result<()> {
        self.expect_ok(&Request::Op(SessionOp::RemoveDocument {
            collection: collection.into(),
            key: key.into(),
        }))
    }

    pub fn get_document(&mut self, collection: &str, key: &str) -> Result<Option<Value>> {
        self.expect_maybe(&Request::Op(SessionOp::GetDocument {
            collection: collection.into(),
            key: key.into(),
        }))
    }

    pub fn kv_put(&mut self, bucket: &str, key: &str, value: Value) -> Result<()> {
        self.expect_ok(&Request::Op(SessionOp::KvPut {
            bucket: bucket.into(),
            key: key.into(),
            value,
        }))
    }

    pub fn kv_delete(&mut self, bucket: &str, key: &str) -> Result<()> {
        self.expect_ok(&Request::Op(SessionOp::KvDelete {
            bucket: bucket.into(),
            key: key.into(),
        }))
    }

    pub fn kv_get(&mut self, bucket: &str, key: &str) -> Result<Option<Value>> {
        self.expect_maybe(&Request::Op(SessionOp::KvGet {
            bucket: bucket.into(),
            key: key.into(),
        }))
    }

    pub fn insert_row(&mut self, table: &str, row: Value) -> Result<()> {
        self.expect_ok(&Request::Op(SessionOp::InsertRow { table: table.into(), row }))
    }

    pub fn update_row(&mut self, table: &str, row: Value) -> Result<()> {
        self.expect_ok(&Request::Op(SessionOp::UpdateRow { table: table.into(), row }))
    }

    pub fn delete_row(&mut self, table: &str, pk: Value) -> Result<()> {
        self.expect_ok(&Request::Op(SessionOp::DeleteRow { table: table.into(), pk }))
    }

    pub fn get_row(&mut self, table: &str, pk: Value) -> Result<Option<Value>> {
        self.expect_maybe(&Request::Op(SessionOp::GetRow { table: table.into(), pk }))
    }

    pub fn add_vertex(&mut self, graph: &str, collection: &str, doc: Value) -> Result<String> {
        self.expect_key(&Request::Op(SessionOp::AddVertex {
            graph: graph.into(),
            collection: collection.into(),
            doc,
        }))
    }

    pub fn add_edge(
        &mut self,
        graph: &str,
        collection: &str,
        from: &str,
        to: &str,
        properties: Value,
    ) -> Result<String> {
        self.expect_key(&Request::Op(SessionOp::AddEdge {
            graph: graph.into(),
            collection: collection.into(),
            from: from.into(),
            to: to.into(),
            properties,
        }))
    }

    pub fn rdf_insert(&mut self, subject: &str, predicate: &str, object: Value) -> Result<()> {
        self.expect_ok(&Request::Op(SessionOp::RdfInsert {
            subject: subject.into(),
            predicate: predicate.into(),
            object,
        }))
    }

    pub fn rdf_remove(&mut self, subject: &str, predicate: &str, object: Value) -> Result<()> {
        self.expect_ok(&Request::Op(SessionOp::RdfRemove {
            subject: subject.into(),
            predicate: predicate.into(),
            object,
        }))
    }

    // ---- DDL ---------------------------------------------------------------

    pub fn create_collection(&mut self, name: &str) -> Result<()> {
        self.expect_ok(&Request::Ddl(DdlOp::CreateCollection { name: name.into() }))
    }

    pub fn create_bucket(&mut self, name: &str) -> Result<()> {
        self.expect_ok(&Request::Ddl(DdlOp::CreateBucket { name: name.into() }))
    }

    pub fn create_graph(&mut self, name: &str) -> Result<()> {
        self.expect_ok(&Request::Ddl(DdlOp::CreateGraph { name: name.into() }))
    }

    pub fn create_vertex_collection(&mut self, graph: &str, name: &str) -> Result<()> {
        self.expect_ok(&Request::Ddl(DdlOp::CreateVertexCollection {
            graph: graph.into(),
            name: name.into(),
        }))
    }

    pub fn create_edge_collection(&mut self, graph: &str, name: &str) -> Result<()> {
        self.expect_ok(&Request::Ddl(DdlOp::CreateEdgeCollection {
            graph: graph.into(),
            name: name.into(),
        }))
    }

    pub fn create_table(&mut self, name: &str, schema: &Schema) -> Result<()> {
        self.expect_ok(&Request::Ddl(DdlOp::CreateTable {
            name: name.into(),
            schema: schema_to_value(schema),
        }))
    }

    pub fn create_fulltext_index(
        &mut self,
        name: &str,
        collection: &str,
        field: &str,
    ) -> Result<()> {
        self.expect_ok(&Request::Ddl(DdlOp::CreateFulltextIndex {
            name: name.into(),
            collection: collection.into(),
            field: field.into(),
        }))
    }
}

fn unexpected(req: &Request, resp: &Response) -> Error {
    Error::Protocol(format!("unexpected response to {req:?}: {resp:?}"))
}
