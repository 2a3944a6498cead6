//! Request and response messages.
//!
//! Messages are tagged value arrays (`["query", "FOR c ..."]`) in the
//! engine's own binary value codec (`mmdb_types::codec`). Reusing the
//! storage codec means the wire format gets the full `Value` domain —
//! nested documents, bytes, floats — for free, and one codec is fuzzed
//! instead of two.
//!
//! Each message is encoded where it lies: its tagged head and fields go
//! straight into the output, never through a `Value` tree of the whole
//! message, and a point read's reply can carry a committed version's
//! log bytes as they are ([`Response::MaybeEncoded`]). Decoding builds
//! the message's tree once and moves its strings, documents and rows out
//! of it.

use std::sync::Arc;

use mmdb_types::codec::{encode_array_header, encode_str, encode_value, value_from_bytes};
use mmdb_types::{Error, Result, Value};

/// Version of the wire protocol. The server refuses a `Hello` carrying a
/// different major version.
pub const PROTOCOL_VERSION: i64 = 1;

/// Envelope tag for id-carrying frames (see [`Request::encode_with_id`]).
/// Ordinary message tags are lowercase words, so the `#` prefix can never
/// collide with one.
const ID_TAG: &str = "#id";

/// Append the head of the pipelining id envelope `["#id", <id>, <inner
/// message>]` when there is an id: the message encoded next is its last
/// item. Id-less frames carry no envelope bytes at all.
fn envelope_head(id: Option<u64>, out: &mut Vec<u8>) {
    if let Some(id) = id {
        tagged_head(ID_TAG, 2, out);
        encode_value(&Value::int(id as i64), out);
    }
}

/// Split an incoming message value into its optional pipelining id and
/// the inner message. Id-less frames (everything a pre-pipelining peer
/// sends) pass through unchanged, which is what keeps the envelope
/// backward compatible: no id on the wire means no envelope bytes at all,
/// exactly like the `deadline_ms`/`analyze` trailing-field precedents.
fn unwrap_envelope(mut v: Value) -> Result<(Option<u64>, Value)> {
    let (tag, rest) = parts(&mut v)?;
    if tag != ID_TAG {
        return Ok((None, v));
    }
    let id = int_field(rest, 0, tag)?;
    let id = u64::try_from(id)
        .map_err(|_| Error::Protocol("'#id' field 0 must be a non-negative id".into()))?;
    // One level only: an envelope inside an envelope is a protocol error,
    // caught by the inner from_value seeing an unknown '#id' tag.
    Ok((Some(id), take_field(rest, 1, tag)?))
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; must be the first request on a connection.
    Hello { version: i64 },
    /// Liveness check.
    Ping,
    /// Run an MMQL query outside any explicit transaction. `deadline_ms`
    /// is an optional execution budget in milliseconds; the server caps it
    /// by its own `max_query_time` and aborts the query cooperatively with
    /// a retryable `deadline_exceeded` error once it expires.
    Query { text: String, deadline_ms: Option<u64> },
    /// Run a SQL query outside any explicit transaction (same optional
    /// deadline semantics as `Query`).
    Sql { text: String, deadline_ms: Option<u64> },
    /// Explain an MMQL query plan (same optional deadline semantics as
    /// `Query`). With `analyze` set the server *runs* the query and
    /// returns the plan annotated with actual per-operator row counts,
    /// timings, and access paths (`EXPLAIN ANALYZE`). The flag is an
    /// optional trailing field like `deadline_ms`: old clients never send
    /// it, and servers decode absence as `false`.
    Explain { text: String, deadline_ms: Option<u64>, analyze: bool },
    /// Open an explicit transaction on this connection.
    Begin { serializable: bool },
    /// Commit the connection's open transaction.
    Commit,
    /// Abort the connection's open transaction.
    Abort,
    /// A typed data operation; runs in the open transaction when one
    /// exists, otherwise auto-commits.
    Op(SessionOp),
    /// A DDL operation (always auto-committed).
    Ddl(DdlOp),
    /// An administrative command, e.g. `STATS`.
    Admin { command: String },
    /// `REPLICA HELLO <log_id> <tail>`: switch this connection into a
    /// replication stream. The replica names its own log's id and tail.
    /// When that log is the server's and `tail` lies between its horizon
    /// and its durable tail, the server streams from `tail`; otherwise it
    /// first sends a `reset` frame with its log's header and streams from
    /// its base, image block first. Either way it then tails the log live,
    /// pushing one [`Response::Change`] frame per record plus periodic
    /// heartbeats. The connection never returns to request/response mode.
    ReplicaHello { log_id: u64, tail: u64 },
    /// `SUBSCRIBE <lsn>`: the same stream for ordinary clients, as a
    /// change-data-capture feed. Only the writes of *committed*
    /// transactions are pushed (one frame per write, buffered until the
    /// commit record arrives), each carrying the commit's resume LSN.
    Subscribe { from_lsn: u64 },
}

/// Typed data operations mirroring `mmdb_core::Session`.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOp {
    InsertDocument { collection: String, doc: Value },
    UpdateDocument { collection: String, key: String, doc: Value },
    RemoveDocument { collection: String, key: String },
    GetDocument { collection: String, key: String },
    KvPut { bucket: String, key: String, value: Value },
    KvDelete { bucket: String, key: String },
    KvGet { bucket: String, key: String },
    InsertRow { table: String, row: Value },
    UpdateRow { table: String, row: Value },
    DeleteRow { table: String, pk: Value },
    GetRow { table: String, pk: Value },
    AddVertex { graph: String, collection: String, doc: Value },
    AddEdge { graph: String, collection: String, from: String, to: String, properties: Value },
    RdfInsert { subject: String, predicate: String, object: Value },
    RdfRemove { subject: String, predicate: String, object: Value },
}

/// DDL operations mirroring the `Database` catalog methods.
#[derive(Debug, Clone, PartialEq)]
pub enum DdlOp {
    CreateCollection { name: String },
    CreateBucket { name: String },
    CreateGraph { name: String },
    CreateVertexCollection { graph: String, name: String },
    CreateEdgeCollection { graph: String, name: String },
    /// `schema` uses the encoding of [`crate::schema::schema_to_value`].
    CreateTable { name: String, schema: Value },
    CreateFulltextIndex { name: String, collection: String, field: String },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Generic success with no payload.
    Ok,
    /// Reply to `Ping`.
    Pong,
    /// Handshake acknowledgement.
    Hello { version: i64, server: String },
    /// Query result rows.
    Rows(Vec<Value>),
    /// A point lookup's result.
    Maybe(Option<Value>),
    /// A point lookup's result in the value codec's bytes: a committed
    /// version's log bytes as the version store keeps them, shared, not
    /// decoded. The server's form of `Maybe`: it encodes to exactly the
    /// bytes of `Maybe` of their decode, and decoding never produces it.
    MaybeEncoded(Option<Arc<[u8]>>),
    /// A generated key (document insert, vertex/edge insert).
    Key(String),
    /// Transaction opened; carries its id.
    TxnBegun { txn_id: i64 },
    /// Transaction committed at this timestamp. `lsn` is the replication
    /// watermark just past the commit's WAL record — a read-your-writes
    /// token (optional trailing field: pre-replication servers never send
    /// it, and 0/absent both mean "no token").
    Committed { commit_ts: i64, lsn: Option<u64> },
    /// Transaction aborted.
    Aborted,
    /// Free-form text (EXPLAIN output).
    Text(String),
    /// `ADMIN STATS` payload.
    Stats(Value),
    /// One pushed frame of a replication / change-feed stream (after
    /// `REPLICA HELLO` or `SUBSCRIBE`). The payload shape is defined by
    /// `mmdb-repl`: a tagged object — a WAL record, a CDC write event, or
    /// a heartbeat carrying the primary's current tail LSN.
    Change(Value),
    /// Any failure; `kind` matches [`Error::kind`].
    Err { kind: String, message: String },
}

impl Response {
    /// Convert an engine error into its wire form.
    pub fn from_error(e: &Error) -> Response {
        let text = e.to_string();
        // Display is "<kind words>: <message>"; keep just the message.
        let message = match text.split_once(": ") {
            Some((_, m)) => m.to_string(),
            None => text,
        };
        Response::Err { kind: e.kind().to_string(), message }
    }

    /// Convert a wire error back into the engine error it came from.
    pub fn into_error(kind: &str, message: String) -> Error {
        match kind {
            "parse" => Error::Parse(message),
            "type" => Error::Type(message),
            "not_found" => Error::NotFound(message),
            "already_exists" => Error::AlreadyExists(message),
            "schema" => Error::Schema(message),
            "storage" => Error::Storage(message),
            "txn_conflict" => Error::TxnConflict(message),
            "txn_closed" => Error::TxnClosed(message),
            "query" => Error::Query(message),
            "unsupported" => Error::Unsupported(message),
            "protocol" => Error::Protocol(message),
            "busy" => Error::Busy(message),
            "deadline_exceeded" => Error::DeadlineExceeded(message),
            "read_only" => Error::ReadOnly(message),
            "corruption" => Error::Corruption(message),
            "log_truncated" => Error::LogTruncated(message),
            "startup" => Error::Startup(message),
            _ => Error::Internal(message),
        }
    }
}

// ---- encoding -----------------------------------------------------------------

/// Encode the head of the message `[tag, <fields items>...]`.
fn tagged_head(tag: &str, fields: usize, out: &mut Vec<u8>) {
    encode_array_header(fields + 1, out);
    encode_str(tag, out);
}

/// Encode `[tag, strs..., value]`: a message whose fields are strings
/// followed by at most one value, which is the shape of every typed and
/// DDL operation.
fn encode_fields<S: AsRef<str>>(tag: &str, strs: &[S], value: Option<&Value>, out: &mut Vec<u8>) {
    tagged_head(tag, strs.len() + usize::from(value.is_some()), out);
    for s in strs {
        encode_str(s.as_ref(), out);
    }
    if let Some(v) = value {
        encode_value(v, out);
    }
}

/// Encode `[tag, value]`.
fn encode_value_message(tag: &str, value: &Value, out: &mut Vec<u8>) {
    encode_fields::<&str>(tag, &[], Some(value), out);
}

/// Encode `[tag, ints...]`.
fn encode_ints(tag: &str, ints: &[i64], out: &mut Vec<u8>) {
    tagged_head(tag, ints.len(), out);
    for &i in ints {
        encode_value(&Value::int(i), out);
    }
}

/// Encode a query-style message: the text, plus the deadline only when
/// set. With `analyze` set, a `Null` pads the deadline slot when there
/// is no deadline, so the flag always sits at index 2.
fn encode_query(tag: &str, text: &str, deadline_ms: Option<u64>, analyze: bool, out: &mut Vec<u8>) {
    let fields = if analyze { 3 } else { 1 + usize::from(deadline_ms.is_some()) };
    tagged_head(tag, fields, out);
    encode_str(text, out);
    match deadline_ms {
        Some(ms) => encode_value(&Value::int(ms as i64), out),
        None if analyze => encode_value(&Value::Null, out),
        None => {}
    }
    if analyze {
        encode_value(&Value::Bool(true), out);
    }
}

// ---- decoding -----------------------------------------------------------------

/// A decoded message's tag and its fields, which decoding takes out by
/// move.
fn parts(v: &mut Value) -> Result<(&str, &mut [Value])> {
    let Value::Array(items) = v else {
        return Err(Error::Type(format!("expected array, got {}", v.type_name())));
    };
    let Some((tag, rest)) = items.split_first_mut() else {
        return Err(Error::Protocol("empty message".into()));
    };
    Ok((tag.as_str().map_err(|_| Error::Protocol("non-string message tag".into()))?, rest))
}

fn field<'a>(rest: &'a [Value], idx: usize, tag: &str) -> Result<&'a Value> {
    rest.get(idx)
        .ok_or_else(|| Error::Protocol(format!("'{tag}' message is missing field {idx}")))
}

/// Field `idx`, moved out of the message (a `Null` is left behind).
fn take_field(rest: &mut [Value], idx: usize, tag: &str) -> Result<Value> {
    match rest.get_mut(idx) {
        Some(v) => Ok(std::mem::replace(v, Value::Null)),
        None => Err(Error::Protocol(format!("'{tag}' message is missing field {idx}"))),
    }
}

/// A string field, moved out of the message: long text keeps its buffer.
fn str_field(rest: &mut [Value], idx: usize, tag: &str) -> Result<String> {
    match take_field(rest, idx, tag)? {
        Value::String(s) => Ok(s.into()),
        _ => Err(Error::Protocol(format!("'{tag}' field {idx} must be a string"))),
    }
}

fn int_field(rest: &[Value], idx: usize, tag: &str) -> Result<i64> {
    field(rest, idx, tag)?
        .as_int()
        .map_err(|_| Error::Protocol(format!("'{tag}' field {idx} must be an integer")))
}

fn bool_field(rest: &[Value], idx: usize, tag: &str) -> Result<bool> {
    field(rest, idx, tag)?
        .as_bool()
        .map_err(|_| Error::Protocol(format!("'{tag}' field {idx} must be a bool")))
}

/// An optional trailing non-negative integer field. Absent fields decode
/// to `None`, which keeps new trailing fields backward compatible: old
/// clients simply never send them, old servers never read them.
fn opt_ms_field(rest: &[Value], idx: usize, tag: &str) -> Result<Option<u64>> {
    match rest.get(idx) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let ms = v
                .as_int()
                .map_err(|_| Error::Protocol(format!("'{tag}' field {idx} must be an integer")))?;
            u64::try_from(ms).map(Some).map_err(|_| {
                Error::Protocol(format!("'{tag}' field {idx} must be a non-negative integer"))
            })
        }
    }
}

/// A required non-negative integer field decoded as a WAL position.
fn lsn_field(rest: &[Value], idx: usize, tag: &str) -> Result<u64> {
    let n = int_field(rest, idx, tag)?;
    u64::try_from(n)
        .map_err(|_| Error::Protocol(format!("'{tag}' field {idx} must be a non-negative LSN")))
}

/// An optional trailing boolean field; absent decodes to `false`.
fn opt_bool_field(rest: &[Value], idx: usize, tag: &str) -> Result<bool> {
    match rest.get(idx) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .map_err(|_| Error::Protocol(format!("'{tag}' field {idx} must be a bool"))),
    }
}

/// Decode a whole payload into its message tree.
fn payload_value(payload: &[u8], what: &str) -> Result<Value> {
    value_from_bytes(payload)
        .map_err(|e| Error::Protocol(format!("undecodable {what} payload: {e}")))
}

impl Request {
    /// Encode to a wire payload (to be framed by the caller).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_id(None)
    }

    /// Decode from a wire payload.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        Request::from_value(payload_value(payload, "request")?)
    }

    /// Encode with an optional pipelining request id. `None` produces
    /// exactly the bytes of [`Request::encode`] — an id-less frame is
    /// byte-identical to what a pre-pipelining client sends, so old
    /// servers and old clients interoperate unchanged.
    pub fn encode_with_id(&self, id: Option<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_with_id_into(id, &mut out);
        out
    }

    /// Append the bytes of [`Request::encode_with_id`] to `out`, which
    /// may be a frame buffer (see [`crate::frame::append_frame`]).
    pub fn encode_with_id_into(&self, id: Option<u64>, out: &mut Vec<u8>) {
        envelope_head(id, out);
        match self {
            Request::Hello { version } => encode_ints("hello", &[*version], out),
            Request::Ping => tagged_head("ping", 0, out),
            Request::Query { text, deadline_ms } => {
                encode_query("query", text, *deadline_ms, false, out)
            }
            Request::Sql { text, deadline_ms } => {
                encode_query("sql", text, *deadline_ms, false, out)
            }
            Request::Explain { text, deadline_ms, analyze } => {
                encode_query("explain", text, *deadline_ms, *analyze, out)
            }
            Request::Begin { serializable } => {
                tagged_head("begin", 1, out);
                encode_value(&Value::Bool(*serializable), out);
            }
            Request::Commit => tagged_head("commit", 0, out),
            Request::Abort => tagged_head("abort", 0, out),
            Request::Op(op) => {
                tagged_head("op", 1, out);
                op.encode_into(out);
            }
            Request::Ddl(op) => {
                tagged_head("ddl", 1, out);
                op.encode_into(out);
            }
            Request::Admin { command } => encode_fields("admin", &[command], None, out),
            Request::ReplicaHello { log_id, tail } => {
                encode_ints("replica_hello", &[*log_id as i64, *tail as i64], out)
            }
            Request::Subscribe { from_lsn } => encode_ints("subscribe", &[*from_lsn as i64], out),
        }
    }

    /// Decode a wire payload that may carry the pipelining id envelope.
    /// Returns the id (when present) alongside the request.
    pub fn decode_with_id(payload: &[u8]) -> Result<(Option<u64>, Request)> {
        let (id, inner) = unwrap_envelope(payload_value(payload, "request")?)?;
        Ok((id, Request::from_value(inner)?))
    }

    fn from_value(mut v: Value) -> Result<Request> {
        let (tag, rest) = parts(&mut v)?;
        Ok(match tag {
            "hello" => Request::Hello { version: int_field(rest, 0, tag)? },
            "ping" => Request::Ping,
            "query" => Request::Query {
                text: str_field(rest, 0, tag)?,
                deadline_ms: opt_ms_field(rest, 1, tag)?,
            },
            "sql" => Request::Sql {
                text: str_field(rest, 0, tag)?,
                deadline_ms: opt_ms_field(rest, 1, tag)?,
            },
            "explain" => Request::Explain {
                text: str_field(rest, 0, tag)?,
                deadline_ms: opt_ms_field(rest, 1, tag)?,
                analyze: opt_bool_field(rest, 2, tag)?,
            },
            "begin" => Request::Begin { serializable: bool_field(rest, 0, tag)? },
            "commit" => Request::Commit,
            "abort" => Request::Abort,
            "op" => Request::Op(SessionOp::from_value(take_field(rest, 0, tag)?)?),
            "ddl" => Request::Ddl(DdlOp::from_value(take_field(rest, 0, tag)?)?),
            "admin" => Request::Admin { command: str_field(rest, 0, tag)? },
            "replica_hello" => Request::ReplicaHello {
                log_id: lsn_field(rest, 0, tag)?,
                tail: lsn_field(rest, 1, tag)?,
            },
            "subscribe" => Request::Subscribe { from_lsn: lsn_field(rest, 0, tag)? },
            other => return Err(Error::Protocol(format!("unknown request tag '{other}'"))),
        })
    }

    /// The command label used by the server's per-command metrics.
    pub fn command_label(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Ping => "ping",
            Request::Query { .. } => "query",
            Request::Sql { .. } => "sql",
            Request::Explain { .. } => "explain",
            Request::Begin { .. } => "begin",
            Request::Commit => "commit",
            Request::Abort => "abort",
            Request::Op(_) => "op",
            Request::Ddl(_) => "ddl",
            Request::Admin { .. } => "admin",
            Request::ReplicaHello { .. } => "replica",
            Request::Subscribe { .. } => "subscribe",
        }
    }
}

impl SessionOp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            SessionOp::InsertDocument { collection, doc } => {
                encode_fields("insert_doc", &[collection], Some(doc), out)
            }
            SessionOp::UpdateDocument { collection, key, doc } => {
                encode_fields("update_doc", &[collection, key], Some(doc), out)
            }
            SessionOp::RemoveDocument { collection, key } => {
                encode_fields("remove_doc", &[collection, key], None, out)
            }
            SessionOp::GetDocument { collection, key } => {
                encode_fields("get_doc", &[collection, key], None, out)
            }
            SessionOp::KvPut { bucket, key, value } => {
                encode_fields("kv_put", &[bucket, key], Some(value), out)
            }
            SessionOp::KvDelete { bucket, key } => {
                encode_fields("kv_del", &[bucket, key], None, out)
            }
            SessionOp::KvGet { bucket, key } => encode_fields("kv_get", &[bucket, key], None, out),
            SessionOp::InsertRow { table, row } => {
                encode_fields("insert_row", &[table], Some(row), out)
            }
            SessionOp::UpdateRow { table, row } => {
                encode_fields("update_row", &[table], Some(row), out)
            }
            SessionOp::DeleteRow { table, pk } => {
                encode_fields("delete_row", &[table], Some(pk), out)
            }
            SessionOp::GetRow { table, pk } => encode_fields("get_row", &[table], Some(pk), out),
            SessionOp::AddVertex { graph, collection, doc } => {
                encode_fields("add_vertex", &[graph, collection], Some(doc), out)
            }
            SessionOp::AddEdge { graph, collection, from, to, properties } => {
                encode_fields("add_edge", &[graph, collection, from, to], Some(properties), out)
            }
            SessionOp::RdfInsert { subject, predicate, object } => {
                encode_fields("rdf_insert", &[subject, predicate], Some(object), out)
            }
            SessionOp::RdfRemove { subject, predicate, object } => {
                encode_fields("rdf_remove", &[subject, predicate], Some(object), out)
            }
        }
    }

    fn from_value(mut v: Value) -> Result<SessionOp> {
        let (tag, rest) = parts(&mut v)?;
        Ok(match tag {
            "insert_doc" => SessionOp::InsertDocument {
                collection: str_field(rest, 0, tag)?,
                doc: take_field(rest, 1, tag)?,
            },
            "update_doc" => SessionOp::UpdateDocument {
                collection: str_field(rest, 0, tag)?,
                key: str_field(rest, 1, tag)?,
                doc: take_field(rest, 2, tag)?,
            },
            "remove_doc" => SessionOp::RemoveDocument {
                collection: str_field(rest, 0, tag)?,
                key: str_field(rest, 1, tag)?,
            },
            "get_doc" => SessionOp::GetDocument {
                collection: str_field(rest, 0, tag)?,
                key: str_field(rest, 1, tag)?,
            },
            "kv_put" => SessionOp::KvPut {
                bucket: str_field(rest, 0, tag)?,
                key: str_field(rest, 1, tag)?,
                value: take_field(rest, 2, tag)?,
            },
            "kv_del" => SessionOp::KvDelete {
                bucket: str_field(rest, 0, tag)?,
                key: str_field(rest, 1, tag)?,
            },
            "kv_get" => SessionOp::KvGet {
                bucket: str_field(rest, 0, tag)?,
                key: str_field(rest, 1, tag)?,
            },
            "insert_row" => SessionOp::InsertRow {
                table: str_field(rest, 0, tag)?,
                row: take_field(rest, 1, tag)?,
            },
            "update_row" => SessionOp::UpdateRow {
                table: str_field(rest, 0, tag)?,
                row: take_field(rest, 1, tag)?,
            },
            "delete_row" => SessionOp::DeleteRow {
                table: str_field(rest, 0, tag)?,
                pk: take_field(rest, 1, tag)?,
            },
            "get_row" => SessionOp::GetRow {
                table: str_field(rest, 0, tag)?,
                pk: take_field(rest, 1, tag)?,
            },
            "add_vertex" => SessionOp::AddVertex {
                graph: str_field(rest, 0, tag)?,
                collection: str_field(rest, 1, tag)?,
                doc: take_field(rest, 2, tag)?,
            },
            "add_edge" => SessionOp::AddEdge {
                graph: str_field(rest, 0, tag)?,
                collection: str_field(rest, 1, tag)?,
                from: str_field(rest, 2, tag)?,
                to: str_field(rest, 3, tag)?,
                properties: take_field(rest, 4, tag)?,
            },
            "rdf_insert" => SessionOp::RdfInsert {
                subject: str_field(rest, 0, tag)?,
                predicate: str_field(rest, 1, tag)?,
                object: take_field(rest, 2, tag)?,
            },
            "rdf_remove" => SessionOp::RdfRemove {
                subject: str_field(rest, 0, tag)?,
                predicate: str_field(rest, 1, tag)?,
                object: take_field(rest, 2, tag)?,
            },
            other => return Err(Error::Protocol(format!("unknown op tag '{other}'"))),
        })
    }
}

impl DdlOp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            DdlOp::CreateCollection { name } => {
                encode_fields("create_collection", &[name], None, out)
            }
            DdlOp::CreateBucket { name } => encode_fields("create_bucket", &[name], None, out),
            DdlOp::CreateGraph { name } => encode_fields("create_graph", &[name], None, out),
            DdlOp::CreateVertexCollection { graph, name } => {
                encode_fields("create_vcoll", &[graph, name], None, out)
            }
            DdlOp::CreateEdgeCollection { graph, name } => {
                encode_fields("create_ecoll", &[graph, name], None, out)
            }
            DdlOp::CreateTable { name, schema } => {
                encode_fields("create_table", &[name], Some(schema), out)
            }
            DdlOp::CreateFulltextIndex { name, collection, field } => {
                encode_fields("create_ftidx", &[name, collection, field], None, out)
            }
        }
    }

    fn from_value(mut v: Value) -> Result<DdlOp> {
        let (tag, rest) = parts(&mut v)?;
        Ok(match tag {
            "create_collection" => DdlOp::CreateCollection { name: str_field(rest, 0, tag)? },
            "create_bucket" => DdlOp::CreateBucket { name: str_field(rest, 0, tag)? },
            "create_graph" => DdlOp::CreateGraph { name: str_field(rest, 0, tag)? },
            "create_vcoll" => DdlOp::CreateVertexCollection {
                graph: str_field(rest, 0, tag)?,
                name: str_field(rest, 1, tag)?,
            },
            "create_ecoll" => DdlOp::CreateEdgeCollection {
                graph: str_field(rest, 0, tag)?,
                name: str_field(rest, 1, tag)?,
            },
            "create_table" => DdlOp::CreateTable {
                name: str_field(rest, 0, tag)?,
                schema: take_field(rest, 1, tag)?,
            },
            "create_ftidx" => DdlOp::CreateFulltextIndex {
                name: str_field(rest, 0, tag)?,
                collection: str_field(rest, 1, tag)?,
                field: str_field(rest, 2, tag)?,
            },
            other => return Err(Error::Protocol(format!("unknown ddl tag '{other}'"))),
        })
    }
}

impl Response {
    /// Encode to a wire payload (to be framed by the caller).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_id(None)
    }

    /// Decode from a wire payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        Response::from_value(payload_value(payload, "response")?)
    }

    /// Encode with the request id this response answers. `None` produces
    /// exactly the bytes of [`Response::encode`] (the reply shape for
    /// id-less requests).
    pub fn encode_with_id(&self, id: Option<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_with_id_into(id, &mut out);
        out
    }

    /// Append the bytes of [`Response::encode_with_id`] to `out`, which
    /// may be a frame buffer (see [`crate::frame::append_frame`]). Rows
    /// and payload values are encoded where they lie, and
    /// [`Response::MaybeEncoded`]'s bytes are copied as they are.
    pub fn encode_with_id_into(&self, id: Option<u64>, out: &mut Vec<u8>) {
        envelope_head(id, out);
        match self {
            Response::Ok => tagged_head("ok", 0, out),
            Response::Pong => tagged_head("pong", 0, out),
            Response::Hello { version, server } => {
                tagged_head("hello", 2, out);
                encode_value(&Value::int(*version), out);
                encode_str(server, out);
            }
            Response::Rows(rows) => {
                tagged_head("rows", 1, out);
                encode_array_header(rows.len(), out);
                rows.iter().for_each(|row| encode_value(row, out));
            }
            // Distinct arities disambiguate `Some(Null)` from `None`.
            Response::Maybe(None) | Response::MaybeEncoded(None) => tagged_head("maybe", 0, out),
            Response::Maybe(Some(v)) => encode_value_message("maybe", v, out),
            Response::MaybeEncoded(Some(bytes)) => {
                tagged_head("maybe", 1, out);
                out.extend_from_slice(bytes);
            }
            Response::Key(k) => encode_fields("key", &[k], None, out),
            Response::TxnBegun { txn_id } => encode_ints("begun", &[*txn_id], out),
            Response::Committed { commit_ts, lsn: None } => {
                encode_ints("committed", &[*commit_ts], out)
            }
            Response::Committed { commit_ts, lsn: Some(lsn) } => {
                encode_ints("committed", &[*commit_ts, *lsn as i64], out)
            }
            Response::Aborted => tagged_head("aborted", 0, out),
            Response::Text(t) => encode_fields("text", &[t], None, out),
            Response::Stats(v) => encode_value_message("stats", v, out),
            Response::Change(v) => encode_value_message("change", v, out),
            Response::Err { kind, message } => encode_fields("err", &[kind, message], None, out),
        }
    }

    /// Decode a wire payload that may carry the pipelining id envelope.
    pub fn decode_with_id(payload: &[u8]) -> Result<(Option<u64>, Response)> {
        let (id, inner) = unwrap_envelope(payload_value(payload, "response")?)?;
        Ok((id, Response::from_value(inner)?))
    }

    fn from_value(mut v: Value) -> Result<Response> {
        let (tag, rest) = parts(&mut v)?;
        Ok(match tag {
            "ok" => Response::Ok,
            "pong" => Response::Pong,
            "hello" => Response::Hello {
                version: int_field(rest, 0, tag)?,
                server: str_field(rest, 1, tag)?,
            },
            "rows" => match take_field(rest, 0, tag)? {
                Value::Array(rows) => Response::Rows(rows),
                _ => return Err(Error::Protocol("'rows' payload must be an array".into())),
            },
            "maybe" => Response::Maybe(rest.first_mut().map(|v| std::mem::replace(v, Value::Null))),
            "key" => Response::Key(str_field(rest, 0, tag)?),
            "begun" => Response::TxnBegun { txn_id: int_field(rest, 0, tag)? },
            "committed" => Response::Committed {
                commit_ts: int_field(rest, 0, tag)?,
                lsn: opt_ms_field(rest, 1, tag)?,
            },
            "aborted" => Response::Aborted,
            "text" => Response::Text(str_field(rest, 0, tag)?),
            "stats" => Response::Stats(take_field(rest, 0, tag)?),
            "change" => Response::Change(take_field(rest, 0, tag)?),
            "err" => Response::Err {
                kind: str_field(rest, 0, tag)?,
                message: str_field(rest, 1, tag)?,
            },
            other => return Err(Error::Protocol(format!("unknown response tag '{other}'"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::codec::value_to_bytes;

    /// What `encode_with_id(Some(7))` puts before a message: the head of
    /// `["#id", 7, <message>]`.
    const ID_7: &str = "07030503236964030e";

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Every message shape beside its payload in hex. The frames are the
    // bytes the messages had when each was built as a `Value` tree and
    // encoded whole; the in-place encoders must reproduce them, so the
    // wire format cannot drift.
    fn request_frames() -> Vec<(Request, String)> {
        vec![
            (Request::Hello { version: PROTOCOL_VERSION }, "0702050568656c6c6f0302".into()),
            (Request::Ping, "0701050470696e67".into()),
            (
                Request::Query { text: "FOR c IN customers RETURN c".into(), deadline_ms: None },
                "070205057175657279051b464f52206320494e20637573746f6d6572732052455455524e2063"
                    .into(),
            ),
            (
                Request::Query {
                    text: "FOR c IN customers RETURN c".into(),
                    deadline_ms: Some(100),
                },
                concat!(
                    "070305057175657279051b464f52206320494e20637573746f6d6572732052455455524e2063",
                    "03c801",
                )
                .into(),
            ),
            (
                Request::Sql { text: "SELECT * FROM customers".into(), deadline_ms: None },
                "0702050373716c051753454c454354202a2046524f4d20637573746f6d657273".into(),
            ),
            (
                Request::Sql { text: "SELECT * FROM customers".into(), deadline_ms: Some(5000) },
                "0703050373716c051753454c454354202a2046524f4d20637573746f6d65727303904e".into(),
            ),
            (
                Request::Explain {
                    text: "FOR c IN customers RETURN c".into(),
                    deadline_ms: None,
                    analyze: false,
                },
                concat!(
                    "070205076578706c61696e051b464f52206320494e20637573746f6d6572732052455455524e",
                    "2063",
                )
                .into(),
            ),
            (
                Request::Explain {
                    text: "FOR c IN customers RETURN c".into(),
                    deadline_ms: Some(1),
                    analyze: false,
                },
                concat!(
                    "070305076578706c61696e051b464f52206320494e20637573746f6d6572732052455455524e",
                    "20630302",
                )
                .into(),
            ),
            (
                Request::Explain {
                    text: "FOR c IN customers RETURN c".into(),
                    deadline_ms: None,
                    analyze: true,
                },
                concat!(
                    "070405076578706c61696e051b464f52206320494e20637573746f6d6572732052455455524e",
                    "20630002",
                )
                .into(),
            ),
            (
                Request::Explain {
                    text: "FOR c IN customers RETURN c".into(),
                    deadline_ms: Some(250),
                    analyze: true,
                },
                concat!(
                    "070405076578706c61696e051b464f52206320494e20637573746f6d6572732052455455524e",
                    "206303f40302",
                )
                .into(),
            ),
            (Request::Begin { serializable: true }, "07020505626567696e02".into()),
            (Request::Commit, "07010506636f6d6d6974".into()),
            (Request::Abort, "0701050561626f7274".into()),
            (
                Request::Op(SessionOp::InsertDocument {
                    collection: "orders".into(),
                    doc: Value::object([("_key", Value::str("o1")), ("total", Value::int(5))]),
                }),
                concat!(
                    "070205026f700703050a696e736572745f646f6305066f72646572730802045f6b657905026f",
                    "3105746f74616c030a",
                )
                .into(),
            ),
            (
                Request::Op(SessionOp::KvGet { bucket: "cart".into(), key: "1".into() }),
                "070205026f70070305066b765f676574050463617274050131".into(),
            ),
            (
                Request::Op(SessionOp::AddEdge {
                    graph: "social".into(),
                    collection: "knows".into(),
                    from: "persons/1".into(),
                    to: "persons/2".into(),
                    properties: Value::object([("since", Value::int(2020))]),
                }),
                concat!(
                    "070205026f70070605086164645f656467650506736f6369616c05056b6e6f77730509706572",
                    "736f6e732f310509706572736f6e732f3208010573696e636503c81f",
                )
                .into(),
            ),
            (
                Request::Ddl(DdlOp::CreateCollection { name: "orders".into() }),
                "0702050364646c070205116372656174655f636f6c6c656374696f6e05066f7264657273".into(),
            ),
            (
                Request::Ddl(DdlOp::CreateFulltextIndex {
                    name: "fb".into(),
                    collection: "feedback".into(),
                    field: "text".into(),
                }),
                concat!(
                    "0702050364646c0704050c6372656174655f6674696478050266620508666565646261636b05",
                    "0474657874",
                )
                .into(),
            ),
            (Request::Admin { command: "STATS".into() }, "0702050561646d696e05055354415453".into()),
            (
                Request::ReplicaHello { log_id: 1, tail: 0 },
                "0703050d7265706c6963615f68656c6c6f03020300".into(),
            ),
            (
                Request::ReplicaHello { log_id: (1 << 63) - 1, tail: 123_456 },
                "0703050d7265706c6963615f68656c6c6f03feffffffffffffffff010380890f".into(),
            ),
            (Request::Subscribe { from_lsn: 0 }, "070205097375627363726962650300".into()),
            (Request::Subscribe { from_lsn: 987 }, "0702050973756273637269626503b60f".into()),
            (
                Request::Op(SessionOp::UpdateDocument {
                    collection: "orders".into(),
                    key: "o1".into(),
                    doc: Value::object([("total", Value::float(-0.0))]),
                }),
                concat!(
                    "070205026f700704050a7570646174655f646f6305066f726465727305026f31080105746f74",
                    "616c048000000000000000",
                )
                .into(),
            ),
            (
                Request::Op(SessionOp::RemoveDocument {
                    collection: "orders".into(),
                    key: "o1".into(),
                }),
                "070205026f700703050a72656d6f76655f646f6305066f726465727305026f31".into(),
            ),
            (
                Request::Op(SessionOp::GetDocument {
                    collection: "orders".into(),
                    key: "0c6df508-4b1a-4e6e-9a2f".into(),
                }),
                concat!(
                    "070205026f70070305076765745f646f6305066f7264657273051730633664663530382d3462",
                    "31612d346536652d39613266",
                )
                .into(),
            ),
            (
                Request::Op(SessionOp::KvPut {
                    bucket: "cart".into(),
                    key: "1".into(),
                    value: Value::Bytes(vec![0, 255, 7]),
                }),
                "070205026f70070405066b765f707574050463617274050131060300ff07".into(),
            ),
            (
                Request::Op(SessionOp::KvDelete { bucket: "cart".into(), key: "1".into() }),
                "070205026f70070305066b765f64656c050463617274050131".into(),
            ),
            (
                Request::Op(SessionOp::InsertRow {
                    table: "customers".into(),
                    row: Value::object([("id", Value::int(1)), ("name", Value::str("Mary"))]),
                }),
                concat!(
                    "070205026f700703050a696e736572745f726f770509637573746f6d65727308020269640302",
                    "046e616d6505044d617279",
                )
                .into(),
            ),
            (
                Request::Op(SessionOp::UpdateRow {
                    table: "customers".into(),
                    row: Value::object([
                        ("id", Value::int(1)),
                        ("credit_limit", Value::float(5000.5)),
                    ]),
                }),
                concat!(
                    "070205026f700703050a7570646174655f726f770509637573746f6d65727308020269640302",
                    "0c6372656469745f6c696d69740440b3888000000000",
                )
                .into(),
            ),
            (
                Request::Op(SessionOp::DeleteRow { table: "customers".into(), pk: Value::int(-3) }),
                "070205026f700703050a64656c6574655f726f770509637573746f6d6572730305".into(),
            ),
            (
                Request::Op(SessionOp::GetRow { table: "customers".into(), pk: Value::int(1) }),
                "070205026f70070305076765745f726f770509637573746f6d6572730302".into(),
            ),
            (
                Request::Op(SessionOp::AddVertex {
                    graph: "social".into(),
                    collection: "persons".into(),
                    doc: Value::object([("_key", Value::str("3"))]),
                }),
                concat!(
                    "070205026f700704050a6164645f7665727465780506736f6369616c0507706572736f6e7308",
                    "01045f6b6579050133",
                )
                .into(),
            ),
            (
                Request::Op(SessionOp::RdfInsert {
                    subject: "s".into(),
                    predicate: "p".into(),
                    object: Value::array([Value::Null, Value::Bool(false)]),
                }),
                "070205026f700704050a7264665f696e7365727405017305017007020001".into(),
            ),
            (
                Request::Op(SessionOp::RdfRemove {
                    subject: "s".into(),
                    predicate: "p".into(),
                    object: Value::str("o"),
                }),
                "070205026f700704050a7264665f72656d6f766505017305017005016f".into(),
            ),
            (
                Request::Ddl(DdlOp::CreateBucket { name: "cart".into() }),
                "0702050364646c0702050d6372656174655f6275636b6574050463617274".into(),
            ),
            (
                Request::Ddl(DdlOp::CreateGraph { name: "social".into() }),
                "0702050364646c0702050c6372656174655f67726170680506736f6369616c".into(),
            ),
            (
                Request::Ddl(DdlOp::CreateVertexCollection {
                    graph: "social".into(),
                    name: "persons".into(),
                }),
                concat!(
                    "0702050364646c0703050c6372656174655f76636f6c6c0506736f6369616c0507706572736f",
                    "6e73",
                )
                .into(),
            ),
            (
                Request::Ddl(DdlOp::CreateEdgeCollection {
                    graph: "social".into(),
                    name: "knows".into(),
                }),
                "0702050364646c0703050c6372656174655f65636f6c6c0506736f6369616c05056b6e6f7773"
                    .into(),
            ),
            (
                Request::Ddl(DdlOp::CreateTable {
                    name: "customers".into(),
                    schema: Value::object([("columns", Value::array([Value::str("id")]))]),
                }),
                concat!(
                    "0702050364646c0703050c6372656174655f7461626c650509637573746f6d65727308010763",
                    "6f6c756d6e73070105026964",
                )
                .into(),
            ),
            (
                Request::Query { text: "x".repeat(300), deadline_ms: Some(u64::MAX >> 1) },
                format!("07030505717565727905ac02{}03feffffffffffffffff01", "78".repeat(300)),
            ),
        ]
    }

    fn response_frames() -> Vec<(Response, String)> {
        vec![
            (Response::Ok, "070105026f6b".into()),
            (Response::Pong, "07010504706f6e67".into()),
            (
                Response::Hello { version: PROTOCOL_VERSION, server: "mmdb".into() },
                "0703050568656c6c6f030205046d6d6462".into(),
            ),
            (
                Response::Rows(vec![Value::int(1), Value::str("x")]),
                "07020504726f777307020302050178".into(),
            ),
            (Response::Rows(vec![]), "07020504726f77730700".into()),
            (Response::Maybe(None), "070105056d61796265".into()),
            (Response::Maybe(Some(Value::Null)), "070205056d6179626500".into()),
            (
                Response::Maybe(Some(Value::object([("a", Value::int(1))]))),
                "070205056d61796265080101610302".into(),
            ),
            (Response::Key("o1".into()), "070205036b657905026f31".into()),
            (Response::TxnBegun { txn_id: 42 }, "07020505626567756e0354".into()),
            (
                Response::Committed { commit_ts: 7, lsn: None },
                "07020509636f6d6d6974746564030e".into(),
            ),
            (
                Response::Committed { commit_ts: 7, lsn: Some(9001) },
                "07030509636f6d6d6974746564030e03d28c01".into(),
            ),
            (Response::Aborted, "0701050761626f72746564".into()),
            (Response::Text("plan".into()), "07020504746578740504706c616e".into()),
            (
                Response::Stats(Value::object([("requests", Value::int(9))])),
                "07020505737461747308010872657175657374730312".into(),
            ),
            (
                Response::Change(Value::object([
                    ("type", Value::str("log")),
                    ("lsn", Value::int(64)),
                ])),
                "070205066368616e67650802047479706505036c6f67036c736e038001".into(),
            ),
            (
                Response::Err { kind: "not_found".into(), message: "no such thing".into() },
                "0703050365727205096e6f745f666f756e64050d6e6f2073756368207468696e67".into(),
            ),
            (
                Response::Rows(vec![
                    Value::object([("a", Value::array([Value::float(1.0), Value::int(1)]))]),
                    Value::Null,
                ]),
                "07020504726f77730702080101610702043ff0000000000000030200".into(),
            ),
            (
                Response::Maybe(Some(Value::str("0c6df508-4b1a-4e6e-9a2f-77"))),
                "070205056d61796265051a30633664663530382d346231612d346536652d396132662d3737".into(),
            ),
            (
                Response::Text("y".repeat(200)),
                format!("070205047465787405c801{}", "79".repeat(200)),
            ),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (req, frame) in request_frames() {
            let bytes = req.encode();
            assert_eq!(hex(&bytes), frame, "{req:?}");
            assert_eq!(req.encode_with_id(None), bytes, "{req:?}");
            let tagged = req.encode_with_id(Some(7));
            assert_eq!(hex(&tagged), format!("{ID_7}{frame}"), "{req:?}");
            assert_eq!(Request::decode_with_id(&tagged).unwrap(), (Some(7), req.clone()));
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for (resp, frame) in response_frames() {
            let bytes = resp.encode();
            assert_eq!(hex(&bytes), frame, "{resp:?}");
            assert_eq!(resp.encode_with_id(None), bytes, "{resp:?}");
            let tagged = resp.encode_with_id(Some(7));
            assert_eq!(hex(&tagged), format!("{ID_7}{frame}"), "{resp:?}");
            assert_eq!(Response::decode_with_id(&tagged).unwrap(), (Some(7), resp.clone()));
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn an_encoded_maybe_is_the_frame_of_maybe_and_decodes_as_one() {
        for (value, frame) in [
            (None, "070105056d61796265"),
            (Some(Value::Null), "070205056d6179626500"),
            (Some(Value::object([("a", Value::int(1))])), "070205056d61796265080101610302"),
        ] {
            let encoded = Response::MaybeEncoded(value.as_ref().map(|v| value_to_bytes(v).into()));
            assert_eq!(hex(&encoded.encode()), frame, "{value:?}");
            let tagged = encoded.encode_with_id(Some(7));
            assert_eq!(hex(&tagged), format!("{ID_7}{frame}"), "{value:?}");
            assert_eq!(
                Response::decode_with_id(&tagged).unwrap(),
                (Some(7), Response::Maybe(value))
            );
        }
    }

    #[test]
    fn some_null_is_distinct_from_none() {
        let some_null = Response::Maybe(Some(Value::Null)).encode();
        let none = Response::Maybe(None).encode();
        assert_ne!(some_null, none);
        assert_eq!(Response::decode(&some_null).unwrap(), Response::Maybe(Some(Value::Null)));
        assert_eq!(Response::decode(&none).unwrap(), Response::Maybe(None));
    }

    #[test]
    fn errors_map_through_the_wire_faithfully() {
        for e in [
            Error::Parse("x".into()),
            Error::NotFound("x".into()),
            Error::TxnConflict("x".into()),
            Error::Busy("x".into()),
            Error::DeadlineExceeded("x".into()),
            Error::ReadOnly("x".into()),
            Error::Corruption("x".into()),
            Error::LogTruncated("x".into()),
            Error::Protocol("x".into()),
            Error::Internal("x".into()),
        ] {
            let Response::Err { kind, message } = Response::from_error(&e) else {
                panic!("from_error must produce Err");
            };
            let back = Response::into_error(&kind, message);
            assert_eq!(back.kind(), e.kind());
            assert_eq!(back.is_retryable(), e.is_retryable());
        }
    }

    #[test]
    fn garbage_and_unknown_tags_are_protocol_errors() {
        assert_eq!(Request::decode(b"\xff\xfe\xfd").unwrap_err().kind(), "protocol");
        let unknown = value_to_bytes(&Value::Array(vec![Value::str("explode")]));
        assert_eq!(Request::decode(&unknown).unwrap_err().kind(), "protocol");
        assert_eq!(Response::decode(&unknown).unwrap_err().kind(), "protocol");
        let not_array = value_to_bytes(&Value::int(3));
        assert!(Request::decode(&not_array).is_err());
    }

    #[test]
    fn deadline_is_an_optional_trailing_field() {
        // A bare ["query", text] (what pre-deadline clients send) still
        // decodes, to a request with no deadline.
        let legacy = value_to_bytes(&Value::Array(vec![
            Value::str("query"),
            Value::str("RETURN 1"),
        ]));
        assert_eq!(
            Request::decode(&legacy).unwrap(),
            Request::Query { text: "RETURN 1".into(), deadline_ms: None }
        );
        // A negative or non-integer deadline is a protocol violation.
        let negative = value_to_bytes(&Value::Array(vec![
            Value::str("query"),
            Value::str("RETURN 1"),
            Value::int(-5),
        ]));
        assert_eq!(Request::decode(&negative).unwrap_err().kind(), "protocol");
        let bogus = value_to_bytes(&Value::Array(vec![
            Value::str("sql"),
            Value::str("SELECT 1"),
            Value::str("soon"),
        ]));
        assert_eq!(Request::decode(&bogus).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn commit_lsn_is_an_optional_trailing_field() {
        // A bare ["committed", ts] (what pre-replication servers send)
        // still decodes, to a commit with no read-your-writes token.
        let legacy =
            value_to_bytes(&Value::Array(vec![Value::str("committed"), Value::int(5)]));
        assert_eq!(
            Response::decode(&legacy).unwrap(),
            Response::Committed { commit_ts: 5, lsn: None }
        );
        // A negative LSN is a protocol violation.
        let negative = value_to_bytes(&Value::Array(vec![
            Value::str("committed"),
            Value::int(5),
            Value::int(-1),
        ]));
        assert_eq!(Response::decode(&negative).unwrap_err().kind(), "protocol");
        // So is a negative replica_hello/subscribe position.
        for tag in ["replica_hello", "subscribe"] {
            let bad = value_to_bytes(&Value::Array(vec![Value::str(tag), Value::int(-7)]));
            assert_eq!(Request::decode(&bad).unwrap_err().kind(), "protocol", "{tag}");
        }
        // A hello names its log and its tail: the one-position form, with
        // no log id, is refused.
        let no_id = value_to_bytes(&Value::Array(vec![Value::str("replica_hello"), Value::int(7)]));
        assert_eq!(Request::decode(&no_id).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn request_ids_ride_in_an_optional_envelope() {
        // With an id, both directions round-trip through the envelope.
        let req = Request::Query { text: "RETURN 1".into(), deadline_ms: Some(50) };
        let bytes = req.encode_with_id(Some(7));
        assert_eq!(Request::decode_with_id(&bytes).unwrap(), (Some(7), req.clone()));
        let resp = Response::Rows(vec![Value::int(1)]);
        let bytes = resp.encode_with_id(Some(9000));
        assert_eq!(Response::decode_with_id(&bytes).unwrap(), (Some(9000), resp.clone()));

        // Without an id the bytes are exactly the legacy encoding — the
        // compatibility rule that keeps pre-pipelining peers working.
        assert_eq!(req.encode_with_id(None), req.encode());
        assert_eq!(resp.encode_with_id(None), resp.encode());
        assert_eq!(Request::decode_with_id(&req.encode()).unwrap(), (None, req));
        assert_eq!(Response::decode_with_id(&resp.encode()).unwrap(), (None, resp));

        // The plain decoders treat an envelope as an unknown tag, which
        // is what an old server does with a pipelined frame.
        let enveloped = Request::Ping.encode_with_id(Some(1));
        assert_eq!(Request::decode(&enveloped).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn malformed_id_envelopes_are_protocol_errors() {
        // Negative id.
        let bad = value_to_bytes(&Value::Array(vec![
            Value::str("#id"),
            Value::int(-1),
            Value::Array(vec![Value::str("ping")]),
        ]));
        assert_eq!(Request::decode_with_id(&bad).unwrap_err().kind(), "protocol");
        // Missing inner message.
        let bad = value_to_bytes(&Value::Array(vec![Value::str("#id"), Value::int(1)]));
        assert_eq!(Request::decode_with_id(&bad).unwrap_err().kind(), "protocol");
        // Nested envelopes don't recurse.
        let nested = value_to_bytes(&Value::Array(vec![
            Value::str("#id"),
            Value::int(1),
            Value::Array(vec![
                Value::str("#id"),
                Value::int(2),
                Value::Array(vec![Value::str("ping")]),
            ]),
        ]));
        assert_eq!(Request::decode_with_id(&nested).unwrap_err().kind(), "protocol");
    }

    #[test]
    fn analyze_is_an_optional_trailing_field() {
        // A bare ["explain", text] (what pre-analyze clients send) still
        // decodes: no deadline, analyze off.
        let legacy =
            value_to_bytes(&Value::Array(vec![Value::str("explain"), Value::str("RETURN 1")]));
        assert_eq!(
            Request::decode(&legacy).unwrap(),
            Request::Explain { text: "RETURN 1".into(), deadline_ms: None, analyze: false }
        );
        // Null in the deadline slot pads the frame so analyze can sit at
        // index 2 without implying a deadline.
        let padded = value_to_bytes(&Value::Array(vec![
            Value::str("explain"),
            Value::str("RETURN 1"),
            Value::Null,
            Value::Bool(true),
        ]));
        assert_eq!(
            Request::decode(&padded).unwrap(),
            Request::Explain { text: "RETURN 1".into(), deadline_ms: None, analyze: true }
        );
        // A non-bool flag is a protocol violation.
        let bogus = value_to_bytes(&Value::Array(vec![
            Value::str("explain"),
            Value::str("RETURN 1"),
            Value::Null,
            Value::str("yes"),
        ]));
        assert_eq!(Request::decode(&bogus).unwrap_err().kind(), "protocol");
    }
}
