//! Request and response messages.
//!
//! Messages are encoded as tagged [`Value`] arrays (`["query", "FOR c
//! ..."]`) and serialized with the engine's own binary value codec
//! (`mmdb_types::codec`). Reusing the storage codec means the wire
//! format gets the full `Value` domain — nested documents, bytes,
//! floats — for free, and one codec is fuzzed instead of two.

use mmdb_types::codec::{encode_array_header, encode_value, value_from_bytes, value_to_bytes};
use mmdb_types::{Error, Result, Value};

/// Version of the wire protocol. The server refuses a `Hello` carrying a
/// different major version.
pub const PROTOCOL_VERSION: i64 = 1;

/// Envelope tag for id-carrying frames (see [`Request::encode_with_id`]).
/// Ordinary message tags are lowercase words, so the `#` prefix can never
/// collide with one.
const ID_TAG: &str = "#id";

/// Wrap an encoded message value in the pipelining id envelope:
/// `["#id", <id>, <inner message>]`.
fn envelope(id: u64, inner: Value) -> Value {
    tagged(ID_TAG, vec![Value::int(id as i64), inner])
}

/// Split an incoming message value into its optional pipelining id and
/// the inner message. Id-less frames (everything a pre-pipelining peer
/// sends) pass through unchanged, which is what keeps the envelope
/// backward compatible: no id on the wire means no envelope bytes at all,
/// exactly like the `deadline_ms`/`analyze` trailing-field precedents.
fn unwrap_envelope(v: &Value) -> Result<(Option<u64>, &Value)> {
    let (tag, rest) = parts(v)?;
    if tag != ID_TAG {
        return Ok((None, v));
    }
    let id = int_field(rest, 0, tag)?;
    let id = u64::try_from(id)
        .map_err(|_| Error::Protocol("'#id' field 0 must be a non-negative id".into()))?;
    let inner = field(rest, 1, tag)?;
    // One level only: an envelope inside an envelope is a protocol error,
    // caught by the inner from_value seeing an unknown '#id' tag.
    Ok((Some(id), inner))
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

fn tagged(tag: &str, fields: Vec<Value>) -> Value {
    let mut items = vec![Value::str(tag)];
    items.extend(fields);
    Value::Array(items)
}

/// Encode the head of `tagged(tag, fields)` with `fields` items to come.
fn tagged_head(tag: &str, fields: usize, out: &mut Vec<u8>) {
    encode_array_header(fields + 1, out);
    encode_value(&Value::str(tag), out);
}

fn parts(v: &Value) -> Result<(&str, &[Value])> {
    let items = v.as_array()?;
    let Some((tag, rest)) = items.split_first() else {
        return Err(Error::Protocol("empty message".into()));
    };
    Ok((tag.as_str().map_err(|_| Error::Protocol("non-string message tag".into()))?, rest))
}

fn field<'a>(rest: &'a [Value], idx: usize, tag: &str) -> Result<&'a Value> {
    rest.get(idx)
        .ok_or_else(|| Error::Protocol(format!("'{tag}' message is missing field {idx}")))
}

fn str_field(rest: &[Value], idx: usize, tag: &str) -> Result<String> {
    Ok(field(rest, idx, tag)?
        .as_str()
        .map_err(|_| Error::Protocol(format!("'{tag}' field {idx} must be a string")))?
        .to_string())
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

/// Encode a query-style message: the text, plus the deadline only when set.
fn query_fields(text: &str, deadline_ms: Option<u64>) -> Vec<Value> {
    let mut fields = vec![Value::str(text)];
    if let Some(ms) = deadline_ms {
        fields.push(Value::int(ms as i64));
    }
    fields
}

impl Request {
    /// Encode to a wire payload (to be framed by the caller).
    pub fn encode(&self) -> Vec<u8> {
        value_to_bytes(&self.to_value())
    }

    /// Decode from a wire payload.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let v = value_from_bytes(payload)
            .map_err(|e| Error::Protocol(format!("undecodable request payload: {e}")))?;
        Request::from_value(&v)
    }

    /// Encode with an optional pipelining request id. `None` produces
    /// exactly the bytes of [`Request::encode`] — an id-less frame is
    /// byte-identical to what a pre-pipelining client sends, so old
    /// servers and old clients interoperate unchanged.
    pub fn encode_with_id(&self, id: Option<u64>) -> Vec<u8> {
        match id {
            None => self.encode(),
            Some(id) => value_to_bytes(&envelope(id, self.to_value())),
        }
    }

    /// Decode a wire payload that may carry the pipelining id envelope.
    /// Returns the id (when present) alongside the request.
    pub fn decode_with_id(payload: &[u8]) -> Result<(Option<u64>, Request)> {
        let v = value_from_bytes(payload)
            .map_err(|e| Error::Protocol(format!("undecodable request payload: {e}")))?;
        let (id, inner) = unwrap_envelope(&v)?;
        Ok((id, Request::from_value(inner)?))
    }

    fn to_value(&self) -> Value {
        match self {
            Request::Hello { version } => tagged("hello", vec![Value::int(*version)]),
            Request::Ping => tagged("ping", vec![]),
            Request::Query { text, deadline_ms } => {
                tagged("query", query_fields(text, *deadline_ms))
            }
            Request::Sql { text, deadline_ms } => tagged("sql", query_fields(text, *deadline_ms)),
            Request::Explain { text, deadline_ms, analyze } => {
                let mut fields = query_fields(text, *deadline_ms);
                if *analyze {
                    // Pad the deadline slot so the flag always sits at
                    // index 2; Null decodes as "no deadline".
                    if fields.len() < 2 {
                        fields.push(Value::Null);
                    }
                    fields.push(Value::Bool(true));
                }
                tagged("explain", fields)
            }
            Request::Begin { serializable } => {
                tagged("begin", vec![Value::Bool(*serializable)])
            }
            Request::Commit => tagged("commit", vec![]),
            Request::Abort => tagged("abort", vec![]),
            Request::Op(op) => tagged("op", vec![op.to_value()]),
            Request::Ddl(op) => tagged("ddl", vec![op.to_value()]),
            Request::Admin { command } => tagged("admin", vec![Value::str(command)]),
            Request::ReplicaHello { log_id, tail } => tagged(
                "replica_hello",
                vec![Value::int(*log_id as i64), Value::int(*tail as i64)],
            ),
            Request::Subscribe { from_lsn } => {
                tagged("subscribe", vec![Value::int(*from_lsn as i64)])
            }
        }
    }

    fn from_value(v: &Value) -> Result<Request> {
        let (tag, rest) = parts(v)?;
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
            "op" => Request::Op(SessionOp::from_value(field(rest, 0, tag)?)?),
            "ddl" => Request::Ddl(DdlOp::from_value(field(rest, 0, tag)?)?),
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
    fn to_value(&self) -> Value {
        match self {
            SessionOp::InsertDocument { collection, doc } => {
                tagged("insert_doc", vec![Value::str(collection), doc.clone()])
            }
            SessionOp::UpdateDocument { collection, key, doc } => {
                tagged("update_doc", vec![Value::str(collection), Value::str(key), doc.clone()])
            }
            SessionOp::RemoveDocument { collection, key } => {
                tagged("remove_doc", vec![Value::str(collection), Value::str(key)])
            }
            SessionOp::GetDocument { collection, key } => {
                tagged("get_doc", vec![Value::str(collection), Value::str(key)])
            }
            SessionOp::KvPut { bucket, key, value } => {
                tagged("kv_put", vec![Value::str(bucket), Value::str(key), value.clone()])
            }
            SessionOp::KvDelete { bucket, key } => {
                tagged("kv_del", vec![Value::str(bucket), Value::str(key)])
            }
            SessionOp::KvGet { bucket, key } => {
                tagged("kv_get", vec![Value::str(bucket), Value::str(key)])
            }
            SessionOp::InsertRow { table, row } => {
                tagged("insert_row", vec![Value::str(table), row.clone()])
            }
            SessionOp::UpdateRow { table, row } => {
                tagged("update_row", vec![Value::str(table), row.clone()])
            }
            SessionOp::DeleteRow { table, pk } => {
                tagged("delete_row", vec![Value::str(table), pk.clone()])
            }
            SessionOp::GetRow { table, pk } => {
                tagged("get_row", vec![Value::str(table), pk.clone()])
            }
            SessionOp::AddVertex { graph, collection, doc } => {
                tagged("add_vertex", vec![Value::str(graph), Value::str(collection), doc.clone()])
            }
            SessionOp::AddEdge { graph, collection, from, to, properties } => tagged(
                "add_edge",
                vec![
                    Value::str(graph),
                    Value::str(collection),
                    Value::str(from),
                    Value::str(to),
                    properties.clone(),
                ],
            ),
            SessionOp::RdfInsert { subject, predicate, object } => tagged(
                "rdf_insert",
                vec![Value::str(subject), Value::str(predicate), object.clone()],
            ),
            SessionOp::RdfRemove { subject, predicate, object } => tagged(
                "rdf_remove",
                vec![Value::str(subject), Value::str(predicate), object.clone()],
            ),
        }
    }

    fn from_value(v: &Value) -> Result<SessionOp> {
        let (tag, rest) = parts(v)?;
        Ok(match tag {
            "insert_doc" => SessionOp::InsertDocument {
                collection: str_field(rest, 0, tag)?,
                doc: field(rest, 1, tag)?.clone(),
            },
            "update_doc" => SessionOp::UpdateDocument {
                collection: str_field(rest, 0, tag)?,
                key: str_field(rest, 1, tag)?,
                doc: field(rest, 2, tag)?.clone(),
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
                value: field(rest, 2, tag)?.clone(),
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
                row: field(rest, 1, tag)?.clone(),
            },
            "update_row" => SessionOp::UpdateRow {
                table: str_field(rest, 0, tag)?,
                row: field(rest, 1, tag)?.clone(),
            },
            "delete_row" => SessionOp::DeleteRow {
                table: str_field(rest, 0, tag)?,
                pk: field(rest, 1, tag)?.clone(),
            },
            "get_row" => SessionOp::GetRow {
                table: str_field(rest, 0, tag)?,
                pk: field(rest, 1, tag)?.clone(),
            },
            "add_vertex" => SessionOp::AddVertex {
                graph: str_field(rest, 0, tag)?,
                collection: str_field(rest, 1, tag)?,
                doc: field(rest, 2, tag)?.clone(),
            },
            "add_edge" => SessionOp::AddEdge {
                graph: str_field(rest, 0, tag)?,
                collection: str_field(rest, 1, tag)?,
                from: str_field(rest, 2, tag)?,
                to: str_field(rest, 3, tag)?,
                properties: field(rest, 4, tag)?.clone(),
            },
            "rdf_insert" => SessionOp::RdfInsert {
                subject: str_field(rest, 0, tag)?,
                predicate: str_field(rest, 1, tag)?,
                object: field(rest, 2, tag)?.clone(),
            },
            "rdf_remove" => SessionOp::RdfRemove {
                subject: str_field(rest, 0, tag)?,
                predicate: str_field(rest, 1, tag)?,
                object: field(rest, 2, tag)?.clone(),
            },
            other => return Err(Error::Protocol(format!("unknown op tag '{other}'"))),
        })
    }
}

impl DdlOp {
    fn to_value(&self) -> Value {
        match self {
            DdlOp::CreateCollection { name } => tagged("create_collection", vec![Value::str(name)]),
            DdlOp::CreateBucket { name } => tagged("create_bucket", vec![Value::str(name)]),
            DdlOp::CreateGraph { name } => tagged("create_graph", vec![Value::str(name)]),
            DdlOp::CreateVertexCollection { graph, name } => {
                tagged("create_vcoll", vec![Value::str(graph), Value::str(name)])
            }
            DdlOp::CreateEdgeCollection { graph, name } => {
                tagged("create_ecoll", vec![Value::str(graph), Value::str(name)])
            }
            DdlOp::CreateTable { name, schema } => {
                tagged("create_table", vec![Value::str(name), schema.clone()])
            }
            DdlOp::CreateFulltextIndex { name, collection, field } => tagged(
                "create_ftidx",
                vec![Value::str(name), Value::str(collection), Value::str(field)],
            ),
        }
    }

    fn from_value(v: &Value) -> Result<DdlOp> {
        let (tag, rest) = parts(v)?;
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
                schema: field(rest, 1, tag)?.clone(),
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
        let v = value_from_bytes(payload)
            .map_err(|e| Error::Protocol(format!("undecodable response payload: {e}")))?;
        Response::from_value(&v)
    }

    /// Encode with the request id this response answers. `None` produces
    /// exactly the bytes of [`Response::encode`] (the reply shape for
    /// id-less requests).
    pub fn encode_with_id(&self, id: Option<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(id) = id {
            // The head of `envelope(id, …)`; the message is its last item.
            tagged_head(ID_TAG, 2, &mut out);
            encode_value(&Value::int(id as i64), &mut out);
        }
        self.encode_into(&mut out);
        out
    }

    /// Append the bytes of `value_to_bytes(&self.to_value())` to `out`,
    /// encoding rows and payload values where they lie instead of cloning
    /// them into a message tree first.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let (tag, payload) = match self {
            Response::Rows(rows) => {
                tagged_head("rows", 1, out);
                encode_array_header(rows.len(), out);
                rows.iter().for_each(|row| encode_value(row, out));
                return;
            }
            Response::Maybe(Some(v)) => ("maybe", v),
            Response::Stats(v) => ("stats", v),
            Response::Change(v) => ("change", v),
            // Small messages: their tree holds no borrowed value to copy.
            _ => return encode_value(&self.to_value(), out),
        };
        tagged_head(tag, 1, out);
        encode_value(payload, out);
    }

    /// Decode a wire payload that may carry the pipelining id envelope.
    pub fn decode_with_id(payload: &[u8]) -> Result<(Option<u64>, Response)> {
        let v = value_from_bytes(payload)
            .map_err(|e| Error::Protocol(format!("undecodable response payload: {e}")))?;
        let (id, inner) = unwrap_envelope(&v)?;
        Ok((id, Response::from_value(inner)?))
    }

    fn to_value(&self) -> Value {
        match self {
            Response::Ok => tagged("ok", vec![]),
            Response::Pong => tagged("pong", vec![]),
            Response::Hello { version, server } => {
                tagged("hello", vec![Value::int(*version), Value::str(server)])
            }
            Response::Rows(rows) => tagged("rows", vec![Value::Array(rows.clone())]),
            Response::Maybe(opt) => match opt {
                // Distinct arities disambiguate `Some(Null)` from `None`.
                Some(v) => tagged("maybe", vec![v.clone()]),
                None => tagged("maybe", vec![]),
            },
            Response::Key(k) => tagged("key", vec![Value::str(k)]),
            Response::TxnBegun { txn_id } => tagged("begun", vec![Value::int(*txn_id)]),
            Response::Committed { commit_ts, lsn } => {
                let mut fields = vec![Value::int(*commit_ts)];
                if let Some(lsn) = lsn {
                    fields.push(Value::int(*lsn as i64));
                }
                tagged("committed", fields)
            }
            Response::Aborted => tagged("aborted", vec![]),
            Response::Text(t) => tagged("text", vec![Value::str(t)]),
            Response::Stats(v) => tagged("stats", vec![v.clone()]),
            Response::Change(v) => tagged("change", vec![v.clone()]),
            Response::Err { kind, message } => {
                tagged("err", vec![Value::str(kind), Value::str(message)])
            }
        }
    }

    fn from_value(v: &Value) -> Result<Response> {
        let (tag, rest) = parts(v)?;
        Ok(match tag {
            "ok" => Response::Ok,
            "pong" => Response::Pong,
            "hello" => Response::Hello {
                version: int_field(rest, 0, tag)?,
                server: str_field(rest, 1, tag)?,
            },
            "rows" => Response::Rows(
                field(rest, 0, tag)?
                    .as_array()
                    .map_err(|_| Error::Protocol("'rows' payload must be an array".into()))?
                    .to_vec(),
            ),
            "maybe" => Response::Maybe(rest.first().cloned()),
            "key" => Response::Key(str_field(rest, 0, tag)?),
            "begun" => Response::TxnBegun { txn_id: int_field(rest, 0, tag)? },
            "committed" => Response::Committed {
                commit_ts: int_field(rest, 0, tag)?,
                lsn: opt_ms_field(rest, 1, tag)?,
            },
            "aborted" => Response::Aborted,
            "text" => Response::Text(str_field(rest, 0, tag)?),
            "stats" => Response::Stats(field(rest, 0, tag)?.clone()),
            "change" => Response::Change(field(rest, 0, tag)?.clone()),
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

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Hello { version: PROTOCOL_VERSION },
            Request::Ping,
            Request::Query { text: "FOR c IN customers RETURN c".into(), deadline_ms: None },
            Request::Query { text: "FOR c IN customers RETURN c".into(), deadline_ms: Some(100) },
            Request::Sql { text: "SELECT * FROM customers".into(), deadline_ms: None },
            Request::Sql { text: "SELECT * FROM customers".into(), deadline_ms: Some(5000) },
            Request::Explain {
                text: "FOR c IN customers RETURN c".into(),
                deadline_ms: None,
                analyze: false,
            },
            Request::Explain {
                text: "FOR c IN customers RETURN c".into(),
                deadline_ms: Some(1),
                analyze: false,
            },
            Request::Explain {
                text: "FOR c IN customers RETURN c".into(),
                deadline_ms: None,
                analyze: true,
            },
            Request::Explain {
                text: "FOR c IN customers RETURN c".into(),
                deadline_ms: Some(250),
                analyze: true,
            },
            Request::Begin { serializable: true },
            Request::Commit,
            Request::Abort,
            Request::Op(SessionOp::InsertDocument {
                collection: "orders".into(),
                doc: Value::object([("_key", Value::str("o1")), ("total", Value::int(5))]),
            }),
            Request::Op(SessionOp::KvGet { bucket: "cart".into(), key: "1".into() }),
            Request::Op(SessionOp::AddEdge {
                graph: "social".into(),
                collection: "knows".into(),
                from: "persons/1".into(),
                to: "persons/2".into(),
                properties: Value::object([("since", Value::int(2020))]),
            }),
            Request::Ddl(DdlOp::CreateCollection { name: "orders".into() }),
            Request::Ddl(DdlOp::CreateFulltextIndex {
                name: "fb".into(),
                collection: "feedback".into(),
                field: "text".into(),
            }),
            Request::Admin { command: "STATS".into() },
            Request::ReplicaHello { log_id: 1, tail: 0 },
            Request::ReplicaHello { log_id: (1 << 63) - 1, tail: 123_456 },
            Request::Subscribe { from_lsn: 0 },
            Request::Subscribe { from_lsn: 987 },
        ];
        for req in cases {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Ok,
            Response::Pong,
            Response::Hello { version: PROTOCOL_VERSION, server: "mmdb".into() },
            Response::Rows(vec![Value::int(1), Value::str("x")]),
            Response::Rows(vec![]),
            Response::Maybe(None),
            Response::Maybe(Some(Value::Null)),
            Response::Maybe(Some(Value::object([("a", Value::int(1))]))),
            Response::Key("o1".into()),
            Response::TxnBegun { txn_id: 42 },
            Response::Committed { commit_ts: 7, lsn: None },
            Response::Committed { commit_ts: 7, lsn: Some(9001) },
            Response::Aborted,
            Response::Text("plan".into()),
            Response::Stats(Value::object([("requests", Value::int(9))])),
            Response::Change(Value::object([
                ("type", Value::str("log")),
                ("lsn", Value::int(64)),
            ])),
            Response::Err { kind: "not_found".into(), message: "no such thing".into() },
        ];
        for resp in cases {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
            // Encoded in place, the frames are the message tree's bytes.
            assert_eq!(bytes, value_to_bytes(&resp.to_value()), "{resp:?}");
            assert_eq!(resp.encode_with_id(None), bytes, "{resp:?}");
            for id in [0, 7, u64::MAX >> 1] {
                let tree = value_to_bytes(&envelope(id, resp.to_value()));
                assert_eq!(resp.encode_with_id(Some(id)), tree, "{resp:?} with id {id}");
            }
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
