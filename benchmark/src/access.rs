//! The two ways a caller reaches the engine — embedded calls and the wire
//! — behind one set of operations, so every section of every workload is
//! driven by the same code whichever transport the workload uses. Spans
//! are recorded here, around each call into a layer.

use std::sync::Arc;

use mmdb_client::Client;
use mmdb_core::Database;
use mmdb_protocol::{Request, Response, SessionOp};
use mmdb_query::{exec, optimize, parse_query, plan};
use mmdb_txn::IsolationLevel;
use mmdb_types::{CancelToken, Error, Result, Value};

use crate::data::{self, TxnOp};
use crate::spec;
use crate::trace::ThreadTrace;

/// The key of one point read.
#[derive(Clone, Copy)]
pub enum ReadKey<'a> {
    /// `KvGet` of a customer's cart.
    Cart(i64),
    /// `GetDocument` of an order.
    Order(&'a str),
    /// `GetRow` of a customer.
    Customer(i64),
}

impl ReadKey<'_> {
    /// Index of the key's kind in per-kind arrays: `KvGet`, `GetDocument`,
    /// `GetRow`.
    pub fn slot(self) -> usize {
        match self {
            ReadKey::Cart(_) => 0,
            ReadKey::Order(_) => 1,
            ReadKey::Customer(_) => 2,
        }
    }
}

/// Where a span hangs: its parent span and the operation it belongs to.
#[derive(Clone, Copy)]
pub struct At {
    pub parent: u32,
    pub op_id: u64,
}

pub trait Access {
    /// Run an MMQL query. A traced embedded call runs the query's stages
    /// one by one under the span names in `stages`.
    fn query(
        &mut self,
        text: &str,
        stages: &Stages,
        tr: &mut ThreadTrace,
        at: At,
    ) -> Result<Vec<Value>>;
    fn read(&mut self, key: ReadKey, tr: &mut ThreadTrace, at: At) -> Result<Option<Value>>;
    /// One attempt at the new-order transaction: insert the order
    /// document, repoint the cart, add the `bought` edge, read and charge
    /// the customer row, commit.
    fn new_order(&mut self, op: TxnOp, tr: &mut ThreadTrace, at: At) -> Result<()>;
    /// Checkpoint now; returns `(snapshot_bytes, wal_bytes_reclaimed)`.
    fn checkpoint(&mut self) -> Result<(u64, u64)>;
}

fn charged(mut row: Value) -> Result<Value> {
    let credit = row.get_field("credit_limit").as_int()?;
    row.as_object_mut()?
        .insert("credit_limit", Value::int(credit - spec::ORDER_TOTAL));
    Ok(row)
}

fn missing(customer: i64) -> Error {
    Error::NotFound(format!("customer {customer}"))
}

// ---- embedded -------------------------------------------------------------------

pub struct Embedded {
    pub db: Arc<Database>,
}

/// `Database::query` taken apart at its public seams, one span per stage.
pub fn query_decomposed(
    db: &Database,
    text: &str,
    tr: &mut ThreadTrace,
    at: At,
    q: &Stages,
) -> Result<Vec<Value>> {
    let _scope = mmdb_query::cancel::scope(&CancelToken::none());
    let h = tr.begin(q.parse, at.parent, at.op_id);
    let query = parse_query(text)?;
    tr.end(h);
    let h = tr.begin(q.plan, at.parent, at.op_id);
    let plan = optimize::optimize(plan::build_plan(&query)?, db.world());
    tr.end(h);
    let h = tr.begin(q.exec, at.parent, at.op_id);
    let rows = exec::execute_plan(db.world(), &plan);
    tr.end(h);
    rows
}

/// Span names of one query kind's stages.
pub struct Stages {
    pub root: &'static str,
    pub parse: &'static str,
    pub plan: &'static str,
    pub exec: &'static str,
}

/// `mixed_wire`'s check query.
pub const CHECK_STAGES: Stages = Stages {
    root: "query.check.exec",
    parse: "query.check.parse",
    plan: "query.check.plan",
    exec: "query.check.run",
};

/// Indexed like [`spec::QUERY_NAMES`].
pub const STAGES: [Stages; 5] = [
    Stages {
        root: "q4_naive",
        parse: "query.q4_naive.parse",
        plan: "query.q4_naive.plan",
        exec: "query.q4_naive.exec",
    },
    Stages {
        root: "q4_grouped",
        parse: "query.q4_grouped.parse",
        plan: "query.q4_grouped.plan",
        exec: "query.q4_grouped.exec",
    },
    Stages {
        root: "q2",
        parse: "query.q2.parse",
        plan: "query.q2.plan",
        exec: "query.q2.exec",
    },
    Stages {
        root: "q5",
        parse: "query.q5.parse",
        plan: "query.q5.plan",
        exec: "query.q5.exec",
    },
    Stages {
        root: "q3",
        parse: "query.q3.parse",
        plan: "query.q3.plan",
        exec: "query.q3.exec",
    },
];

impl Embedded {
    /// The engine's point read, as an embedded caller performs it.
    pub fn point_read(db: &Database, key: ReadKey) -> Result<Option<Value>> {
        match key {
            ReadKey::Cart(c) => db.kv().get("cart", &c.to_string()),
            ReadKey::Order(k) => db.get_document("orders", k),
            ReadKey::Customer(c) => {
                let t = db.world().catalog.table("customers")?;
                Ok(t.get(&Value::int(c))?
                    .map(|row| t.schema().object_from_row(&row)))
            }
        }
    }
}

impl Access for Embedded {
    fn query(
        &mut self,
        text: &str,
        stages: &Stages,
        tr: &mut ThreadTrace,
        at: At,
    ) -> Result<Vec<Value>> {
        if tr.enabled() {
            query_decomposed(&self.db, text, tr, at, stages)
        } else {
            self.db.query(text)
        }
    }

    fn read(&mut self, key: ReadKey, _tr: &mut ThreadTrace, _at: At) -> Result<Option<Value>> {
        Embedded::point_read(&self.db, key)
    }

    fn new_order(&mut self, op: TxnOp, tr: &mut ThreadTrace, at: At) -> Result<()> {
        let key = data::order_key(op.customer, op.k);
        let who = data::person(op.customer);
        let h = tr.begin("txn.begin", at.parent, at.op_id);
        let mut s = self.db.begin(IsolationLevel::Snapshot);
        tr.end(h);
        let stage = tr.begin("txn.stage", at.parent, at.op_id);
        let h = tr.begin("document.insert", stage, at.op_id);
        s.insert_document("orders", data::order_doc(&key, op.customer))?;
        tr.end(h);
        let h = tr.begin("kv.put", stage, at.op_id);
        s.kv_put("cart", &op.customer.to_string(), Value::str(&key))?;
        tr.end(h);
        let h = tr.begin("graph.add_edge", stage, at.op_id);
        s.add_edge("social", "bought", &who, &who, data::edge_props(&key))?;
        tr.end(h);
        let h = tr.begin("relational.get_row", stage, at.op_id);
        let row = s
            .get_row("customers", &Value::int(op.customer))?
            .ok_or_else(|| missing(op.customer))?;
        tr.end(h);
        let h = tr.begin("relational.update_row", stage, at.op_id);
        s.update_row("customers", charged(row)?)?;
        tr.end(h);
        tr.end(stage);
        let h = tr.begin("txn.commit", at.parent, at.op_id);
        s.commit()?;
        tr.end(h);
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<(u64, u64)> {
        let s = self.db.checkpoint()?;
        Ok((s.snapshot_bytes, s.wal_bytes_reclaimed))
    }
}

// ---- wire -----------------------------------------------------------------------

pub struct Wire {
    pub client: Client,
    /// Span names of `submit`, `flush` and `receive` on this connection.
    pub spans: [&'static str; 3],
}

/// The span names the `client.*` per-layer metrics are read from.
pub const CLIENT_SPANS: [&str; 3] = ["client.submit", "client.flush", "client.receive_wait"];
/// `read_wire_p` times its depth-1 reads under names of their own, so the
/// `client.*` metrics describe the pipelined phase alone.
pub const DEPTH1_SPANS: [&str; 3] = ["depth1.submit", "depth1.flush", "depth1.receive_wait"];

fn unexpected(resp: Response) -> Error {
    Error::Protocol(format!("unexpected response {resp:?}"))
}

pub fn read_request(key: ReadKey) -> Request {
    Request::Op(match key {
        ReadKey::Cart(c) => SessionOp::KvGet {
            bucket: "cart".into(),
            key: c.to_string(),
        },
        ReadKey::Order(k) => SessionOp::GetDocument {
            collection: "orders".into(),
            key: k.into(),
        },
        ReadKey::Customer(c) => SessionOp::GetRow {
            table: "customers".into(),
            pk: Value::int(c),
        },
    })
}

impl Wire {
    /// One tagged request and its response, a span around each `Client`
    /// call.
    pub fn rpc(&mut self, req: &Request, tr: &mut ThreadTrace, at: At) -> Result<Response> {
        let h = tr.begin(self.spans[0], at.parent, at.op_id);
        let id = self.client.submit(req)?;
        tr.end(h);
        let h = tr.begin(self.spans[1], at.parent, at.op_id);
        self.client.flush()?;
        tr.end(h);
        let h = tr.begin(self.spans[2], at.parent, at.op_id);
        let resp = self.client.receive(id);
        tr.end(h);
        resp
    }

    /// One staged operation of a transaction under its own span.
    fn staged(
        &mut self,
        name: &'static str,
        op: SessionOp,
        tr: &mut ThreadTrace,
        stage: At,
    ) -> Result<Response> {
        let h = tr.begin(name, stage.parent, stage.op_id);
        let resp = self.rpc(
            &Request::Op(op),
            tr,
            At {
                parent: h,
                op_id: stage.op_id,
            },
        );
        tr.end(h);
        resp
    }

    fn try_new_order(&mut self, op: TxnOp, tr: &mut ThreadTrace, at: At) -> Result<()> {
        let key = data::order_key(op.customer, op.k);
        let who = data::person(op.customer);
        let stage = tr.begin("txn.stage", at.parent, at.op_id);
        let st = At {
            parent: stage,
            op_id: at.op_id,
        };
        let doc = data::order_doc(&key, op.customer);
        self.staged(
            "document.insert",
            SessionOp::InsertDocument {
                collection: "orders".into(),
                doc,
            },
            tr,
            st,
        )?;
        let put = SessionOp::KvPut {
            bucket: "cart".into(),
            key: op.customer.to_string(),
            value: Value::str(&key),
        };
        self.staged("kv.put", put, tr, st)?;
        let edge = SessionOp::AddEdge {
            graph: "social".into(),
            collection: "bought".into(),
            from: who.clone(),
            to: who,
            properties: data::edge_props(&key),
        };
        self.staged("graph.add_edge", edge, tr, st)?;
        let get = SessionOp::GetRow {
            table: "customers".into(),
            pk: Value::int(op.customer),
        };
        let row = match self.staged("relational.get_row", get, tr, st)? {
            Response::Maybe(Some(row)) => row,
            Response::Maybe(None) => return Err(missing(op.customer)),
            other => return Err(unexpected(other)),
        };
        let update = SessionOp::UpdateRow {
            table: "customers".into(),
            row: charged(row)?,
        };
        self.staged("relational.update_row", update, tr, st)?;
        tr.end(stage);
        let h = tr.begin("txn.commit", at.parent, at.op_id);
        let resp = self.rpc(
            &Request::Commit,
            tr,
            At {
                parent: h,
                op_id: at.op_id,
            },
        )?;
        tr.end(h);
        match resp {
            Response::Committed { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

impl Access for Wire {
    fn query(
        &mut self,
        text: &str,
        _stages: &Stages,
        tr: &mut ThreadTrace,
        at: At,
    ) -> Result<Vec<Value>> {
        match self.rpc(
            &Request::Query {
                text: text.into(),
                deadline_ms: None,
            },
            tr,
            at,
        )? {
            Response::Rows(rows) => Ok(rows),
            other => Err(unexpected(other)),
        }
    }

    fn read(&mut self, key: ReadKey, tr: &mut ThreadTrace, at: At) -> Result<Option<Value>> {
        match self.rpc(&read_request(key), tr, at)? {
            Response::Maybe(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn new_order(&mut self, op: TxnOp, tr: &mut ThreadTrace, at: At) -> Result<()> {
        let h = tr.begin("txn.begin", at.parent, at.op_id);
        let begun = self.rpc(
            &Request::Begin {
                serializable: false,
            },
            tr,
            At {
                parent: h,
                op_id: at.op_id,
            },
        )?;
        tr.end(h);
        if !matches!(begun, Response::TxnBegun { .. }) {
            return Err(unexpected(begun));
        }
        let result = self.try_new_order(op, tr, at);
        if result.is_err() {
            // A failed commit has already closed the transaction; a failed
            // staging step has not. Either way the connection must be left
            // without one, and "no open transaction" is the answer wanted.
            let mut quiet = ThreadTrace::off();
            let _ = self.rpc(&Request::Abort, &mut quiet, at);
        }
        result
    }

    fn checkpoint(&mut self) -> Result<(u64, u64)> {
        let mut quiet = ThreadTrace::off();
        let at = At {
            parent: crate::trace::NONE,
            op_id: 0,
        };
        match self.rpc(
            &Request::Admin {
                command: "CHECKPOINT".into(),
            },
            &mut quiet,
            at,
        )? {
            Response::Stats(v) => Ok((
                v.get_field("snapshot_bytes").as_int()? as u64,
                v.get_field("wal_bytes_reclaimed").as_int()? as u64,
            )),
            other => Err(unexpected(other)),
        }
    }
}

/// `new_order` with the client's retry loop: retryable errors (write
/// conflicts) are retried up to `TXN_RETRIES` times. Returns the number
/// of retries it took.
pub fn new_order_retrying(
    a: &mut dyn Access,
    op: TxnOp,
    tr: &mut ThreadTrace,
    at: At,
) -> Result<u32> {
    let mut retries = 0;
    loop {
        match a.new_order(op, tr, at) {
            Ok(()) => return Ok(retries),
            Err(e) if e.is_retryable() && retries < spec::TXN_RETRIES => retries += 1,
            Err(e) => return Err(e),
        }
    }
}
