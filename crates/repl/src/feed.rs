//! Wire shapes of the replication stream.
//!
//! After `REPLICA HELLO` or `SUBSCRIBE`, the server pushes framed
//! `Response::Change(Value)` messages. The payload `Value` is an
//! object discriminated by its `"type"` field:
//!
//! * `"log"` — the primary's log bytes from an LSN on, whole records
//!   exactly as its log holds them (replica stream). The replica scans
//!   them with the log's own scanner, [`mmdb_storage::wal::records`], and
//!   lands them as they arrived.
//! * `"heartbeat"` — the primary's durable tail LSN; sent when the
//!   stream is idle so replicas can measure staleness and confirm they
//!   are caught up.
//! * `"reset"` — the primary's log header (`log_id`, `base`, `horizon`,
//!   `at_ms`), sent first to a replica whose log cannot continue the
//!   primary's: the replica's log becomes that header and the image block
//!   the stream carries next.
//! * `"write"` — one committed write, decoded for human consumption
//!   (`SUBSCRIBE` change feed). Aborted transactions never produce
//!   `"write"` events; [`CdcBuffer`] holds writes back until their
//!   commit record arrives.

use mmdb_storage::wal::{BlockAssembler, Header, LoggedWrite, Lsn, TailedRecord};
use mmdb_types::codec::value_from_bytes;
use mmdb_types::{Error, Result, Value};

/// One parsed frame of the replica stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// The primary's log bytes at `[lsn, lsn + bytes.len())`.
    Log {
        /// Where the bytes start in the primary's log.
        lsn: Lsn,
        /// Whole records, as the primary's log holds them.
        bytes: Vec<u8>,
    },
    /// Idle keep-alive carrying the primary's durable tail.
    Heartbeat {
        /// The primary's `Wal::durable_lsn()` at send time.
        tail_lsn: Lsn,
    },
    /// The primary's log header: the replica resets onto the primary's
    /// log, whose image block `[B, T)` the stream carries next.
    Reset(Header),
}

/// Encode a run of the primary's log, starting at `lsn`, as a stream
/// frame.
pub fn log_frame(lsn: Lsn, bytes: Vec<u8>) -> Value {
    Value::object([
        ("type", Value::str("log")),
        ("lsn", Value::int(lsn as i64)),
        ("bytes", Value::Bytes(bytes)),
    ])
}

/// Encode an idle heartbeat carrying the primary's durable tail.
pub fn heartbeat_frame(tail_lsn: Lsn) -> Value {
    Value::object([
        ("type", Value::str("heartbeat")),
        ("tail_lsn", Value::int(tail_lsn as i64)),
    ])
}

/// Encode the reset frame carrying the primary's log header. It leaves
/// out [`Header::copy`]: the log it resets becomes a copy.
pub fn reset_frame(header: &Header) -> Value {
    Value::object([
        ("type", Value::str("reset")),
        ("log_id", Value::int(header.log_id as i64)),
        ("base", Value::int(header.base as i64)),
        ("horizon", Value::int(header.horizon as i64)),
        ("at_ms", Value::int(header.at_ms as i64)),
    ])
}

fn field_u64(v: &Value, name: &str) -> Result<u64> {
    let i = v.get_field(name).as_int().map_err(|_| bad_frame(name, v))?;
    u64::try_from(i).map_err(|_| bad_frame(name, v))
}

fn field_bytes(v: &Value, name: &str) -> Result<Vec<u8>> {
    match v.get_field(name) {
        Value::Bytes(b) => Ok(b.clone()),
        _ => Err(bad_frame(name, v)),
    }
}

fn bad_frame(field: &str, v: &Value) -> Error {
    Error::Protocol(format!("replication frame missing or malformed field {field:?}: {v:?}"))
}

/// Decode a stream frame back into a [`Frame`].
///
/// CDC `"write"` events are a client-facing projection, not part of
/// the replica protocol, and are rejected here.
pub fn parse_frame(v: &Value) -> Result<Frame> {
    match v.get_field("type").as_str().unwrap_or("") {
        "heartbeat" => Ok(Frame::Heartbeat { tail_lsn: field_u64(v, "tail_lsn")? }),
        "reset" => Ok(Frame::Reset(Header {
            log_id: field_u64(v, "log_id")?,
            copy: true,
            base: field_u64(v, "base")?,
            horizon: field_u64(v, "horizon")?,
            at_ms: field_u64(v, "at_ms")?,
        })),
        "log" => Ok(Frame::Log { lsn: field_u64(v, "lsn")?, bytes: field_bytes(v, "bytes")? }),
        other => Err(Error::Protocol(format!("unknown replication frame type {other:?}"))),
    }
}

/// Turns the raw record stream into committed-only CDC events.
///
/// Records go through the log's one [`BlockAssembler`], so a write
/// surfaces as a `"write"` event value only once its transaction's commit
/// record arrives; aborted and orphaned blocks never do. Each released
/// event carries the commit record's `next_lsn` as its resume cursor —
/// resubscribing from an event's `lsn` replays nothing of the
/// transaction that produced it and everything after.
#[derive(Debug, Default)]
pub struct CdcBuffer {
    blocks: BlockAssembler,
}

impl CdcBuffer {
    /// A buffer with no in-flight transaction.
    pub fn new() -> CdcBuffer {
        CdcBuffer::default()
    }

    /// Feed one record; returns the CDC events it releases (empty for
    /// everything except a commit of a transaction with writes).
    pub fn push(&mut self, t: TailedRecord) -> Result<Vec<Value>> {
        let Some(block) = self.blocks.push(t.record, t.next_lsn) else {
            return Ok(Vec::new());
        };
        let mut events = Vec::with_capacity(block.writes.len());
        for LoggedWrite { domain, key, value } in block.writes {
            let value = match value {
                Some(bytes) => value_from_bytes(&bytes)?,
                None => Value::Null,
            };
            events.push(Value::object([
                ("type", Value::str("write")),
                ("lsn", Value::int(block.end_lsn as i64)),
                ("txid", Value::int(block.txid as i64)),
                ("domain", Value::str(domain)),
                ("key", Value::str(String::from_utf8_lossy(&key).into_owned())),
                ("deleted", Value::Bool(value.is_null())),
                ("value", value),
            ]));
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_storage::wal::WalRecord;
    use mmdb_types::codec::value_to_bytes;

    fn rec(lsn: Lsn, next: Lsn, record: WalRecord) -> TailedRecord {
        TailedRecord { lsn, next_lsn: next, record }
    }

    fn write(txid: u64, key: &str, value: Option<i64>) -> WalRecord {
        WalRecord::Write {
            txid,
            domain: "kv/cart".into(),
            key: key.as_bytes().to_vec(),
            value: value.map(|v| value_to_bytes(&Value::int(v))),
        }
    }

    #[test]
    fn frames_round_trip_through_values() {
        let log = log_frame(17, vec![0, 159, 255]);
        assert_eq!(parse_frame(&log).unwrap(), Frame::Log { lsn: 17, bytes: vec![0, 159, 255] });
        let hb = heartbeat_frame(424242);
        assert_eq!(parse_frame(&hb).unwrap(), Frame::Heartbeat { tail_lsn: 424242 });
        let header = Header { log_id: (1 << 63) - 1, copy: true, base: 1_700, horizon: 3_870, at_ms: 1 };
        assert_eq!(parse_frame(&reset_frame(&header)).unwrap(), Frame::Reset(header));
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(parse_frame(&Value::str("nope")).is_err());
        assert!(parse_frame(&Value::object([("type", Value::str("mystery"))])).is_err());
        let log = |lsn: i64, bytes: Value| {
            Value::object([("type", Value::str("log")), ("lsn", Value::int(lsn)), ("bytes", bytes)])
        };
        assert!(parse_frame(&log(-1, Value::Bytes(vec![]))).is_err());
        assert!(parse_frame(&log(0, Value::str("not bytes"))).is_err());
        // The retired per-record frame is as unknown as any other.
        assert!(parse_frame(&Value::object([
            ("type", Value::str("record")),
            ("lsn", Value::int(0)),
            ("next_lsn", Value::int(9)),
            ("kind", Value::str("begin")),
            ("txid", Value::int(1)),
        ]))
        .is_err());
    }

    #[test]
    fn cdc_buffer_releases_only_committed_writes() {
        let mut buf = CdcBuffer::new();

        // An aborted transaction never surfaces: its block never commits,
        // and the next Begin supersedes it.
        assert!(buf.push(rec(0, 10, WalRecord::Begin { txid: 1 })).unwrap().is_empty());
        assert!(buf.push(rec(10, 40, write(1, "ghost", Some(42)))).unwrap().is_empty());
        assert!(buf.blocks.is_open());

        // A committed one surfaces decoded, stamped with the commit's
        // next_lsn as the resume cursor.
        buf.push(rec(50, 60, WalRecord::Begin { txid: 2 })).unwrap();
        buf.push(rec(60, 90, write(2, "real", Some(42)))).unwrap();
        buf.push(rec(90, 120, write(2, "gone", None))).unwrap();
        let events = buf.push(rec(120, 130, WalRecord::Commit { txid: 2 })).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get_field("type").as_str().unwrap(), "write");
        assert_eq!(events[0].get_field("lsn").as_int().unwrap(), 130);
        assert_eq!(events[0].get_field("domain").as_str().unwrap(), "kv/cart");
        assert_eq!(events[0].get_field("key").as_str().unwrap(), "real");
        assert_eq!(events[0].get_field("value"), &Value::int(42));
        assert_eq!(events[0].get_field("deleted"), &Value::Bool(false));
        assert_eq!(events[1].get_field("key").as_str().unwrap(), "gone");
        assert_eq!(events[1].get_field("deleted"), &Value::Bool(true));
    }

    #[test]
    fn cdc_buffer_ignores_a_block_a_fresh_begin_superseded() {
        // `Begin{1} Write{1}` orphaned by a torn batch, then a later
        // incarnation's own txid 1: only the second block's write surfaces.
        let mut buf = CdcBuffer::new();
        buf.push(rec(0, 10, WalRecord::Begin { txid: 1 })).unwrap();
        buf.push(rec(10, 40, write(1, "orphan", Some(1)))).unwrap();
        buf.push(rec(40, 50, WalRecord::Begin { txid: 1 })).unwrap();
        buf.push(rec(50, 80, write(1, "real", Some(1)))).unwrap();
        let events = buf.push(rec(80, 90, WalRecord::Commit { txid: 1 })).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get_field("key").as_str().unwrap(), "real");
        assert_eq!(events[0].get_field("lsn").as_int().unwrap(), 90);
    }
}
