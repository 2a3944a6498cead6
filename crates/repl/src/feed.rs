//! Wire shapes of the replication stream.
//!
//! After `REPLICA HELLO` or `SUBSCRIBE`, the server pushes framed
//! `Response::Change(Value)` messages. The payload `Value` is an
//! object discriminated by its `"type"` field:
//!
//! * `"record"` — one raw WAL record with its LSN bounds (replica
//!   stream). Keys and values travel as [`Value::Bytes`] so replay is
//!   byte-exact.
//! * `"heartbeat"` — the primary's current WAL tail LSN; sent when
//!   the stream is idle so replicas can measure staleness and confirm
//!   they are caught up.
//! * `"write"` — one committed write, decoded for human consumption
//!   (`SUBSCRIBE` change feed). Aborted transactions never produce
//!   `"write"` events; [`CdcBuffer`] holds writes back until their
//!   commit record arrives.

use mmdb_storage::wal::{BlockAssembler, LoggedWrite, Lsn, TailedRecord, WalRecord};
use mmdb_types::codec::value_from_bytes;
use mmdb_types::{Error, Result, Value};

/// One parsed frame of the replica stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A raw WAL record and its LSN bounds.
    Record(TailedRecord),
    /// Idle keep-alive carrying the primary's WAL tail.
    Heartbeat {
        /// The primary's `Wal::tail_lsn()` at send time.
        tail_lsn: Lsn,
    },
}

/// Encode one tailed WAL record as a stream frame.
pub fn record_frame(t: &TailedRecord) -> Value {
    let mut fields = vec![
        ("type", Value::str("record")),
        ("lsn", Value::int(t.lsn as i64)),
        ("next_lsn", Value::int(t.next_lsn as i64)),
    ];
    match &t.record {
        WalRecord::Begin { txid } => {
            fields.push(("kind", Value::str("begin")));
            fields.push(("txid", Value::int(*txid as i64)));
        }
        WalRecord::Write { txid, domain, key, value } => {
            fields.push(("kind", Value::str("write")));
            fields.push(("txid", Value::int(*txid as i64)));
            fields.push(("domain", Value::str(domain.clone())));
            fields.push(("key", Value::Bytes(key.clone())));
            fields.push((
                "value",
                match value {
                    Some(v) => Value::Bytes(v.clone()),
                    None => Value::Null,
                },
            ));
        }
        WalRecord::Commit { txid } => {
            fields.push(("kind", Value::str("commit")));
            fields.push(("txid", Value::int(*txid as i64)));
        }
        WalRecord::Abort { txid } => {
            fields.push(("kind", Value::str("abort")));
            fields.push(("txid", Value::int(*txid as i64)));
        }
        WalRecord::Checkpoint { snapshot_lsn } => {
            fields.push(("kind", Value::str("checkpoint")));
            fields.push(("snapshot_lsn", Value::int(*snapshot_lsn as i64)));
        }
    }
    Value::object(fields)
}

/// Frames for a snapshot bootstrap: the primary's live state at
/// `snapshot_lsn`, shipped as one synthetic transaction (txid 0) over
/// the ordinary record framing. A replica whose `REPLICA HELLO` LSN
/// fell below the primary's truncation horizon receives these instead
/// of the vanished log prefix: its normal apply path installs them like
/// any replicated transaction, and the commit frame's `next_lsn`
/// (`snapshot_lsn`) positions its resume cursor at the live tail.
///
/// `writes` is `MvccStore::latest_committed_writes` — snapshots carry no
/// deletes, so the replica applies txid 0 as a full state *replace*
/// (`MvccStore::apply_snapshot_replace`): keys it still holds that are
/// absent from the snapshot get synthesized tombstones, which is how
/// deletes that happened inside the truncated gap reach a stale
/// non-empty replica.
pub fn bootstrap_frames(snapshot_lsn: Lsn, writes: Vec<LoggedWrite>) -> Vec<Value> {
    let at = |record: WalRecord| {
        record_frame(&TailedRecord { lsn: snapshot_lsn, next_lsn: snapshot_lsn, record })
    };
    let mut frames = Vec::with_capacity(writes.len() + 2);
    frames.push(at(WalRecord::Begin { txid: 0 }));
    for LoggedWrite { domain, key, value } in writes {
        frames.push(at(WalRecord::Write { txid: 0, domain, key, value }));
    }
    frames.push(at(WalRecord::Commit { txid: 0 }));
    frames
}

/// Encode an idle heartbeat carrying the primary's WAL tail.
pub fn heartbeat_frame(tail_lsn: Lsn) -> Value {
    Value::object([
        ("type", Value::str("heartbeat")),
        ("tail_lsn", Value::int(tail_lsn as i64)),
    ])
}

fn field_u64(v: &Value, name: &str) -> Result<u64> {
    let i = v.get_field(name).as_int().map_err(|_| bad_frame(name, v))?;
    u64::try_from(i).map_err(|_| bad_frame(name, v))
}

fn field_str(v: &Value, name: &str) -> Result<String> {
    Ok(v.get_field(name).as_str().map_err(|_| bad_frame(name, v))?.to_string())
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
        "record" => {
            let lsn = field_u64(v, "lsn")?;
            let next_lsn = field_u64(v, "next_lsn")?;
            let record = match v.get_field("kind").as_str().unwrap_or("") {
                "begin" => WalRecord::Begin { txid: field_u64(v, "txid")? },
                "write" => WalRecord::Write {
                    txid: field_u64(v, "txid")?,
                    domain: field_str(v, "domain")?,
                    key: field_bytes(v, "key")?,
                    value: match v.get_field("value") {
                        Value::Null => None,
                        Value::Bytes(b) => Some(b.clone()),
                        _ => return Err(bad_frame("value", v)),
                    },
                },
                "commit" => WalRecord::Commit { txid: field_u64(v, "txid")? },
                "abort" => WalRecord::Abort { txid: field_u64(v, "txid")? },
                // Older primaries omit snapshot_lsn; treat as 0.
                "checkpoint" => WalRecord::Checkpoint {
                    snapshot_lsn: field_u64(v, "snapshot_lsn").unwrap_or(0),
                },
                other => {
                    return Err(Error::Protocol(format!(
                        "unknown replication record kind {other:?}"
                    )))
                }
            };
            Ok(Frame::Record(TailedRecord { lsn, next_lsn, record }))
        }
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
    use mmdb_types::codec::value_to_bytes;

    fn rec(lsn: Lsn, next: Lsn, record: WalRecord) -> TailedRecord {
        TailedRecord { lsn, next_lsn: next, record }
    }

    #[test]
    fn frames_round_trip_through_values() {
        let records = vec![
            rec(0, 17, WalRecord::Begin { txid: 7 }),
            rec(
                17,
                60,
                WalRecord::Write {
                    txid: 7,
                    domain: "kv/cart".into(),
                    key: vec![0, 159, 255],
                    value: Some(vec![1, 2, 3]),
                },
            ),
            rec(
                60,
                90,
                WalRecord::Write {
                    txid: 7,
                    domain: "doc/orders".into(),
                    key: b"o1".to_vec(),
                    value: None,
                },
            ),
            rec(90, 107, WalRecord::Commit { txid: 7 }),
            rec(107, 124, WalRecord::Abort { txid: 8 }),
            rec(124, 133, WalRecord::Checkpoint { snapshot_lsn: 124 }),
        ];
        for r in records {
            let frame = record_frame(&r);
            assert_eq!(parse_frame(&frame).unwrap(), Frame::Record(r));
        }
        let hb = heartbeat_frame(424242);
        assert_eq!(parse_frame(&hb).unwrap(), Frame::Heartbeat { tail_lsn: 424242 });
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(parse_frame(&Value::str("nope")).is_err());
        assert!(parse_frame(&Value::object([("type", Value::str("mystery"))])).is_err());
        assert!(parse_frame(&Value::object([
            ("type", Value::str("record")),
            ("lsn", Value::int(0)),
            ("next_lsn", Value::int(9)),
            ("kind", Value::str("begin")),
            ("txid", Value::int(-1)),
        ]))
        .is_err());
    }

    #[test]
    fn cdc_buffer_releases_only_committed_writes() {
        let mut buf = CdcBuffer::new();
        let payload = value_to_bytes(&Value::int(42)).to_vec();

        // An aborted transaction never surfaces.
        assert!(buf.push(rec(0, 10, WalRecord::Begin { txid: 1 })).unwrap().is_empty());
        assert!(buf
            .push(rec(
                10,
                40,
                WalRecord::Write {
                    txid: 1,
                    domain: "kv/cart".into(),
                    key: b"ghost".to_vec(),
                    value: Some(payload.clone()),
                }
            ))
            .unwrap()
            .is_empty());
        assert!(buf.blocks.is_open());
        assert!(buf.push(rec(40, 50, WalRecord::Abort { txid: 1 })).unwrap().is_empty());
        assert!(!buf.blocks.is_open());

        // A committed one surfaces decoded, stamped with the commit's
        // next_lsn as the resume cursor.
        buf.push(rec(50, 60, WalRecord::Begin { txid: 2 })).unwrap();
        buf.push(rec(
            60,
            90,
            WalRecord::Write {
                txid: 2,
                domain: "kv/cart".into(),
                key: b"real".to_vec(),
                value: Some(payload),
            },
        ))
        .unwrap();
        buf.push(rec(
            90,
            120,
            WalRecord::Write {
                txid: 2,
                domain: "kv/cart".into(),
                key: b"gone".to_vec(),
                value: None,
            },
        ))
        .unwrap();
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
        let write = |key: &str| WalRecord::Write {
            txid: 1,
            domain: "kv/cart".into(),
            key: key.as_bytes().to_vec(),
            value: Some(value_to_bytes(&Value::int(1)).to_vec()),
        };
        buf.push(rec(0, 10, WalRecord::Begin { txid: 1 })).unwrap();
        buf.push(rec(10, 40, write("orphan"))).unwrap();
        buf.push(rec(40, 50, WalRecord::Begin { txid: 1 })).unwrap();
        buf.push(rec(50, 80, write("real"))).unwrap();
        let events = buf.push(rec(80, 90, WalRecord::Commit { txid: 1 })).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get_field("key").as_str().unwrap(), "real");
        assert_eq!(events[0].get_field("lsn").as_int().unwrap(), 90);
    }
}
