//! The replica side: connect, catch up, tail, reconnect.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mmdb_client::{Client, ClientConfig};
use mmdb_core::Database;
use mmdb_storage::wal::{BlockAssembler, TailedRecord, WalRecord};
use mmdb_txn::CommittedWrite;
use mmdb_types::{Error, Result, Value};

use crate::feed::{parse_frame, Frame};
use crate::status::ReplStatus;

/// Tunables for a [`ReplicaRunner`].
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// Pause between reconnect attempts after the primary goes away.
    pub reconnect_delay: Duration,
    /// Connection settings for the stream. The read timeout doubles as
    /// the liveness bound: the primary heartbeats a few times per
    /// second, so a timed-out read means the primary is gone and the
    /// runner reconnects.
    pub client: ClientConfig,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        // Heartbeats arrive every ~200ms; 5s of silence is a dead primary.
        let client =
            ClientConfig { read_timeout: Some(Duration::from_secs(5)), ..ClientConfig::default() };
        ReplicaOptions { reconnect_delay: Duration::from_millis(300), client }
    }
}

/// Drives one replica database from a primary's WAL stream.
///
/// On `start` the local store is latched read-only and a background
/// thread loops: connect, `REPLICA HELLO <applied_lsn>`, apply streamed
/// transactions via [`mmdb_txn::MvccStore::apply_replicated`], and on
/// any failure reconnect after [`ReplicaOptions::reconnect_delay`],
/// resuming from the last fully-applied transaction boundary. While
/// disconnected the replica keeps serving reads from its latest
/// applied state.
pub struct ReplicaRunner {
    status: Arc<ReplStatus>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicaRunner {
    /// Latch `db` read-only and start replicating from `primary_addr`.
    ///
    /// Fails with a typed `startup` error when the OS refuses the
    /// replica thread. The read-only latch has no unlatch by design, so
    /// on failure `db` stays read-only — reopen it to write locally, or
    /// retry `start` to keep it a replica.
    pub fn start(
        db: Arc<Database>,
        primary_addr: impl Into<String>,
        opts: ReplicaOptions,
    ) -> Result<ReplicaRunner> {
        let primary_addr = primary_addr.into();
        db.mvcc()
            .latch_read_only(&format!("read-only replica of {primary_addr}"));
        let status = Arc::new(ReplStatus::new(primary_addr.clone()));
        // Resume from the database's own replication watermark, not LSN 0:
        // a runner restarted over an already-fed replica must not replay
        // (and double-apply) transactions the store has already absorbed.
        status.advance_applied(db.last_commit_lsn());
        let stop = Arc::new(AtomicBool::new(false));
        let worker = Worker {
            db,
            addr: primary_addr,
            opts,
            status: Arc::clone(&status),
            stop: Arc::clone(&stop),
        };
        let handle = std::thread::Builder::new()
            .name("mmdb-replica".into())
            .spawn(move || worker.run())
            .map_err(|e| {
                Error::Startup(format!("could not spawn replica thread: {e}"))
            })?;
        Ok(ReplicaRunner { status, stop, handle: Some(handle) })
    }

    /// The shared status handle (clone it into server admin handlers).
    pub fn status(&self) -> Arc<ReplStatus> {
        Arc::clone(&self.status)
    }

    /// Signal the thread and wait for it to exit. Returns promptly when
    /// idle; bounded by the stream read timeout when mid-read.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicaRunner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct Worker {
    db: Arc<Database>,
    addr: String,
    opts: ReplicaOptions,
    status: Arc<ReplStatus>,
    stop: Arc<AtomicBool>,
}

impl Worker {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn run(&self) {
        while !self.stopped() {
            // Any error just ends this connection: the next one resumes
            // from the last applied transaction boundary.
            let _ = self.stream_once();
            self.status.set_connected(false);
            if self.stopped() {
                break;
            }
            std::thread::sleep(self.opts.reconnect_delay);
        }
    }

    /// One connection lifetime: hello, then apply frames until an error
    /// or shutdown. Returns `Ok(())` only on shutdown.
    fn stream_once(&self) -> Result<()> {
        let mut client = Client::connect_with(&*self.addr, self.opts.client.clone())?;
        client.replica_hello(self.status.applied_lsn())?;
        self.status.set_connected(true);

        // Per connection: a reconnect resumes at a block boundary.
        let mut blocks = BlockAssembler::default();
        while !self.stopped() {
            let frame = client.next_change()?;
            self.status.note_contact();
            match parse_frame(&frame)? {
                Frame::Heartbeat { tail_lsn } => self.status.observe_tail(tail_lsn),
                Frame::Record(rec) => apply_record(&self.db, &self.status, &mut blocks, rec)?,
            }
        }
        Ok(())
    }
}

/// Take one streamed record: feed it to the log's block assembler (so a
/// block a fresh `Begin` superseded is ignored here exactly as primary
/// recovery ignores it), apply the transaction it commits, if any, and
/// advance the resume watermark when the stream is between blocks.
fn apply_record(
    db: &Database,
    status: &ReplStatus,
    blocks: &mut BlockAssembler,
    rec: TailedRecord,
) -> Result<()> {
    status.observe_tail(rec.next_lsn);
    if matches!(rec.record, WalRecord::Checkpoint { .. }) {
        // The primary checkpointed and truncated its log; do the same
        // locally so replica logs stay bounded too. A checkpoint is not a
        // commit, so the read-only latch doesn't apply; failure is
        // non-fatal (worst case the local log keeps growing until the
        // next marker).
        let _ = db.checkpoint();
    }
    if let Some(block) = blocks.push(rec.record, rec.next_lsn) {
        // Dropping the connection here (error/crash) is safe: applied_lsn
        // hasn't advanced, so the reconnect replays the block and the
        // apply repeats idempotently onto newer versions.
        mmdb_fault::fail_point!("repl.apply", |msg| {
            mmdb_types::Error::Storage(format!("replica apply: {msg}"))
        });
        let writes =
            block.writes.iter().map(CommittedWrite::decode).collect::<Result<Vec<_>>>()?;
        if block.txid == 0 {
            // Txid 0 is the synthetic snapshot-bootstrap transaction: the
            // primary's complete live state. Apply it as a full replace
            // so keys this replica still holds from before the truncation
            // horizon — including ones the primary deleted inside the
            // gap — don't survive as ghosts.
            db.mvcc().apply_snapshot_replace(&writes)?;
        } else {
            db.mvcc().apply_replicated(&writes)?;
        }
        status.note_txn_applied();
    }
    // Only a transaction boundary is a safe resume point: `REPLICA HELLO`
    // replays whole records, and a Begin or Write we've buffered but not
    // applied must be streamed again if this connection dies.
    if !blocks.is_open() {
        status.advance_applied(rec.next_lsn);
        // Mirror the watermark into the store so
        // `Database::last_commit_lsn` answers "how far along is this
        // node" on a replica too — and a future runner on this database
        // resumes here.
        db.mvcc().note_commit_lsn(rec.next_lsn);
    }
    Ok(())
}

/// Convenience for tests and tools: dump a database's current change
/// feed cursor, i.e. the LSN a fresh `SUBSCRIBE` should start from to
/// see only future commits. Uses the *durable* watermark — with group
/// commit, bytes past it are appended but not yet fsynced, and the
/// stream never ships them.
pub fn current_cursor(db: &Database) -> Value {
    Value::int(db.wal().map(|w| w.durable_lsn()).unwrap_or(0) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::codec::value_to_bytes;

    #[test]
    fn the_apply_loop_ignores_a_superseded_block_and_the_watermark_still_advances() {
        let db = Database::in_memory();
        let status = ReplStatus::new("primary:0");
        let mut blocks = BlockAssembler::default();
        let write = |key: &str| WalRecord::Write {
            txid: 1,
            domain: "kv/cart".into(),
            key: key.as_bytes().to_vec(),
            value: Some(value_to_bytes(&Value::int(1)).to_vec()),
        };
        // `Begin{1} Write{1}` orphaned on the primary by a torn batch,
        // then a later incarnation's own txid 1.
        let records = [
            WalRecord::Begin { txid: 1 },
            write("orphan"),
            WalRecord::Begin { txid: 1 },
            write("real"),
            WalRecord::Commit { txid: 1 },
        ];
        for (i, record) in records.into_iter().enumerate() {
            let (lsn, next_lsn) = (i as u64 * 10, i as u64 * 10 + 10);
            apply_record(&db, &status, &mut blocks, TailedRecord { lsn, next_lsn, record }).unwrap();
            // Mid-block is never a resume point, orphan or not.
            assert_eq!(status.applied_lsn(), if next_lsn == 50 { 50 } else { 0 });
        }
        assert_eq!(db.mvcc().get_latest("kv/cart", b"orphan"), None);
        assert_eq!(db.mvcc().get_latest("kv/cart", b"real"), Some(Value::int(1)));
        assert_eq!(status.txns_applied(), 1);
        assert_eq!(db.last_commit_lsn(), 50);
    }
}
