//! The replica side: connect, catch up, tail, reconnect.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mmdb_client::{Client, ClientConfig};
use mmdb_core::Database;
use mmdb_storage::wal::{BlockAssembler, Header, LoggedWrite, Lsn, TailedRecord, Wal, WalRecord};
use mmdb_txn::CommittedWrite;
use mmdb_types::{Error, Result};

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
/// thread loops: connect, `REPLICA HELLO <log_id> <tail>` with its own
/// log's id and tail, take the stream through a [`Follower`], and on any
/// failure reconnect after [`ReplicaOptions::reconnect_delay`]. The
/// replica's log is a copy of its primary's, so its tail is where it
/// resumes, after a reconnect and after a restart alike. A failed sync
/// fails the log until it is reopened; the thread then stops and
/// [`ReplStatus::failure`] says why. While disconnected or stopped the
/// replica keeps serving reads from its latest applied state.
pub struct ReplicaRunner {
    status: Arc<ReplStatus>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicaRunner {
    /// Latch `db` read-only and start replicating from `primary_addr`.
    ///
    /// `db` must keep a log (`Database::open` or
    /// `Database::in_memory_logged`), which becomes its copy of the
    /// primary's: a database without one is an `unsupported` error, and
    /// is left unlatched. Fails with a typed `startup` error when the OS
    /// refuses the replica thread. The read-only latch has no unlatch by
    /// design, so then `db` stays read-only — reopen it to write locally,
    /// or retry `start` to keep it a replica.
    pub fn start(
        db: Arc<Database>,
        primary_addr: impl Into<String>,
        opts: ReplicaOptions,
    ) -> Result<ReplicaRunner> {
        let primary_addr = primary_addr.into();
        if db.wal().is_none() {
            return Err(no_log());
        }
        db.mvcc()
            .latch_read_only(&format!("read-only replica of {primary_addr}"));
        let status = Arc::new(ReplStatus::new(primary_addr.clone(), db.mvcc().clone()));
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

/// A replica without a log has nowhere to keep its primary's.
fn no_log() -> Error {
    Error::Unsupported(
        "a replica keeps a copy of its primary's log, and this database has no log: \
         open it with Database::open or Database::in_memory_logged"
            .into(),
    )
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
            // from the log's tail — unless the log failed, which takes
            // nothing until it is reopened, so the runner reports it and
            // stops instead.
            let _ = self.stream_once();
            self.status.set_connected(false);
            if let Some(Err(e)) = self.db.wal().map(|wal| wal.check_synced()) {
                self.status.set_failed(e.to_string());
                break;
            }
            if self.stopped() {
                break;
            }
            std::thread::sleep(self.opts.reconnect_delay);
        }
    }

    /// One connection lifetime: hello, then take frames until an error
    /// or shutdown. Returns `Ok(())` only on shutdown.
    fn stream_once(&self) -> Result<()> {
        let mut follower = Follower::new(&self.db)?;
        let mut client = Client::connect_with(&*self.addr, self.opts.client.clone())?;
        let (log_id, tail) = follower.position();
        client.replica_hello(log_id, tail)?;
        self.status.set_connected(true);
        while !self.stopped() {
            let frame = parse_frame(&client.next_change()?)?;
            self.status.note_contact();
            match &frame {
                Frame::Heartbeat { tail_lsn } => self.status.observe_tail(*tail_lsn),
                Frame::Record(rec) => self.status.observe_tail(rec.next_lsn),
                Frame::Reset(_) => {}
            }
            let applied = follower.take(frame)?;
            self.status.note_applied(applied);
        }
        Ok(())
    }
}

/// One stream connection's apply state on a replica, which keeps the
/// replica's log a byte-for-byte copy of its primary's:
///
/// - records are buffered as a *run* until a block commits, or until a
///   checkpoint marker arrives while no block is open. The run then
///   lands verbatim ([`Wal::append_verbatim`]: the primary's txids and
///   bytes, at the primary's LSNs) with one sync, and its block is
///   installed and applied ([`mmdb_txn::MvccStore::apply_replicated`]).
///   An orphan a later `Begin` superseded lands with its run, so both
///   logs hold it, and the block rule skips it on both. The log only ever
///   ends at a block boundary, so its tail is a resume point;
/// - a marker, once landed, makes the replica fold its own log at the
///   marker's `snapshot_lsn` ([`Database::checkpoint_at`]): the primary's
///   `T`, so both folds read the same bytes and write the same image;
/// - a reset frame — the primary's answer to a log it cannot continue —
///   announces the primary's header. Once the image block `[B, T)` it
///   starts has arrived (at once, for an empty fold), the log becomes
///   that header and image ([`Wal::reset`]) and the state is replaced
///   through the load recovery uses ([`mmdb_txn::MvccStore::load`]).
///
/// Failpoint `repl.apply` fires before each landing, so a failure leaves
/// the log and the store as they were.
pub struct Follower<'a> {
    db: &'a Database,
    wal: &'a Wal,
    run: Vec<TailedRecord>,
    blocks: BlockAssembler,
    /// The primary's header, from its reset frame until the image lands.
    reset: Option<Header>,
}

impl<'a> Follower<'a> {
    /// A follower for `db`, which must keep a log.
    pub fn new(db: &'a Database) -> Result<Follower<'a>> {
        let wal = db.wal().ok_or_else(no_log)?;
        Ok(Follower { db, wal, run: Vec::new(), blocks: BlockAssembler::default(), reset: None })
    }

    /// What `REPLICA HELLO` carries: the log's id and its tail.
    pub fn position(&self) -> (u64, Lsn) {
        (self.wal.header().log_id, self.wal.tail_lsn())
    }

    /// Take one frame of the stream; returns how many transactions it
    /// applied.
    pub fn take(&mut self, frame: Frame) -> Result<u64> {
        match frame {
            Frame::Heartbeat { .. } => Ok(0),
            Frame::Reset(header) => {
                self.run.clear();
                self.blocks = BlockAssembler::default();
                self.reset = Some(header);
                if header.base == header.horizon {
                    // An empty fold: no image block will come.
                    return self.land(None);
                }
                Ok(0)
            }
            Frame::Record(rec) => {
                let marker = matches!(rec.record, WalRecord::Checkpoint { .. });
                let block = self.blocks.push(rec.record.clone(), rec.next_lsn);
                self.run.push(rec);
                if block.is_some() || (marker && !self.blocks.is_open()) {
                    return self.land(block.map(|b| b.writes));
                }
                Ok(0)
            }
        }
    }

    /// Land the buffered run — or, after a reset frame, the image — and
    /// install and apply the block it commits.
    fn land(&mut self, block: Option<Vec<LoggedWrite>>) -> Result<u64> {
        mmdb_fault::fail_point!("repl.apply", |msg| Error::Storage(format!(
            "replica apply: {msg}"
        )));
        let run = std::mem::take(&mut self.run);
        let applied = u64::from(block.is_some());
        let writes = block
            .unwrap_or_default()
            .iter()
            .map(CommittedWrite::decode)
            .collect::<Result<Vec<_>>>()?;
        if let Some(header) = self.reset.take() {
            self.wal.reset(header, &run)?;
            self.db.mvcc().load(writes, header.horizon);
            return Ok(applied);
        }
        let end = self.wal.append_verbatim(&run)?;
        self.wal.sync()?;
        let marker = run.iter().rev().find_map(|t| match t.record {
            WalRecord::Checkpoint { snapshot_lsn } => Some(snapshot_lsn),
            _ => None,
        });
        // A reset lands the image its stream's first marker folded to, so
        // that marker's horizon is the log's already: folding it again
        // would rewrite the log into the same bytes.
        if let Some(horizon) = marker.filter(|h| *h > self.wal.truncated_lsn()) {
            // Maintenance: a fold that fails leaves a longer log that is
            // still the primary's, and the next marker folds it.
            let _ = self.db.checkpoint_at(horizon);
        }
        self.db.mvcc().apply_replicated(&writes, end);
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::codec::value_to_bytes;
    use mmdb_types::Value;

    #[test]
    fn a_followers_log_is_its_primarys_bytes_superseded_block_and_all() {
        // The primary's log: `Begin{1} Write{1}` orphaned by a torn batch,
        // then a later incarnation's own txid 1.
        let primary = Wal::in_memory();
        let write = |key: &str| WalRecord::Write {
            txid: 1,
            domain: "kv/cart".into(),
            key: key.as_bytes().to_vec(),
            value: Some(value_to_bytes(&Value::int(1))),
        };
        primary
            .append_batch(&[
                WalRecord::Begin { txid: 1 },
                write("orphan"),
                WalRecord::Begin { txid: 1 },
                write("real"),
                WalRecord::Commit { txid: 1 },
            ])
            .unwrap();
        let tail = primary.tail_lsn();

        let db = Database::in_memory_logged();
        let mut follower = Follower::new(&db).unwrap();
        assert_ne!(follower.position().0, primary.header().log_id);
        // A fresh primary's fold is empty: the reset lands at once.
        assert_eq!(follower.take(Frame::Reset(primary.header())).unwrap(), 0);
        assert_eq!(follower.position(), (primary.header().log_id, 0));
        for t in primary.read_records_from(0, usize::MAX).unwrap() {
            let next = t.next_lsn;
            let applied = follower.take(Frame::Record(t)).unwrap();
            // Mid-block is never landed, orphan or not.
            assert_eq!(follower.position().1, if next == tail { tail } else { 0 });
            assert_eq!(applied, u64::from(next == tail));
        }
        assert_eq!(db.wal().unwrap().snapshot_bytes(), primary.snapshot_bytes());
        assert_eq!(db.mvcc().get_latest("kv/cart", b"orphan"), None);
        assert_eq!(db.mvcc().get_latest("kv/cart", b"real"), Some(Value::int(1)));
        assert_eq!(db.last_commit_lsn(), tail);
    }

    #[test]
    fn a_replica_without_a_log_is_refused_and_left_unlatched() {
        let db = Arc::new(Database::in_memory());
        let refused = ReplicaRunner::start(Arc::clone(&db), "127.0.0.1:1", ReplicaOptions::default());
        assert_eq!(refused.err().map(|e| e.kind()), Some("unsupported"));
        assert!(!db.is_degraded());
    }
}
