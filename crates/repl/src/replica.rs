//! The replica side: connect, catch up, tail, reconnect.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mmdb_client::{Client, ClientConfig};
use mmdb_core::Database;
use mmdb_storage::wal::{self, BlockAssembler, Header, LoggedWrite, Lsn, Wal, WalRecord};
use mmdb_txn::WriteSet;
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
                Frame::Log { lsn, bytes } => self.status.observe_tail(lsn + bytes.len() as u64),
                Frame::Reset(_) => {}
            }
            let applied = follower.take(frame)?;
            self.status.note_applied(applied);
        }
        Ok(())
    }
}

/// One stream connection's apply state on a replica, which keeps the
/// replica's log its primary's bytes (DESIGN.md "Replication"):
///
/// - a log chunk must start where the stream stands and scan as whole
///   intact records ([`wal::records`]), or it is refused with nothing of
///   it landed, and the runner reconnects;
/// - its bytes are buffered as a *run*, which may span chunks, until a
///   block commits or a checkpoint marker waits while no block is open.
///   The run then lands exactly as it arrived ([`Wal::append_at`]) with
///   one sync, and its block is installed and applied
///   ([`mmdb_txn::MvccStore::apply_replicated`]), so the log only ever
///   ends at a block boundary: its tail is a resume point;
/// - a landed marker makes the replica fold its own log at the marker's
///   `snapshot_lsn`, the primary's `T` ([`Database::checkpoint_at`]);
/// - after a reset frame, the image block `[B, T)` it announces (none,
///   for an empty fold) makes the log that header and image
///   ([`Wal::reset`]), and the state is replaced through the load
///   recovery uses ([`mmdb_txn::MvccStore::load`]).
///
/// Failpoint `repl.apply` fires before each landing, so a failure leaves
/// the log and the store as they were.
pub struct Follower<'a> {
    db: &'a Database,
    wal: &'a Wal,
    /// Where the next chunk must start.
    next: Lsn,
    /// The stream's bytes since the last landing: whole records.
    run: Vec<u8>,
    blocks: BlockAssembler,
    /// The `snapshot_lsn` of the run's last checkpoint marker.
    marker: Option<Lsn>,
    /// The primary's header, from its reset frame until the image lands.
    reset: Option<Header>,
}

impl<'a> Follower<'a> {
    /// A follower for `db`, which must keep a log.
    pub fn new(db: &'a Database) -> Result<Follower<'a>> {
        let wal = db.wal().ok_or_else(no_log)?;
        let (blocks, next) = (BlockAssembler::default(), wal.tail_lsn());
        Ok(Follower { db, wal, next, run: Vec::new(), blocks, marker: None, reset: None })
    }

    /// What `REPLICA HELLO` carries: the log's id and its tail.
    pub fn position(&self) -> (u64, Lsn) {
        (self.wal.header().log_id, self.wal.tail_lsn())
    }

    /// Take one frame of the stream; returns how many transactions it
    /// applied.
    pub fn take(&mut self, frame: Frame) -> Result<u64> {
        let (lsn, bytes) = match frame {
            Frame::Heartbeat { .. } => return Ok(0),
            Frame::Reset(header) => {
                let fresh = Follower::new(self.db)?;
                *self = Follower { next: header.base, reset: Some(header), ..fresh };
                if header.base == header.horizon {
                    // An empty fold: no image block will come.
                    return self.land(None, header.base);
                }
                return Ok(0);
            }
            Frame::Log { lsn, bytes } => (lsn, bytes),
        };
        let records: Vec<_> = wal::records(&bytes, lsn).collect();
        let end = lsn + bytes.len() as u64;
        if lsn != self.next || records.last().map_or(lsn, |t| t.next_lsn) != end {
            return Err(Error::Protocol(format!(
                "replica stream: a {}-byte log chunk at {lsn} is not whole records from {}",
                bytes.len(),
                self.next
            )));
        }
        self.next = end;
        let (mut applied, mut landed) = (0, 0);
        for t in records {
            if let WalRecord::Checkpoint { snapshot_lsn } = t.record {
                self.marker = Some(snapshot_lsn);
            }
            let block = self.blocks.push(t.record, t.next_lsn);
            if block.is_some() || (self.marker.is_some() && !self.blocks.is_open()) {
                let upto = (t.next_lsn - lsn) as usize;
                self.run.extend_from_slice(&bytes[landed..upto]);
                landed = upto;
                applied += self.land(block.map(|b| b.writes), t.next_lsn)?;
            }
        }
        self.run.extend_from_slice(&bytes[landed..]);
        Ok(applied)
    }

    /// Land the buffered run, which ends at `end` — or, after a reset
    /// frame, the image — and install and apply the block it commits.
    fn land(&mut self, block: Option<Vec<LoggedWrite>>, end: Lsn) -> Result<u64> {
        mmdb_fault::fail_point!("repl.apply", |msg| Error::Storage(format!(
            "replica apply: {msg}"
        )));
        let (run, marker) = (std::mem::take(&mut self.run), self.marker.take());
        let applied = u64::from(block.is_some());
        let writes = WriteSet::decode(block.into_iter().flatten())?;
        if let Some(header) = self.reset.take() {
            self.wal.reset(header, &run)?;
            self.db.mvcc().load(writes, header.horizon);
            return Ok(applied);
        }
        self.wal.append_at(end - run.len() as u64, &run)?;
        self.wal.sync()?;
        // A reset lands the image its stream's first marker folded to, so
        // that marker's horizon is the log's already: folding it again
        // would rewrite the log into the same bytes.
        if let Some(horizon) = marker.filter(|h| *h > self.wal.truncated_lsn()) {
            // Maintenance: a fold that fails leaves a longer log that is
            // still the primary's, and the next marker folds it.
            let _ = self.db.checkpoint_at(horizon);
        }
        self.db.mvcc().apply_replicated(writes, end);
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
        // then a later incarnation's own txid 1, then one more block.
        let primary = Wal::in_memory();
        let write = |txid: u64, key: &str| WalRecord::Write {
            txid,
            domain: "kv/cart".into(),
            key: key.as_bytes().to_vec(),
            value: Some(value_to_bytes(&Value::int(1))),
        };
        primary
            .append_batch(&[
                WalRecord::Begin { txid: 1 },
                write(1, "orphan"),
                WalRecord::Begin { txid: 1 },
                write(1, "real"),
                WalRecord::Commit { txid: 1 },
                WalRecord::Begin { txid: 2 },
                write(2, "next"),
                WalRecord::Commit { txid: 2 },
            ])
            .unwrap();
        let (bytes, tail) = (primary.snapshot_bytes().unwrap(), primary.tail_lsn());
        let edges: Vec<Lsn> = wal::records(&bytes, 0).map(|t| t.next_lsn).collect();
        let commits = [edges[4], edges[7]];
        let chunk = |from: Lsn, to: Lsn| Frame::Log {
            lsn: from,
            bytes: bytes[from as usize..to as usize].to_vec(),
        };
        let follows = |db: &Database| {
            assert_eq!(db.wal().unwrap().snapshot_bytes().unwrap(), bytes);
            assert_eq!(db.mvcc().get_latest("kv/cart", b"orphan").unwrap(), None);
            assert_eq!(db.mvcc().get_latest("kv/cart", b"real").unwrap(), Some(Value::int(1)));
            assert_eq!(db.last_commit_lsn(), tail);
        };

        // In chunks cut at every record edge, and as one chunk.
        for cuts in [edges.clone(), vec![tail]] {
            let db = Database::in_memory_logged();
            let mut follower = Follower::new(&db).unwrap();
            assert_ne!(follower.position().0, primary.header().log_id);
            // A fresh primary's fold is empty: the reset lands at once.
            assert_eq!(follower.take(Frame::Reset(primary.header())).unwrap(), 0);
            assert_eq!(follower.position(), (primary.header().log_id, 0));
            let mut from = 0;
            for to in cuts {
                let applied = follower.take(chunk(from, to)).unwrap();
                // Mid-block is never landed, orphan or not.
                let landed = commits.iter().filter(|c| **c <= to).max().copied().unwrap_or(0);
                assert_eq!(follower.position().1, landed);
                assert_eq!(applied, commits.iter().filter(|c| (from + 1..=to).contains(*c)).count() as u64);
                from = to;
            }
            follows(&db);
        }

        // A chunk cut mid-record, or with a gap before it, is refused with
        // nothing of it landed, whole blocks before the cut included.
        let db = Database::in_memory_logged();
        Follower::new(&db).unwrap().take(Frame::Reset(primary.header())).unwrap();
        assert!(Follower::new(&db).unwrap().take(chunk(0, tail - 1)).is_err());
        assert!(Follower::new(&db).unwrap().take(chunk(edges[0], tail)).is_err());
        assert_eq!(db.wal().unwrap().tail_lsn(), 0);
        assert_eq!(db.last_commit_lsn(), 0);
        // The reconnect lands it exactly once.
        assert_eq!(Follower::new(&db).unwrap().take(chunk(0, tail)).unwrap(), 2);
        follows(&db);
    }

    #[test]
    fn a_replica_without_a_log_is_refused_and_left_unlatched() {
        let db = Arc::new(Database::in_memory());
        let refused = ReplicaRunner::start(Arc::clone(&db), "127.0.0.1:1", ReplicaOptions::default());
        assert_eq!(refused.err().map(|e| e.kind()), Some("unsupported"));
        assert!(!db.is_degraded());
    }
}
