//! Multi-version concurrency control with snapshot isolation, optional
//! serializable validation, WAL durability, and commit hooks.
//!
//! Every transactional key is `(domain, key-bytes)`; domains name model
//! collections (`"doc/orders"`, `"kv/cart"`, …), so one transaction spans
//! every data model — the tutorial's "cross-model transaction". The
//! version store is two levels, domain → key → version chain: a domain's
//! name is kept once, not once per key, and a lookup borrows
//! `(&str, &[u8])` instead of building an owned key. A version holds its
//! value in the log's encoding — the very bytes of its WAL record, shared
//! — and a read decodes it on the way out.
//!
//! Protocol: a transaction reads the latest version with
//! `commit_ts <= start_ts` (its snapshot) and buffers writes locally; a
//! serializable one also records the keys it read.
//! Commits go through a **group-commit sequencer**: concurrent
//! committers enqueue their write (and read) sets, one leader drains
//! the queue, runs *first-committer-wins* validation per transaction (a
//! transaction loses if any key it wrote — or, when
//! serializable, read — has a version committed after its snapshot, or
//! was written by an earlier winner of the same batch), appends every
//! winner's Begin/Write*/Commit block with
//! one contiguous WAL batch write, issues a **single** `wal.sync()`,
//! gives the winners their commit timestamps, installs the version
//! chains in commit order and hands each winner its write set back.
//! K concurrent commits cost one fsync instead of K; losers get the
//! usual retryable conflict error. Each winner then runs the registered
//! commit hooks (the model stores) on its own thread, in commit order,
//! outside the sequencer's critical section.
//!
//! Logging, installing and applying are one private step each
//! (`StoreInner::log`, `StoreInner::install`, `StoreInner::apply`):
//! the leader and its committers reach the WAL, the version map and the
//! hooks through them, and a replicated block and a load (the fold
//! `Wal::recover` reads at open, a replica's reset), which come from a
//! log already, through the last two (DESIGN.md "A transaction's road").

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};

use mmdb_storage::wal::{load_class, LoggedWrite, Lsn, Wal, WriteParts};
use mmdb_types::codec::{encode_value, value_from_bytes, value_to_bytes};
use mmdb_types::{lock_rank, Error, Result, Value};

/// Isolation levels offered per transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Snapshot isolation (default): consistent reads, FCW write conflicts.
    #[default]
    Snapshot,
    /// Serializable: snapshot reads, and the FCW check at commit covers
    /// the keys the transaction read as well as those it
    /// wrote — so write skew aborts with a retryable conflict.
    Serializable,
}

/// A transactional key, owned: what a serializable transaction records
/// for each read. The version store itself never builds one.
pub type TxnKey = (String, Vec<u8>);

/// One domain's version chains, by key bytes.
type Chains = HashMap<Vec<u8>, Vec<Version>>;

/// The version store: domain → key → chain, oldest version first.
type Versions = HashMap<String, Chains>;

/// The chain of `(domain, key)`, looked up without allocating.
fn chain<'a>(versions: &'a Versions, domain: &str, key: &[u8]) -> Option<&'a [Version]> {
    versions.get(domain)?.get(key).map(Vec::as_slice)
}

#[derive(Debug, Clone)]
struct Version {
    commit_ts: u64,
    /// The value in the log's encoding (`None` is a delete): the bytes
    /// its WAL record carries, not a copy of them.
    value: Option<Arc<[u8]>>,
}

/// One write in its *decoded* shape: what a transaction stages and what
/// commit hooks are handed. The WAL and the replication stream carry it
/// encoded, as a [`LoggedWrite`], and the version store keeps only that
/// encoding of its value (DESIGN.md "A transaction's road").
#[derive(Debug, Clone)]
pub struct CommittedWrite {
    /// Model domain, e.g. `"doc/orders"`.
    pub domain: String,
    /// Key bytes.
    pub key: Vec<u8>,
    /// New value; `None` is a delete.
    pub value: Option<Value>,
}

/// A write set on its way into the store: the decoded writes, which
/// commit hooks receive, and each one's value in the log's encoding,
/// which the log step frames and the install step keeps. A commit
/// encodes its writes once, on the committer's thread; a load or a
/// replicated block keeps the bytes it read from a log.
#[derive(Debug, Default)]
pub struct WriteSet {
    writes: Vec<CommittedWrite>,
    values: Vec<Option<Arc<[u8]>>>,
}

impl WriteSet {
    /// Encode a transaction's staged writes.
    fn encode(writes: Vec<CommittedWrite>) -> WriteSet {
        let mut buf = Vec::new();
        let values = writes
            .iter()
            .map(|w| {
                buf.clear();
                encode_value(w.value.as_ref()?, &mut buf);
                Some(Arc::from(buf.as_slice()))
            })
            .collect();
        WriteSet { writes, values }
    }

    /// Decode writes read back from a log or the replication stream for
    /// the hooks, keeping their bytes for the version store.
    pub fn decode(logged: impl IntoIterator<Item = LoggedWrite>) -> Result<WriteSet> {
        let mut set = WriteSet::default();
        for w in logged {
            let value = w.value.as_deref().map(value_from_bytes).transpose()?;
            let bytes = w.value.as_deref().map(Arc::from);
            set.push(CommittedWrite { domain: w.domain, key: w.key, value }, bytes);
        }
        Ok(set)
    }

    fn push(&mut self, write: CommittedWrite, value: Option<Arc<[u8]>>) {
        self.writes.push(write);
        self.values.push(value);
    }

    /// Each write's parts as its WAL record carries them.
    fn parts(&self) -> impl Iterator<Item = WriteParts<'_>> {
        let values = self.values.iter().map(Option::as_deref);
        self.writes.iter().zip(values).map(|(w, v)| (w.domain.as_str(), w.key.as_slice(), v))
    }
}

/// One validated transaction on its way into the store: the log step
/// frames its writes under `txid`, the install step pushes them at the
/// next commit timestamp. What comes from a log already is never framed
/// again, and carries txid 0.
struct Commit<'a> {
    txid: u64,
    set: &'a WriteSet,
}

type CommitHook = Box<dyn Fn(&[CommittedWrite]) + Send + Sync>;

/// What a parked committer is woken with.
enum Wake {
    /// Leadership, handed over by the previous leader: sequence the
    /// queue, which holds this committer's own request.
    Lead,
    /// This committer's outcome; a winner gets its commit timestamp and
    /// its write set back, for its own apply step.
    Done(Result<(u64, WriteSet)>),
}

/// A committer's parking slot: the group-commit leader publishes the
/// outcome, or leadership, here and wakes the owner.
#[derive(Default)]
struct CommitSlot {
    wake: Mutex<Option<Wake>>,
    ready: Condvar,
}

impl CommitSlot {
    fn publish(&self, wake: Wake) {
        *self.wake.lock() = Some(wake);
        self.ready.notify_all();
    }

    fn wait(&self) -> Wake {
        let mut wake = self.wake.lock();
        loop {
            if let Some(w) = wake.take() {
                return w;
            }
            self.ready.wait(&mut wake);
        }
    }
}

/// One transaction's commit work, queued for the group-commit leader.
struct CommitRequest {
    txid: u64,
    start_ts: u64,
    set: WriteSet,
    /// The keys a serializable transaction read from the
    /// store (empty for a snapshot one); validated like written keys.
    reads: Vec<TxnKey>,
    slot: Arc<CommitSlot>,
}

/// The group-commit queue. Committers enqueue under this lock and the
/// first to find no leader running becomes the leader; everyone else
/// parks on their slot. A leader sequences one batch, then hands
/// leadership to the oldest committer queued behind it, or clears
/// `leader_active` if there is none. The lock is only ever held for
/// queue surgery — never across validation, WAL writes, or the apply
/// step.
#[derive(Default)]
struct GroupQueue {
    pending: Vec<CommitRequest>,
    leader_active: bool,
}

/// Snapshot of the group-commit counters (see `ADMIN STATS`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Batches a leader has sequenced.
    pub batches: u64,
    /// Transactions that went through the sequencer (winners + losers).
    pub txns: u64,
    /// Fsyncs avoided versus one-sync-per-commit: for every batch with
    /// W winning transactions, W−1 syncs were saved.
    pub fsyncs_saved: u64,
    /// Largest batch sequenced so far.
    pub max_group_size: u64,
}

/// How many snapshot timestamps [`Snapshots`] tells apart at once.
const SNAPSHOT_SLOTS: usize = 64;

/// The open snapshots: a queue of `(start_ts, count)` entries in start
/// order, one a timestamp, in a ring of fixed slots, so opening one
/// never allocates. A snapshot opens under the queue's lock, reading its
/// timestamp there, so the queue is monotone and [`Snapshots::oldest`],
/// which reads the front under the same lock, misses none opened before
/// it. It closes with one decrement of its entry's count, taking no
/// lock; entries that reached zero leave from the front. When every slot
/// is taken, a new snapshot joins the newest entry, whose older
/// timestamp only holds the vacuum horizon further back.
struct Snapshots {
    counts: [AtomicU32; SNAPSHOT_SLOTS],
    /// A leaf: nothing is taken under it.
    queue: Mutex<SnapshotQueue>,
}

/// The entries `head..tail`, by sequence number: entry `i` is in slot
/// `i % SNAPSHOT_SLOTS` of `start_ts` and of [`Snapshots::counts`].
struct SnapshotQueue {
    head: u64,
    tail: u64,
    start_ts: [u64; SNAPSHOT_SLOTS],
}

fn slot(entry: u64) -> usize {
    (entry % SNAPSHOT_SLOTS as u64) as usize
}

impl Snapshots {
    fn new() -> Snapshots {
        Snapshots {
            counts: std::array::from_fn(|_| AtomicU32::new(0)),
            queue: Mutex::new(SnapshotQueue { head: 0, tail: 0, start_ts: [0; SNAPSHOT_SLOTS] }),
        }
    }

    /// Open a snapshot at the timestamp `now` reads: the timestamp, and
    /// the entry that counts it until [`Snapshots::close`].
    fn open(&self, now: impl FnOnce() -> u64) -> (u64, u64) {
        let mut q = self.queue.lock();
        let ts = now();
        self.pop_closed(&mut q);
        let len = q.tail - q.head;
        if len == 0 || (q.start_ts[slot(q.tail - 1)] != ts && len < SNAPSHOT_SLOTS as u64) {
            let tail = q.tail;
            q.start_ts[slot(tail)] = ts;
            q.tail += 1;
        }
        let entry = q.tail - 1;
        self.counts[slot(entry)].fetch_add(1, Ordering::SeqCst);
        (ts, entry)
    }

    fn close(&self, entry: u64) {
        self.counts[slot(entry)].fetch_sub(1, Ordering::SeqCst);
    }

    /// The oldest open snapshot's timestamp; with none open, `now`.
    fn oldest(&self, now: impl FnOnce() -> u64) -> u64 {
        let mut q = self.queue.lock();
        self.pop_closed(&mut q);
        if q.head < q.tail {
            q.start_ts[slot(q.head)]
        } else {
            now()
        }
    }

    fn pop_closed(&self, q: &mut SnapshotQueue) {
        while q.head < q.tail && self.counts[slot(q.head)].load(Ordering::SeqCst) == 0 {
            q.head += 1;
        }
    }
}

struct StoreInner {
    /// Every key's version chain, under its domain (see [`Versions`]).
    /// A domain enters with its first installed write and leaves when
    /// [`MvccStore::vacuum`] empties it.
    versions: RwLock<Versions>,
    /// The commit clock and the visibility watermark in one: the highest
    /// commit timestamp whose versions are installed. `begin` snapshots
    /// read it; [`StoreInner::install`] hands out the next timestamps
    /// from it and stores the last one after the versions are in the
    /// map. That happens under `commit_mutex` and after the log step, so
    /// a snapshot never covers an uninstalled commit, and a failed or
    /// crashed log step allocates no timestamp.
    snapshot_ts: AtomicU64,
    /// The open snapshots, which [`MvccStore::vacuum`] keeps visible.
    snapshots: Snapshots,
    next_txid: AtomicU64,
    wal: Option<Arc<Wal>>,
    hooks: RwLock<Vec<CommitHook>>,
    /// The apply turn: the highest commit timestamp whose hooks have run.
    /// Commit `t` runs its hooks once this reads `t − 1` (see
    /// [`StoreInner::apply`]). A leaf: nothing is taken under it.
    applied: Mutex<u64>,
    /// Signalled whenever `applied` advances.
    turn: Condvar,
    /// Serializes batch sequencing with [`MvccStore::apply_replicated`]
    /// and [`MvccStore::load`], and guards the validate, log and install
    /// critical section. Only the group-commit leader takes it, once per
    /// batch; nobody holds it while hooks run.
    commit_mutex: Mutex<()>,
    /// The group-commit sequencer queue (see [`GroupQueue`]).
    group: Mutex<GroupQueue>,
    /// Group-commit observability counters (see [`GroupCommitStats`]).
    group_batches: AtomicU64,
    group_txns: AtomicU64,
    fsyncs_saved: AtomicU64,
    max_group_size: AtomicU64,
    aborts: AtomicU64,
    commits: AtomicU64,
    /// Latched after an unrecoverable durability failure (a failed WAL
    /// fsync): the store degrades to read-only. See [`StoreInner::latch_degraded`].
    degraded: AtomicBool,
    degraded_reason: RwLock<Option<String>>,
    /// The log position just past the last commit in the store: on a
    /// primary the read-your-writes token a session takes after its
    /// commit, on a replica how far it has applied — a position in its
    /// primary's log. Stored on every road: by the leader once its batch
    /// is installed (a committer reads it after its own apply step), and
    /// by a replicated block and a load once they are applied, so a
    /// replica's model stores hold everything below it. It follows log
    /// order; a load replaces it.
    last_commit_lsn: AtomicU64,
}

impl StoreInner {
    /// Engage the degraded read-only latch.
    ///
    /// After a failed fsync the state of the WAL tail is unknowable — the
    /// kernel may have dropped the dirty pages, so retrying the sync can
    /// "succeed" without the data ever reaching disk (the fsyncgate
    /// failure mode). The only safe continuation is to stop accepting
    /// writes entirely; reads still serve from the in-memory version
    /// store. The latch clears when the database is reopened and recovery
    /// re-establishes a trustworthy log.
    fn latch_degraded(&self, reason: &str) {
        let mut slot = self.degraded_reason.write();
        // Keep the first cause; later failures are consequences.
        if !self.degraded.swap(true, Ordering::SeqCst) {
            *slot = Some(reason.to_string());
        }
    }

    fn read_only_error(&self) -> Error {
        let reason = self
            .degraded_reason
            .read()
            .clone()
            .unwrap_or_else(|| "durability failure".into());
        Error::ReadOnly(format!("store is degraded after a durability failure: {reason}"))
    }

    // ---- group-commit sequencer -------------------------------------------
    //
    // Concurrent committers enqueue their write sets; whoever finds no
    // leader running drains the queue, validates every transaction
    // (first committer wins — within the batch, earlier queue position
    // wins), lands all surviving WAL blocks with one contiguous batch
    // append and a *single* `wal.sync()`, installs the versions, wakes
    // everyone, and hands leadership to whoever queued meanwhile. K
    // concurrent commits therefore cost one fsync instead of K, and
    // conflict detection happens per transaction at sequencing time
    // instead of each committer serializing on the version map. Every
    // winner then applies its own write set to the hooks in commit
    // order, so the next batch's log step overlaps this one's hooks.

    /// Enqueue one transaction's writes (and serializable reads), wait
    /// for the sequencing leader (possibly this thread) to publish the
    /// outcome, and apply a win: this returns only once the hooks of this
    /// commit, and so of every earlier one, have run.
    fn group_commit(
        &self,
        txid: u64,
        start_ts: u64,
        set: WriteSet,
        reads: Vec<TxnKey>,
    ) -> Result<u64> {
        let slot = Arc::new(CommitSlot::default());
        let lead = {
            let mut q = self.group.lock();
            let req = CommitRequest { txid, start_ts, set, reads, slot: Arc::clone(&slot) };
            q.pending.push(req);
            !std::mem::replace(&mut q.leader_active, true)
        };
        if lead {
            self.lead_batch();
        }
        let (commit_ts, set) = loop {
            match slot.wait() {
                Wake::Lead => self.lead_batch(),
                Wake::Done(outcome) => break outcome?,
            }
        };
        self.apply(commit_ts, &set.writes);
        Ok(commit_ts)
    }

    /// One leader turn, on a committer's thread: sequence everything
    /// queued (this committer's own request among it), then hand
    /// leadership to the oldest committer that queued meanwhile, or step
    /// down. Leading one batch only lets this committer's apply step run
    /// beside the next batch's log step, and a leader never waits for an
    /// apply turn.
    fn lead_batch(&self) {
        let batch = std::mem::take(&mut self.group.lock().pending);
        self.commit_batch(batch);
        let next = {
            let mut q = self.group.lock();
            let next = q.pending.first().map(|req| Arc::clone(&req.slot));
            q.leader_active = next.is_some();
            next
        };
        if let Some(slot) = next {
            slot.publish(Wake::Lead);
        }
    }

    /// Sequence one batch and wake its committers.
    fn commit_batch(&self, batch: Vec<CommitRequest>) {
        // Containment for injected leader crashes: if a crash failpoint
        // unwinds the batch mid-flight, fail every parked committer
        // (this batch and anything queued behind it) and step down so a
        // `catch_unwind` harness keeps a live, consistent store.
        struct UnwindGuard<'a> {
            store: &'a StoreInner,
            slots: Option<Vec<Arc<CommitSlot>>>,
        }
        impl Drop for UnwindGuard<'_> {
            fn drop(&mut self) {
                let Some(slots) = self.slots.take() else { return };
                let crashed = || Error::Storage("commit leader crashed mid-batch".into());
                for slot in &slots {
                    slot.publish(Wake::Done(Err(crashed())));
                }
                let stranded = {
                    let mut q = self.store.group.lock();
                    q.leader_active = false;
                    std::mem::take(&mut q.pending)
                };
                for req in &stranded {
                    req.slot.publish(Wake::Done(Err(crashed())));
                }
            }
        }
        let mut unwind = UnwindGuard {
            store: self,
            slots: Some(batch.iter().map(|r| Arc::clone(&r.slot)).collect()),
        };
        let outcomes = self.sequence_batch(&batch);
        // Everything that can panic (the crash failpoints) is behind us:
        // defuse the guard and publish for real.
        unwind.slots = None;
        for (req, outcome) in batch.into_iter().zip(outcomes) {
            req.slot.publish(Wake::Done(outcome.map(|commit_ts| (commit_ts, req.set))));
        }
    }

    /// Validate, log, sync, and install one batch; returns one outcome
    /// per request, in batch order. A winner's timestamp is allocated
    /// only past the last crash site, so every allocated timestamp
    /// reaches a committer that applies it.
    fn sequence_batch(&self, batch: &[CommitRequest]) -> Vec<Result<u64>> {
        self.group_batches.fetch_add(1, Ordering::SeqCst);
        self.group_txns.fetch_add(batch.len() as u64, Ordering::SeqCst);
        self.max_group_size.fetch_max(batch.len() as u64, Ordering::SeqCst);

        // Serializes with `apply_replicated` and `load`.
        let _commit_guard = self.commit_mutex.lock();
        if self.degraded.load(Ordering::SeqCst) {
            self.aborts.fetch_add(batch.len() as u64, Ordering::SeqCst);
            return batch.iter().map(|_| Err(self.read_only_error())).collect();
        }

        // First-committer-wins validation at sequencing time: a
        // transaction loses if any key it wrote — or, when
        // serializable, read — has a version committed after its
        // snapshot, or was already claimed by an earlier winner of this
        // same batch (which commits first, and which its snapshot misses).
        let mut results: Vec<Option<Result<u64>>> = batch.iter().map(|_| None).collect();
        let mut winners: Vec<usize> = Vec::with_capacity(batch.len());
        {
            let versions = self.versions.read();
            let mut claimed: std::collections::HashSet<(&str, &[u8])> =
                std::collections::HashSet::new();
            for (i, req) in batch.iter().enumerate() {
                let stale = |domain: &str, key: &[u8]| {
                    claimed.contains(&(domain, key))
                        || chain(&versions, domain, key)
                            .and_then(<[Version]>::last)
                            .is_some_and(|last| last.commit_ts > req.start_ts)
                };
                let conflict = req
                    .set
                    .writes
                    .iter()
                    .find(|w| stale(&w.domain, &w.key))
                    .map(|w| format!("write-write conflict on {}/{:?}", w.domain, w.key))
                    .or_else(|| {
                        let (domain, key) = req.reads.iter().find(|(d, k)| stale(d, k))?;
                        Some(format!("read-write conflict on {domain}/{key:?}"))
                    });
                match conflict {
                    Some(msg) => results[i] = Some(Err(Error::TxnConflict(msg))),
                    None => {
                        let written =
                            req.set.writes.iter().map(|w| (w.domain.as_str(), w.key.as_slice()));
                        claimed.extend(written);
                        winners.push(i);
                    }
                }
            }
        }
        let losers = (batch.len() - winners.len()) as u64;
        if losers > 0 {
            self.aborts.fetch_add(losers, Ordering::SeqCst);
        }
        if winners.is_empty() {
            return seal_results(results);
        }

        let commits: Vec<Commit> = winners
            .iter()
            .map(|&i| Commit { txid: batch[i].txid, set: &batch[i].set })
            .collect();
        let commit_lsn = match self.log(&commits) {
            Ok(lsn) => lsn,
            Err(e) => {
                self.aborts.fetch_add(winners.len() as u64, Ordering::SeqCst);
                for &i in &winners {
                    results[i] = Some(Err(e.clone()));
                }
                return seal_results(results);
            }
        };
        // The durability point has passed: a crash-only site.
        mmdb_fault::fail_point!("txn.group_commit.after_sync");

        self.commits.fetch_add(winners.len() as u64, Ordering::SeqCst);
        self.fsyncs_saved.fetch_add(winners.len() as u64 - 1, Ordering::SeqCst);
        // Contiguous commit timestamps in batch order.
        let first_ts = self.install(&commits);
        if let Some(lsn) = commit_lsn {
            self.last_commit_lsn.store(lsn, Ordering::SeqCst);
        }
        for (&i, commit_ts) in winners.iter().zip(first_ts..) {
            results[i] = Some(Ok(commit_ts));
        }
        seal_results(results)
    }

    /// The log step — the only way a transaction reaches the WAL. Frames
    /// every commit as a `Begin..Commit` block from the bytes its
    /// committer encoded, lands all of them with one contiguous batch
    /// append and makes them durable with exactly one sync. Returns the
    /// LSN just past the last `Commit` record (`None` without a WAL).
    ///
    /// A failed append rejects every block cleanly (nothing ambiguous
    /// reached the log — the batch append is atomic on failure); anything
    /// that fails *after* the append leaves commit records of unknown
    /// durability in the log, which is exactly the fsyncgate condition:
    /// the store latches degraded.
    fn log(&self, commits: &[Commit]) -> Result<Option<Lsn>> {
        let Some(wal) = &self.wal else { return Ok(None) };
        let end = wal.append_blocks(commits.iter().map(|c| (c.txid, c.set.parts())))?;
        // Failpoint `txn.group_commit.before_sync`: the batch is in the
        // log but not yet durable — crash here and recovery replays it
        // (the appended bytes are in the file); error here and durability
        // is unknowable, so the store latches.
        let synced = match mmdb_fault::eval_to_error("txn.group_commit.before_sync") {
            Some(msg) => Err(Error::Storage(format!("group commit: {msg}"))),
            None => wal.sync(),
        };
        if let Err(e) = synced {
            self.latch_degraded(&e.to_string());
            return Err(e);
        }
        Ok(Some(end))
    }

    /// The install step — the only way versions enter the store and the
    /// only place commit timestamps are allocated. Gives the commits the
    /// timestamps after `snapshot_ts`, one each in order, pushes their
    /// versions under one write lock, and only then lets new snapshots
    /// cover them. Returns the first commit's timestamp; the rest follow
    /// it contiguously. The caller holds `commit_mutex` and is past the
    /// log step, so timestamps follow log order and every one allocated
    /// is installed; it must hand each one to [`StoreInner::apply`].
    /// A version shares its write's encoded value; a domain's name and a
    /// key's bytes are copied only when they start a new domain or chain.
    fn install(&self, commits: &[Commit]) -> u64 {
        let first_ts = self.snapshot_ts.load(Ordering::SeqCst) + 1;
        {
            let mut versions = self.versions.write();
            for (commit_ts, c) in (first_ts..).zip(commits) {
                for (w, value) in c.set.writes.iter().zip(&c.set.values) {
                    let version = Version { commit_ts, value: value.clone() };
                    match versions.get_mut(w.domain.as_str()) {
                        Some(chains) => push_version(chains, &w.key, version),
                        None => {
                            let mut chains = Chains::new();
                            push_version(&mut chains, &w.key, version);
                            versions.insert(w.domain.clone(), chains);
                        }
                    }
                }
            }
        }
        self.snapshot_ts.store(first_ts - 1 + commits.len() as u64, Ordering::SeqCst);
        first_ts
    }

    /// The apply step — the only caller of commit hooks, run once for
    /// every installed commit, on the thread that committed it and with
    /// no lock of the commit path held: wait until every earlier commit
    /// has been applied, hand each hook this commit's write set, pass
    /// the turn on. So the model stores take commits in commit order
    /// while the next batch is already being logged. A hook that panics
    /// still passes the turn on (a stranded turn would wedge every later
    /// commit) and latches the store read-only, because the model stores
    /// now miss a committed write.
    fn apply(&self, commit_ts: u64, writes: &[CommittedWrite]) {
        struct Turn<'a> {
            store: &'a StoreInner,
            commit_ts: u64,
        }
        impl Drop for Turn<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    let reason = format!("commit hook panicked on commit {}", self.commit_ts);
                    self.store.latch_degraded(&reason);
                }
                *self.store.applied.lock() = self.commit_ts;
                self.store.turn.notify_all();
            }
        }
        {
            let mut applied = self.applied.lock();
            while *applied < commit_ts - 1 {
                self.turn.wait(&mut applied);
            }
        }
        let _turn = Turn { store: self, commit_ts };
        for hook in self.hooks.read().iter() {
            hook(writes);
        }
    }
}

/// Make room in each domain for the keys a load brings: a run of
/// `writes` in one domain reserves its length there (a load's writes come
/// grouped by domain).
fn reserve_chains(versions: &mut Versions, writes: &[CommittedWrite]) {
    for run in writes.chunk_by(|a, b| a.domain == b.domain) {
        let domain = &run[0].domain;
        match versions.get_mut(domain.as_str()) {
            Some(chains) => chains.reserve(run.len()),
            None => {
                versions.insert(domain.clone(), Chains::with_capacity(run.len()));
            }
        }
    }
}

/// Append `version` to `key`'s chain, starting the chain if need be.
fn push_version(chains: &mut Chains, key: &[u8], version: Version) {
    match chains.get_mut(key) {
        Some(chain) => chain.push(version),
        None => {
            chains.insert(key.to_vec(), vec![version]);
        }
    }
}

/// Unwrap sequencing outcomes; a request the leader somehow never
/// decided gets an internal error instead of a panic.
fn seal_results(results: Vec<Option<Result<u64>>>) -> Vec<Result<u64>> {
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err(Error::Internal("commit request left unsequenced".into()))))
        .collect()
}

/// The shared MVCC store.
#[derive(Clone)]
pub struct MvccStore {
    inner: Arc<StoreInner>,
}

/// A handle that does not keep the store alive: how a commit hook,
/// which the store owns, reaches back into it.
pub struct WeakMvccStore {
    inner: std::sync::Weak<StoreInner>,
}

impl WeakMvccStore {
    /// The store, unless its last strong handle is gone.
    pub fn upgrade(&self) -> Option<MvccStore> {
        self.inner.upgrade().map(|inner| MvccStore { inner })
    }
}

impl Default for MvccStore {
    fn default() -> Self {
        Self::new(None)
    }
}

impl MvccStore {
    /// New store; pass a WAL for durability.
    pub fn new(wal: Option<Arc<Wal>>) -> Self {
        MvccStore {
            inner: Arc::new(StoreInner {
                versions: RwLock::new(HashMap::new()),
                snapshot_ts: AtomicU64::new(1),
                snapshots: Snapshots::new(),
                next_txid: AtomicU64::new(1),
                wal,
                hooks: RwLock::with_rank(lock_rank::TXN_HOOKS, Vec::new()),
                applied: Mutex::new(1),
                turn: Condvar::new(),
                commit_mutex: Mutex::with_rank(lock_rank::TXN_COMMIT, ()),
                group: Mutex::new(GroupQueue::default()),
                group_batches: AtomicU64::new(0),
                group_txns: AtomicU64::new(0),
                fsyncs_saved: AtomicU64::new(0),
                max_group_size: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
                commits: AtomicU64::new(0),
                degraded: AtomicBool::new(false),
                degraded_reason: RwLock::new(None),
                last_commit_lsn: AtomicU64::new(0),
            }),
        }
    }

    /// A weak handle to this store (see [`WeakMvccStore`]).
    pub fn downgrade(&self) -> WeakMvccStore {
        WeakMvccStore { inner: Arc::downgrade(&self.inner) }
    }

    /// Register a commit hook, run with the write set of every commit
    /// installed after this call: in commit order, on the committing
    /// thread, before its `commit` returns. A hook cannot return an
    /// error; one that fails latches the store read-only through a
    /// [`WeakMvccStore`], and one that panics latches it too.
    pub fn add_commit_hook(&self, hook: impl Fn(&[CommittedWrite]) + Send + Sync + 'static) {
        self.inner.hooks.write().push(Box::new(hook));
    }

    /// Begin a transaction.
    pub fn begin(&self, isolation: IsolationLevel) -> Transaction {
        let (start_ts, snapshot) = self.inner.snapshots.open(|| self.now());
        Transaction {
            store: self.inner.clone(),
            txid: self.inner.next_txid.fetch_add(1, Ordering::SeqCst),
            start_ts,
            snapshot,
            reads: (isolation == IsolationLevel::Serializable).then(RefCell::default),
            writes: Vec::new(),
            closed: false,
        }
    }

    /// Latest committed value (outside any transaction), decoded after
    /// the version store's lock is released.
    pub fn get_latest(&self, domain: &str, key: &[u8]) -> Result<Option<Value>> {
        let bytes = chain(&self.inner.versions.read(), domain, key)
            .and_then(<[Version]>::last)
            .and_then(|v| v.value.clone());
        bytes.as_deref().map(value_from_bytes).transpose()
    }

    /// Run `f` inside a transaction, retrying on conflict up to
    /// `max_retries` times (the canonical SI client loop).
    pub fn run<T>(
        &self,
        isolation: IsolationLevel,
        max_retries: usize,
        mut f: impl FnMut(&mut Transaction) -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 0;
        loop {
            let mut txn = self.begin(isolation);
            match f(&mut txn).and_then(|v| txn.commit().map(|_| v)) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < max_retries => {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// True once the store has latched into degraded read-only mode after
    /// an unrecoverable durability failure. Reads keep serving; writes and
    /// commits fail fast with a `read_only` error. Reopening the database
    /// (which rebuilds the store via WAL recovery) clears the condition.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::SeqCst)
    }

    /// The first durability failure that latched degraded mode, if any.
    pub fn degraded_reason(&self) -> Option<String> {
        self.inner.degraded_reason.read().clone()
    }

    /// Deliberately engage the read-only latch — the same mechanism a
    /// durability failure trips, reused by read replicas so that local
    /// writes fail fast with `read_only` while replicated applies (which
    /// bypass the latch) keep landing. There is no unlatch: a replica
    /// stays read-only for the life of the process.
    pub fn latch_read_only(&self, reason: &str) {
        self.inner.latch_degraded(reason);
    }

    /// Group-commit sequencer counters (batches, txns sequenced, fsyncs
    /// saved, largest batch).
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            batches: self.inner.group_batches.load(Ordering::SeqCst),
            txns: self.inner.group_txns.load(Ordering::SeqCst),
            fsyncs_saved: self.inner.fsyncs_saved.load(Ordering::SeqCst),
            max_group_size: self.inner.max_group_size.load(Ordering::SeqCst),
        }
    }

    /// `(commits, aborts)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.inner.commits.load(Ordering::SeqCst),
            self.inner.aborts.load(Ordering::SeqCst),
        )
    }

    /// Drop versions no open snapshot can see, and a domain left with no
    /// chain: of each chain, every version older than the newest one at
    /// or before the horizon — the oldest open snapshot's timestamp, or
    /// [`MvccStore::now`] with none open — and a lone tombstone at or
    /// before it.
    pub fn vacuum(&self) -> usize {
        let horizon = self.inner.snapshots.oldest(|| self.now());
        let mut versions = self.inner.versions.write();
        let mut dropped = 0;
        versions.retain(|_, chains| {
            chains.retain(|_, chain| {
                // Keep the newest version at-or-before the horizon plus
                // everything after it.
                if let Some(keep_from) = chain.iter().rposition(|v| v.commit_ts <= horizon) {
                    dropped += keep_from;
                    chain.drain(..keep_from);
                }
                // Fully-deleted, single-tombstone chains can go entirely.
                if chain.len() == 1 && chain[0].value.is_none() && chain[0].commit_ts <= horizon {
                    dropped += 1;
                    return false;
                }
                true
            });
            !chains.is_empty()
        });
        dropped
    }

    /// Current visible logical time: the highest commit timestamp whose
    /// versions are fully installed.
    pub fn now(&self) -> u64 {
        self.inner.snapshot_ts.load(Ordering::SeqCst)
    }

    /// The log position just past the last installed commit (0 before
    /// any). On a primary, a session that reads this right after its own
    /// commit holds a read-your-writes token: any replica that has applied
    /// up to this LSN has the session's writes. On a replica it is how far
    /// the replica has applied, in its primary's log.
    pub fn last_commit_lsn(&self) -> Lsn {
        self.inner.last_commit_lsn.load(Ordering::SeqCst)
    }

    /// Install and apply one transaction a replica has already appended
    /// to its own log, verbatim at its primary's positions: `end_lsn` is
    /// the position just past the records it landed with, and becomes the
    /// watermark once the block is applied. Bypasses conflict validation (the primary already
    /// serialized the log) and the read-only latch. No log step and no
    /// txid: the log holds the block already, and its bytes are what the
    /// versions keep ([`WriteSet::decode`]). An empty write set (a run
    /// that carried only a checkpoint marker) moves the watermark alone.
    /// Returns the commit timestamp (the current one for an empty set).
    pub fn apply_replicated(&self, writes: WriteSet, end_lsn: Lsn) -> u64 {
        let inner = &self.inner;
        if writes.writes.is_empty() {
            inner.last_commit_lsn.store(end_lsn, Ordering::SeqCst);
            return self.now();
        }
        let commit_ts = {
            let _guard = inner.commit_mutex.lock();
            inner.commits.fetch_add(1, Ordering::SeqCst);
            inner.install(&[Commit { txid: 0, set: &writes }])
        };
        inner.apply(commit_ts, &writes.writes);
        inner.last_commit_lsn.store(end_lsn, Ordering::SeqCst);
        commit_ts
    }

    /// Replace this store's state with `state`, a whole folded state —
    /// what recovery decodes from the log's fold, or the image block a
    /// replica resets onto — as one install and one apply, so readers see
    /// the old state until the new one lands whole. Live keys `state`
    /// lacks get tombstones ahead of `state`'s writes, in reverse
    /// load-class order (index definitions first, edges before their
    /// vertices, container definitions last), so a ghost container is
    /// gone before `state` defines its name, maybe as another kind; an
    /// empty store (a reopen) has none, and the diff is skipped. `lsn`, the log position `state` stands
    /// for, becomes the watermark once it is applied. Nothing is logged: `state` came from a
    /// log, and the versions keep its bytes. Returns the number of keys in `state`.
    ///
    /// Cascades the model stores ran on the history are not re-run: a raw
    /// `ddl/table` delete leaves the table's rows live, and an edge whose
    /// vertex a raw transaction deleted reaches the hook without it (the
    /// view takes it, dangling, as the log holds it). Sessions can drop
    /// neither a table nor a vertex, so only raw [`MvccStore::begin`]
    /// writes reach either case.
    pub fn load(&self, state: WriteSet, lsn: Lsn) -> usize {
        let inner = &self.inner;
        let live = state.writes.len();
        let (commit_ts, writes) = {
            let _guard = inner.commit_mutex.lock();
            let mut writes = state;
            let versions = inner.versions.read();
            if !versions.is_empty() {
                let incoming: std::collections::HashSet<(&str, &[u8])> =
                    writes.writes.iter().map(|w| (w.domain.as_str(), w.key.as_slice())).collect();
                let mut doomed: Vec<CommittedWrite> = versions
                    .iter()
                    .flat_map(|(domain, chains)| {
                        chains.iter().map(move |(key, c)| (domain, key, c))
                    })
                    .filter(|(domain, key, chain)| {
                        chain.last().is_some_and(|v| v.value.is_some())
                            && !incoming.contains(&(domain.as_str(), key.as_slice()))
                    })
                    .map(|(domain, key, _)| CommittedWrite {
                        domain: domain.clone(),
                        key: key.clone(),
                        value: None,
                    })
                    .collect();
                drop(incoming);
                doomed.sort_by(|a, b| {
                    (std::cmp::Reverse(load_class(&a.domain)), &a.domain, &a.key)
                        .cmp(&(std::cmp::Reverse(load_class(&b.domain)), &b.domain, &b.key))
                });
                writes.values.splice(0..0, std::iter::repeat_n(None, doomed.len()));
                writes.writes.splice(0..0, doomed);
            }
            drop(versions);
            reserve_chains(&mut inner.versions.write(), &writes.writes);
            (inner.install(&[Commit { txid: 0, set: &writes }]), writes)
        };
        inner.apply(commit_ts, &writes.writes);
        inner.last_commit_lsn.store(lsn, Ordering::SeqCst);
        live
    }
}

/// An open transaction.
pub struct Transaction {
    store: Arc<StoreInner>,
    txid: u64,
    start_ts: u64,
    /// The entry of [`StoreInner::snapshots`] that counts this snapshot.
    snapshot: u64,
    /// `Some` for a serializable transaction: the keys it
    /// read from the store, validated at commit. A `RefCell` because
    /// reads take `&self`.
    reads: Option<RefCell<Vec<TxnKey>>>,
    writes: Vec<CommittedWrite>,
    closed: bool,
}

impl Transaction {
    /// This transaction's id.
    pub fn id(&self) -> u64 {
        self.txid
    }

    /// The snapshot timestamp.
    pub fn start_ts(&self) -> u64 {
        self.start_ts
    }

    fn check_open(&self) -> Result<()> {
        if self.closed {
            return Err(Error::TxnClosed(format!("transaction {} is closed", self.txid)));
        }
        Ok(())
    }

    /// Read a key in the log's encoding: own writes first, encoded on the
    /// way out, then the snapshot's version, whose shared bytes come back
    /// as they are — no copy, no decode. A serializable transaction
    /// records every key it reads of the store for validation at commit.
    pub fn get_encoded(&self, domain: &str, key: &[u8]) -> Result<Option<Arc<[u8]>>> {
        self.check_open()?;
        if let Some(w) = self.own_write(domain, key) {
            return Ok(w.value.as_ref().map(|v| value_to_bytes(v).into()));
        }
        Ok(self.read_snapshot(domain, key, |v| v.value.clone()).flatten())
    }

    /// Read a key: [`Transaction::get_encoded`], decoded after the version
    /// store's lock is released.
    pub fn get(&self, domain: &str, key: &[u8]) -> Result<Option<Value>> {
        self.get_encoded(domain, key)?.as_deref().map(value_from_bytes).transpose()
    }

    /// Whether [`Transaction::get`] would return a value, without decoding
    /// it: the same visibility, and the same read recorded.
    pub fn contains(&self, domain: &str, key: &[u8]) -> Result<bool> {
        self.check_open()?;
        if let Some(w) = self.own_write(domain, key) {
            return Ok(w.value.is_some());
        }
        Ok(self.read_snapshot(domain, key, |v| v.value.is_some()).unwrap_or(false))
    }

    /// `f` of the newest version of a key this snapshot sees, under the
    /// version store's read lock; a serializable transaction records the
    /// read.
    fn read_snapshot<T>(
        &self,
        domain: &str,
        key: &[u8],
        f: impl FnOnce(&Version) -> T,
    ) -> Option<T> {
        let seen = chain(&self.store.versions.read(), domain, key)
            .and_then(|c| c.iter().rev().find(|v| v.commit_ts <= self.start_ts))
            .map(f);
        if let Some(reads) = &self.reads {
            reads.borrow_mut().push((domain.to_string(), key.to_vec()));
        }
        seen
    }

    /// Whether a key holds a value: in this transaction's own writes,
    /// then in the newest committed version — not the snapshot. This is a
    /// constraint check, not a read (nothing is recorded for serializable
    /// validation): it asks what the commit will land on, which is the
    /// latest state, and a key committed after `start_ts` counts.
    pub fn exists_latest(&self, domain: &str, key: &[u8]) -> Result<bool> {
        self.check_open()?;
        if let Some(w) = self.own_write(domain, key) {
            return Ok(w.value.is_some());
        }
        let versions = self.store.versions.read();
        let last = chain(&versions, domain, key).and_then(<[Version]>::last);
        Ok(last.is_some_and(|v| v.value.is_some()))
    }

    fn own_write(&self, domain: &str, key: &[u8]) -> Option<&CommittedWrite> {
        self.writes.iter().rev().find(|w| w.domain == domain && w.key == key)
    }

    /// Buffer a write.
    pub fn put(&mut self, domain: &str, key: &[u8], value: Value) -> Result<()> {
        self.write(domain, key, Some(value))
    }

    /// Buffer a delete.
    pub fn delete(&mut self, domain: &str, key: &[u8]) -> Result<()> {
        self.write(domain, key, None)
    }

    fn write(&mut self, domain: &str, key: &[u8], value: Option<Value>) -> Result<()> {
        self.check_open()?;
        if self.store.degraded.load(Ordering::SeqCst) {
            return Err(self.store.read_only_error());
        }
        self.writes.push(CommittedWrite { domain: domain.to_string(), key: key.to_vec(), value });
        Ok(())
    }

    /// Number of buffered writes.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Commit. On `TxnConflict` the transaction is rolled back and should
    /// be retried by the caller.
    ///
    /// The heavy lifting happens in the group-commit sequencer: this
    /// thread enqueues its write set (and, when serializable, its read
    /// set) and either leads the batch or parks until a leader publishes
    /// the outcome, then runs the commit hooks on its writes in commit
    /// order (see `StoreInner::group_commit`): once this returns, the
    /// model stores hold this commit and every earlier one. A read-only
    /// transaction returns here unvalidated even when serializable: it
    /// read one committed prefix of the commit order, its snapshot.
    pub fn commit(mut self) -> Result<u64> {
        self.check_open()?;
        self.closed = true;
        if self.writes.is_empty() {
            return Ok(self.start_ts);
        }
        // Writes staged before the degraded latch engaged must not reach
        // the (untrustworthy) WAL either.
        if self.store.degraded.load(Ordering::SeqCst) {
            self.store.aborts.fetch_add(1, Ordering::SeqCst);
            return Err(self.store.read_only_error());
        }
        // Failpoint `txn.group_commit.enqueue`: a crash or error here loses
        // the transaction entirely — the request never reached a leader,
        // and nothing has reached the log.
        if let Some(msg) = mmdb_fault::eval_to_error("txn.group_commit.enqueue") {
            self.store.aborts.fetch_add(1, Ordering::SeqCst);
            return Err(Error::Storage(format!("commit enqueue: {msg}")));
        }
        // Encoded here, on the committer's thread, so the sequencer's
        // serial section only frames and installs bytes.
        let set = WriteSet::encode(std::mem::take(&mut self.writes));
        let mut reads = self.reads.take().map(RefCell::into_inner).unwrap_or_default();
        reads.sort_unstable();
        reads.dedup();
        self.store.group_commit(self.txid, self.start_ts, set, reads)
    }

    /// Abort: discard buffered writes.
    pub fn abort(mut self) {
        self.abort_in_place();
    }

    /// Shared abort path. Also runs on [`Drop`], so a transaction that goes
    /// out of scope uncommitted (a crashed request handler, a client that
    /// disconnected mid-transaction) ends like an explicit `ABORT`.
    /// Nothing is logged: writes are buffered here until a commit leader
    /// lands `Begin..Commit`, so the WAL has never seen this transaction —
    /// and an append would wait out whichever fsync holds the log, on a
    /// thread (a connection's reader) that must not.
    fn abort_in_place(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.store.aborts.fetch_add(1, Ordering::SeqCst);
        self.writes.clear();
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        self.abort_in_place();
        self.store.snapshots.close(self.snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_storage::wal;

    fn store() -> MvccStore {
        MvccStore::new(None)
    }

    /// Every committed block `wal` holds, read record by record.
    fn committed_blocks(wal: &Wal) -> Vec<wal::CommittedBlock> {
        let bytes = wal.snapshot_bytes().unwrap();
        let mut blocks = wal::BlockAssembler::default();
        wal::records(&bytes, 0).filter_map(|t| blocks.push(t.record, t.next_lsn)).collect()
    }

    /// Load `wal`'s committed blocks into `s` the way `Database::open`
    /// loads a reopened log: folded, decoded, at the tail. Returns the
    /// number of live keys.
    fn reload(s: &MvccStore, wal: &Wal) -> usize {
        let mut state = wal::Fold::default();
        committed_blocks(wal).into_iter().flat_map(|b| b.writes).for_each(|w| state.push(w));
        s.load(WriteSet::decode(state.into_writes()).unwrap(), wal.tail_lsn())
    }

    /// The lock-rank witness (`mmdb_types::lock_rank`) is live on the
    /// engine's own locks: `versions` is a leaf, a commit takes the
    /// sequencer's locks. Debug only — without the witness this is the
    /// self-deadlock it reports (the leader installs under `versions.write()`).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order violation")]
    fn committing_while_holding_versions_trips_the_lock_witness() {
        let s = store();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/cart", b"1", Value::int(1)).unwrap();
        let _versions = s.inner.versions.read();
        let _ = t.commit();
    }

    /// The hot-thread witness is live on the commit path: a thread that
    /// has declared it never waits may close a transaction that staged
    /// nothing, but not lead (or park for) a batch. Debug only.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "\"test.reader\" must never wait, but is acquiring \"txn.commit_mutex\" (rank 40)"
    )]
    fn a_hot_thread_may_close_a_read_but_not_commit_writes() {
        let s = store();
        let _hot = parking_lot::hot_thread("test.reader");
        let r = s.begin(IsolationLevel::Snapshot);
        assert_eq!(r.get("kv/cart", b"1").unwrap(), None);
        r.commit().unwrap();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/cart", b"1", Value::int(1)).unwrap();
        let _ = t.commit();
    }

    /// ...while a serializable transaction never waits before commit: a
    /// hot thread reads and stages one on a key another open serializable
    /// transaction has written. Debug only.
    #[test]
    #[cfg(debug_assertions)]
    fn a_hot_thread_may_read_and_stage_a_serializable_transaction() {
        let s = store();
        let mut other = s.begin(IsolationLevel::Serializable);
        other.put("kv/cart", b"1", Value::int(1)).unwrap();
        let _hot = parking_lot::hot_thread("test.reader");
        let mut t = s.begin(IsolationLevel::Serializable);
        assert_eq!(t.get("kv/cart", b"1").unwrap(), None);
        t.put("kv/cart", b"1", Value::int(2)).unwrap();
        assert_eq!(t.get("kv/cart", b"1").unwrap(), Some(Value::int(2)));
        t.abort();
        other.abort();
    }

    #[test]
    fn degraded_latch_rejects_writes_but_keeps_reads() {
        let s = store();
        assert!(!s.is_degraded());
        assert!(s.degraded_reason().is_none());
        // Seed a committed value, then stage a write in a transaction that
        // opened *before* the latch engages.
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/cart", b"1", Value::str("before")).unwrap();
        t.commit().unwrap();
        let mut straddler = s.begin(IsolationLevel::Snapshot);
        straddler.put("kv/cart", b"2", Value::str("staged")).unwrap();

        s.inner.latch_degraded("fsync: disk on fire");
        assert!(s.is_degraded());
        assert_eq!(s.degraded_reason().as_deref(), Some("fsync: disk on fire"));

        // New writes fail fast with read_only.
        let mut w = s.begin(IsolationLevel::Snapshot);
        let err = w.put("kv/cart", b"3", Value::int(1)).unwrap_err();
        assert_eq!(err.kind(), "read_only");
        assert!(!err.is_retryable());
        // The straddling transaction cannot sneak its staged writes in.
        assert_eq!(straddler.commit().unwrap_err().kind(), "read_only");
        // Reads keep serving, both latest-committed and transactional.
        assert_eq!(s.get_latest("kv/cart", b"1").unwrap(), Some(Value::str("before")));
        let r = s.begin(IsolationLevel::Snapshot);
        assert_eq!(r.get("kv/cart", b"1").unwrap(), Some(Value::str("before")));
        // Read-only transactions still commit (nothing to make durable).
        r.commit().unwrap();
        // The first reason sticks even if a second failure latches again.
        s.inner.latch_degraded("a later consequence");
        assert_eq!(s.degraded_reason().as_deref(), Some("fsync: disk on fire"));
    }

    #[test]
    fn read_your_writes_and_commit_visibility() {
        let s = store();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/cart", b"1", Value::str("34e5e759")).unwrap();
        assert_eq!(t.get("kv/cart", b"1").unwrap(), Some(Value::str("34e5e759")));
        assert_eq!(s.get_latest("kv/cart", b"1").unwrap(), None, "uncommitted is invisible");
        t.commit().unwrap();
        assert_eq!(s.get_latest("kv/cart", b"1").unwrap(), Some(Value::str("34e5e759")));
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let s = store();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        setup.put("d", b"k", Value::int(1)).unwrap();
        setup.commit().unwrap();

        let reader = s.begin(IsolationLevel::Snapshot);
        assert_eq!(reader.get("d", b"k").unwrap(), Some(Value::int(1)));

        let mut writer = s.begin(IsolationLevel::Snapshot);
        writer.put("d", b"k", Value::int(2)).unwrap();
        writer.commit().unwrap();

        // The old snapshot still sees 1.
        assert_eq!(reader.get("d", b"k").unwrap(), Some(Value::int(1)));
        assert_eq!(s.get_latest("d", b"k").unwrap(), Some(Value::int(2)));
    }

    #[test]
    fn first_committer_wins() {
        let s = store();
        let mut t1 = s.begin(IsolationLevel::Snapshot);
        let mut t2 = s.begin(IsolationLevel::Snapshot);
        t1.put("d", b"k", Value::int(1)).unwrap();
        t2.put("d", b"k", Value::int(2)).unwrap();
        t1.commit().unwrap();
        let e = t2.commit().unwrap_err();
        assert!(e.is_retryable());
        assert_eq!(s.get_latest("d", b"k").unwrap(), Some(Value::int(1)));
        let (commits, aborts) = s.stats();
        assert_eq!((commits, aborts), (1, 1));
    }

    #[test]
    fn cross_model_atomicity() {
        // The UniBench Workload C shape: one txn touches four domains.
        let s = store();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("rel/customers", b"1", Value::int(4500)).unwrap();
        t.put("kv/cart", b"1", Value::str("o1")).unwrap();
        t.put("doc/orders", b"o1", Value::object([("total", Value::int(500))])).unwrap();
        t.put("graph/ordered", b"1->o1", Value::Bool(true)).unwrap();
        t.commit().unwrap();
        for (d, k) in [
            ("rel/customers", b"1".as_slice()),
            ("kv/cart", b"1"),
            ("doc/orders", b"o1"),
            ("graph/ordered", b"1->o1"),
        ] {
            assert!(s.get_latest(d, k).unwrap().is_some(), "{d} missing");
        }
        // And an aborted txn leaves nothing anywhere.
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("rel/customers", b"2", Value::int(1)).unwrap();
        t.put("doc/orders", b"o2", Value::Null).unwrap();
        t.abort();
        assert_eq!(s.get_latest("rel/customers", b"2").unwrap(), None);
    }

    #[test]
    fn deletes_are_versions() {
        let s = store();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("d", b"k", Value::int(1)).unwrap();
        t.commit().unwrap();
        let old_reader = s.begin(IsolationLevel::Snapshot);
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.delete("d", b"k").unwrap();
        t.commit().unwrap();
        assert_eq!(s.get_latest("d", b"k").unwrap(), None);
        assert_eq!(old_reader.get("d", b"k").unwrap(), Some(Value::int(1)));
    }

    #[test]
    fn closed_transactions_reject_use() {
        let s = store();
        let t = s.begin(IsolationLevel::Snapshot);
        let id = t.id();
        t.commit().unwrap();
        let t2 = s.begin(IsolationLevel::Snapshot);
        assert!(t2.id() > id);
        // commit consumes; dropping without commit aborts implicitly.
        let t3 = s.begin(IsolationLevel::Snapshot);
        drop(t3);
        let (_, aborts) = s.stats();
        assert_eq!(aborts, 1);
    }

    #[test]
    fn drop_aborts_like_explicit_abort() {
        // A write transaction that falls out of scope (handler panic,
        // client disconnect) must end like `abort()`: nothing installed,
        // the abort counted — and no WAL bytes, because the log never saw
        // the transaction begin.
        let wal = Arc::new(Wal::in_memory());
        let s = MvccStore::new(Some(Arc::clone(&wal)));
        {
            let mut t = s.begin(IsolationLevel::Serializable);
            t.put("doc/orders", b"orphan", Value::int(1)).unwrap();
        } // dropped uncommitted
        let mut t = s.begin(IsolationLevel::Serializable);
        t.put("doc/orders", b"orphan-2", Value::int(1)).unwrap();
        t.abort();
        assert_eq!(s.get_latest("doc/orders", b"orphan").unwrap(), None);
        assert_eq!(s.get_latest("doc/orders", b"orphan-2").unwrap(), None);
        let (_, aborts) = s.stats();
        assert_eq!(aborts, 2);
        assert!(wal.snapshot_bytes().unwrap().is_empty(), "an abort leaves no WAL trace");
        // Read-only drops stay cheap: no WAL record is appended for them.
        drop(s.begin(IsolationLevel::Snapshot));
        assert!(wal.snapshot_bytes().unwrap().is_empty());
    }

    #[test]
    fn run_retries_conflicts() {
        let s = store();
        let mut t0 = s.begin(IsolationLevel::Snapshot);
        t0.put("d", b"counter", Value::int(0)).unwrap();
        t0.commit().unwrap();
        // Interleave two increments manually to force one conflict, then
        // verify `run` retries to success.
        let s2 = s.clone();
        let result = s.run(IsolationLevel::Snapshot, 5, |t| {
            let v = t.get("d", b"counter")?.unwrap_or(Value::int(0)).as_int()?;
            // Sneak in a competing committed write on the first attempt.
            if v == 0 {
                let mut rogue = s2.begin(IsolationLevel::Snapshot);
                rogue.put("d", b"counter", Value::int(100)).unwrap();
                let _ = rogue.commit();
            }
            t.put("d", b"counter", Value::int(v + 1))?;
            Ok(())
        });
        result.unwrap();
        assert_eq!(s.get_latest("d", b"counter").unwrap(), Some(Value::int(101)));
    }

    #[test]
    fn serializable_write_skew_on_one_thread_aborts_the_second_committer() {
        // Both read A and B, each writes one: under SI both would commit.
        // Nothing waits, so one thread can run both; the first commit
        // wins and the second fails on the key the first one wrote.
        let s = store();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        setup.put("d", b"A", Value::int(1)).unwrap();
        setup.put("d", b"B", Value::int(1)).unwrap();
        setup.commit().unwrap();

        let mut t1 = s.begin(IsolationLevel::Serializable);
        let mut t2 = s.begin(IsolationLevel::Serializable);
        for t in [&t1, &t2] {
            assert_eq!(t.get("d", b"A").unwrap(), Some(Value::int(1)));
            assert_eq!(t.get("d", b"B").unwrap(), Some(Value::int(1)));
        }
        t1.put("d", b"A", Value::int(0)).unwrap();
        t2.put("d", b"B", Value::int(0)).unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert_eq!(err.kind(), "txn_conflict");
        assert!(err.is_retryable());
        assert!(err.to_string().contains("read-write conflict on d/[65]"), "{err}");
        // The retry reads A's new value at a fresh snapshot and commits.
        let mut retry = s.begin(IsolationLevel::Serializable);
        assert_eq!(retry.get("d", b"A").unwrap(), Some(Value::int(0)));
        retry.put("d", b"B", Value::int(1)).unwrap();
        retry.commit().unwrap();
    }

    #[test]
    fn serializable_prevents_write_skew() {
        // Classic write skew: t1 reads A writes B, t2 reads B writes A.
        // Under SI both commit; under serializable the later committer
        // fails validation and retries against the winner's write.
        let s = store();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        setup.put("d", b"A", Value::int(1)).unwrap();
        setup.put("d", b"B", Value::int(1)).unwrap();
        setup.commit().unwrap();

        // Under SI: both commit (the anomaly).
        let mut t1 = s.begin(IsolationLevel::Snapshot);
        let mut t2 = s.begin(IsolationLevel::Snapshot);
        let a = t1.get("d", b"A").unwrap().unwrap().as_int().unwrap();
        let b = t2.get("d", b"B").unwrap().unwrap().as_int().unwrap();
        t1.put("d", b"B", Value::int(a - 1)).unwrap();
        t2.put("d", b"A", Value::int(b - 1)).unwrap();
        assert!(t1.commit().is_ok());
        assert!(t2.commit().is_ok(), "SI permits write skew");

        // Under serializable, run in threads: at least one sees the
        // other's effect.
        let s = store();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        setup.put("d", b"A", Value::int(1)).unwrap();
        setup.put("d", b"B", Value::int(1)).unwrap();
        setup.commit().unwrap();
        let s1 = s.clone();
        let h1 = std::thread::spawn(move || {
            s1.run(IsolationLevel::Serializable, 10, |t| {
                let a = t.get("d", b"A")?.unwrap().as_int()?;
                t.put("d", b"B", Value::int(a - 1))?;
                Ok(())
            })
        });
        let s2 = s.clone();
        let h2 = std::thread::spawn(move || {
            s2.run(IsolationLevel::Serializable, 10, |t| {
                let b = t.get("d", b"B")?.unwrap().as_int()?;
                t.put("d", b"A", Value::int(b - 1))?;
                Ok(())
            })
        });
        h1.join().unwrap().unwrap();
        h2.join().unwrap().unwrap();
        let a = s.get_latest("d", b"A").unwrap().unwrap().as_int().unwrap();
        let b = s.get_latest("d", b"B").unwrap().unwrap().as_int().unwrap();
        // The serial orders are t1;t2 → (-1,0) and t2;t1 → (0,-1); write
        // skew would give (0,0).
        assert!(
            (a, b) == (-1, 0) || (a, b) == (0, -1),
            "serializable outcome must equal a serial order, got ({a},{b})"
        );
    }

    #[test]
    fn only_a_serializable_writers_strong_reads_are_validated() {
        // A snapshot reader and a read-only serializable reader both see
        // their read overwritten before they commit, and neither of them
        // conflicts.
        let s = store();
        let mut snapshot = s.begin(IsolationLevel::Snapshot);
        let read_only = s.begin(IsolationLevel::Serializable);
        snapshot.get("d", b"k").unwrap();
        read_only.get("d", b"k").unwrap();
        let mut w = s.begin(IsolationLevel::Snapshot);
        w.put("d", b"k", Value::int(1)).unwrap();
        w.commit().unwrap();
        snapshot.put("d", b"mine", Value::int(2)).unwrap();
        snapshot.commit().unwrap();
        read_only.commit().unwrap();
    }

    #[test]
    fn wal_durability_and_recovery() {
        let wal = Arc::new(Wal::in_memory());
        let s = MvccStore::new(Some(Arc::clone(&wal)));
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("doc/orders", b"o1", Value::object([("n", Value::int(1))])).unwrap();
        t.put("kv/cart", b"c1", Value::str("o1")).unwrap();
        t.commit().unwrap();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("doc/orders", b"o2", Value::Null).unwrap();
        t.abort();
        // An overwrite and a delete-then-reinsert: replay folds both.
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("doc/orders", b"o1", Value::object([("n", Value::int(2))])).unwrap();
        t.delete("kv/cart", b"c1").unwrap();
        t.commit().unwrap();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/cart", b"c1", Value::str("o1")).unwrap();
        t.commit().unwrap();

        // "Crash": rebuild a fresh store from the log.
        let logged: usize = committed_blocks(&wal).iter().map(|b| b.writes.len()).sum();
        assert_eq!(logged, 5);
        let s2 = MvccStore::new(None);
        let replayed = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&replayed);
        s2.add_commit_hook(move |ws| {
            let seen = ws.iter().map(|w| (w.domain.clone(), w.key.clone(), w.value.is_some()));
            r2.lock().extend(seen);
        });
        let n = reload(&s2, &wal);
        assert_eq!(n, 2, "two distinct live keys");
        assert_eq!(
            *replayed.lock(),
            vec![
                ("doc/orders".to_string(), b"o1".to_vec(), true),
                ("kv/cart".to_string(), b"c1".to_vec(), true),
            ],
            "the hook sees each key once, at its first position, and no delete"
        );
        assert_eq!(
            s2.get_latest("doc/orders", b"o1").unwrap().unwrap().get_field("n"),
            &Value::int(2)
        );
        assert_eq!(s2.get_latest("kv/cart", b"c1").unwrap(), Some(Value::str("o1")));
        assert_eq!(s2.get_latest("doc/orders", b"o2").unwrap(), None, "aborted txn not replayed");
    }

    #[test]
    fn recover_installs_no_tombstone_not_even_for_an_emptied_domain() {
        let wal = Arc::new(Wal::in_memory());
        let s = MvccStore::new(Some(Arc::clone(&wal)));
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/emptied", b"a", Value::int(1)).unwrap();
        t.put("kv/emptied", b"b", Value::int(2)).unwrap();
        t.put("kv/cart", b"c1", Value::int(3)).unwrap();
        t.put("kv/cart", b"c2", Value::int(4)).unwrap();
        t.commit().unwrap();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.delete("kv/emptied", b"a").unwrap();
        t.delete("kv/emptied", b"b").unwrap();
        t.delete("kv/cart", b"c2").unwrap();
        t.commit().unwrap();

        let s2 = MvccStore::new(None);
        let replayed = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&replayed);
        s2.add_commit_hook(move |ws| {
            let seen = ws.iter().map(|w| (w.domain.clone(), w.key.clone(), w.value.is_some()));
            r2.lock().extend(seen);
        });
        assert_eq!(reload(&s2, &wal), 1, "one live key");
        assert_eq!(
            *replayed.lock(),
            vec![("kv/cart".to_string(), b"c1".to_vec(), true)],
            "every tombstone folds away, the emptied domain's too"
        );
        assert_eq!(s2.get_latest("kv/emptied", b"a").unwrap(), None);
        assert_eq!(s2.get_latest("kv/cart", b"c2").unwrap(), None);
    }

    #[test]
    fn commit_publishes_a_wal_watermark() {
        let wal = Arc::new(Wal::in_memory());
        let s = MvccStore::new(Some(Arc::clone(&wal)));
        assert_eq!(s.last_commit_lsn(), 0, "no commits, no watermark");

        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/cart", b"1", Value::str("a")).unwrap();
        t.commit().unwrap();
        let first = s.last_commit_lsn();
        assert_eq!(first, wal.tail_lsn(), "watermark sits just past the commit record");

        // Read-only commits and aborts leave the watermark alone.
        s.begin(IsolationLevel::Snapshot).commit().unwrap();
        let mut a = s.begin(IsolationLevel::Snapshot);
        a.put("kv/cart", b"2", Value::str("b")).unwrap();
        a.abort();
        assert_eq!(s.last_commit_lsn(), first);

        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/cart", b"2", Value::str("c")).unwrap();
        t.commit().unwrap();
        assert!(s.last_commit_lsn() > first, "watermark advances monotonically");
        assert_eq!(s.last_commit_lsn(), wal.tail_lsn());
    }

    fn cw(domain: &str, key: &str, value: Option<i64>) -> CommittedWrite {
        CommittedWrite { domain: domain.into(), key: key.as_bytes().to_vec(), value: value.map(Value::int) }
    }

    #[test]
    fn apply_replicated_matches_a_direct_commit() {
        // A block a replica has landed in its own log installs and applies
        // like a local commit — visible, counted, hook-visible — and logs
        // nothing: the log holds the primary's bytes already.
        let wal = Arc::new(Wal::in_memory());
        let s = MvccStore::new(Some(Arc::clone(&wal)));
        let hooked = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hooked.clone();
        s.add_commit_hook(move |ws| {
            h.fetch_add(ws.len(), Ordering::SeqCst);
        });
        let writes = vec![cw("doc/orders", "o1", Some(7)), cw("kv/cart", "c1", None)];
        let ts = s.apply_replicated(WriteSet::encode(writes), 4242);
        assert_eq!(ts, s.now());
        assert_eq!(s.get_latest("doc/orders", b"o1").unwrap(), Some(Value::int(7)));
        assert_eq!(s.get_latest("kv/cart", b"c1").unwrap(), None, "deletes replicate too");
        assert_eq!(hooked.load(Ordering::SeqCst), 2);
        assert_eq!((s.stats().0, s.last_commit_lsn()), (1, 4242));
        assert!(wal.snapshot_bytes().unwrap().is_empty(), "a replicated apply logs nothing");
        // A run that carried only a marker moves the watermark alone.
        assert_eq!(s.apply_replicated(WriteSet::default(), 5000), ts);
        assert_eq!((s.now(), s.stats().0, s.last_commit_lsn()), (ts, 1, 5000));
    }

    #[test]
    fn a_load_replaces_the_state_whole_and_tombstones_what_it_lacks() {
        let s = store();
        let mut t = s.begin(IsolationLevel::Snapshot);
        for w in [
            cw("ddl/collection", "gone", Some(0)),
            cw("ddl/bucket", "cart", Some(0)),
            cw("kv/cart", "a", Some(1)),
            cw("kv/cart", "ghost", Some(1)),
            cw("graph/g/e/knows", "e1", Some(1)),
            cw("ddl/index", "gin/gone", Some(0)),
        ] {
            t.put(&w.domain, &w.key, w.value.unwrap()).unwrap();
        }
        t.delete("kv/cart", b"deleted").unwrap();
        t.commit().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let hook = Arc::clone(&seen);
        s.add_commit_hook(move |ws| {
            let got = ws.iter().map(|w| (w.domain.clone(), w.value.is_some()));
            hook.lock().extend(got);
        });
        let reader = s.begin(IsolationLevel::Snapshot);

        let state = vec![cw("ddl/bucket", "cart", Some(0)), cw("kv/cart", "a", Some(2))];
        assert_eq!(s.load(WriteSet::encode(state), 77), 2);
        let one = |domain: &str, live: bool| (domain.to_string(), live);
        assert_eq!(
            *seen.lock(),
            [
                one("ddl/index", false),
                one("graph/g/e/knows", false),
                one("kv/cart", false),
                one("ddl/collection", false),
                one("ddl/bucket", true),
                one("kv/cart", true),
            ],
            "one apply: the tombstones in reverse load order, then the state"
        );
        assert_eq!(s.get_latest("kv/cart", b"a").unwrap(), Some(Value::int(2)));
        assert_eq!(s.get_latest("kv/cart", b"ghost").unwrap(), None);
        assert_eq!(s.get_latest("ddl/collection", b"gone").unwrap(), None);
        assert_eq!(s.last_commit_lsn(), 77);
        assert_eq!(s.stats().0, 1, "a load is not a commit");
        assert_eq!(reader.get("kv/cart", b"ghost").unwrap(), Some(Value::int(1)), "snapshots hold");
    }

    /// A failed log step allocates no commit timestamp, and neither does
    /// a crash just past the durability point: the next commit gets the
    /// previous timestamp + 1 and `now()` reads it. An allocated but
    /// never-applied timestamp would wedge every later apply. Failpoints
    /// are process-global, so `scripts/ci.sh` runs this module with the
    /// feature on and one test thread.
    #[test]
    #[cfg(feature = "failpoints")]
    fn a_failed_or_crashed_log_step_allocates_no_timestamp() {
        let s = MvccStore::new(Some(Arc::new(Wal::in_memory())));
        let commit = |v: i64| {
            let mut t = s.begin(IsolationLevel::Snapshot);
            t.put("kv/cart", b"1", Value::int(v)).unwrap();
            t.commit()
        };
        let first = commit(1).unwrap();

        mmdb_fault::set("wal.append", "error").unwrap();
        let refused = commit(2);
        mmdb_fault::clear_all();
        assert_eq!(refused.unwrap_err().kind(), "storage");
        assert!(!s.is_degraded(), "nothing reached the log, nothing to latch");
        assert_eq!(s.now(), first);

        mmdb_fault::set("txn.group_commit.after_sync", "panic").unwrap();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| commit(3)));
        mmdb_fault::clear_all();
        assert!(crashed.is_err(), "the leader crashed past the durability point");
        assert_eq!(s.now(), first, "the crashed batch holds no timestamp");

        let next = commit(4).unwrap();
        assert_eq!(next, first + 1);
        assert_eq!(s.now(), next);
        assert_eq!(s.get_latest("kv/cart", b"1").unwrap(), Some(Value::int(4)));
    }

    #[test]
    fn concurrent_committers_batch_onto_fewer_fsyncs() {
        // 8 threads × 8 commits on distinct keys: every commit succeeds,
        // and the sequencer accounting proves batching happened exactly
        // when batches formed (fsyncs_saved + batches == txns when every
        // batch commits all its members).
        let wal = Arc::new(Wal::in_memory());
        let s = MvccStore::new(Some(Arc::clone(&wal)));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..8u32 {
                        let mut txn = s.begin(IsolationLevel::Snapshot);
                        let key = format!("t{t}-{i}");
                        txn.put("kv/cart", key.as_bytes(), Value::int(i as i64)).unwrap();
                        txn.commit().unwrap();
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        let (commits, aborts) = s.stats();
        assert_eq!((commits, aborts), (64, 0));
        let g = s.group_commit_stats();
        assert_eq!(g.txns, 64);
        assert!(g.batches >= 1 && g.batches <= 64);
        assert!(g.max_group_size >= 1);
        assert_eq!(
            g.fsyncs_saved + g.batches,
            g.txns,
            "every batch of W winners saves W-1 syncs: {g:?}"
        );
        // All 64 transactions are durable and recoverable.
        let s2 = MvccStore::new(None);
        assert_eq!(reload(&s2, &wal), 64);
        assert_eq!(s2.get_latest("kv/cart", b"t7-7").unwrap(), Some(Value::int(7)));
    }

    #[test]
    fn batched_conflicts_have_exactly_one_winner() {
        // Many threads hammer the same strong key from the same snapshot:
        // exactly one can win, no matter how the sequencer batches them.
        let s = store();
        let mut seed = s.begin(IsolationLevel::Snapshot);
        seed.put("d", b"hot", Value::int(0)).unwrap();
        seed.commit().unwrap();

        let barrier = Arc::new(std::sync::Barrier::new(16));
        let threads: Vec<_> = (0..16)
            .map(|t| {
                let s = s.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut txn = s.begin(IsolationLevel::Snapshot);
                    txn.put("d", b"hot", Value::int(t)).unwrap();
                    barrier.wait();
                    txn.commit().is_ok()
                })
            })
            .collect();
        let wins = threads.into_iter().filter_map(|h| h.join().unwrap().then_some(())).count();
        assert_eq!(wins, 1, "first committer wins, all others conflict");
        let (commits, aborts) = s.stats();
        assert_eq!(commits, 2, "seed + the single winner");
        assert_eq!(aborts, 15);
    }

    #[test]
    fn batched_readers_sequenced_after_the_writer_of_their_read_lose() {
        // Sixteen serializable readers of `r` (each writing a key of its
        // own) and one writer of `r`, all from one snapshot and released
        // at once: a reader wins iff the sequencer put it before the
        // writer — a later batch sees the writer's version, the same
        // batch its claim.
        let s = store();
        let mut seed = s.begin(IsolationLevel::Snapshot);
        seed.put("d", b"r", Value::int(0)).unwrap();
        seed.commit().unwrap();
        let snapshot = s.now();

        let barrier = Arc::new(std::sync::Barrier::new(17));
        let threads: Vec<_> = (0..17)
            .map(|t| {
                let s = s.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut txn = s.begin(IsolationLevel::Serializable);
                    assert_eq!(txn.start_ts(), snapshot);
                    if t == 16 {
                        txn.put("d", b"r", Value::int(1)).unwrap();
                    } else {
                        assert_eq!(txn.get("d", b"r").unwrap(), Some(Value::int(0)));
                        txn.put("d", format!("w{t}").as_bytes(), Value::int(t)).unwrap();
                    }
                    barrier.wait();
                    txn.commit()
                })
            })
            .collect();
        let mut outcomes: Vec<Result<u64>> =
            threads.into_iter().map(|h| h.join().unwrap()).collect();
        let writer_ts = outcomes.pop().unwrap().expect("nobody else writes r");
        for outcome in outcomes {
            match outcome {
                Ok(ts) => assert!(ts < writer_ts, "a reader of r committed after its writer"),
                Err(e) => {
                    assert_eq!(e.kind(), "txn_conflict");
                    assert!(e.to_string().contains("read-write conflict on d/[114]"), "{e}");
                }
            }
        }
    }

    #[test]
    fn group_commit_losers_keep_the_store_consistent() {
        // A loser inside a batch must not poison the winners' install,
        // hooks, or the WAL (its block is never logged).
        let wal = Arc::new(Wal::in_memory());
        let s = MvccStore::new(Some(Arc::clone(&wal)));
        let mut seed = s.begin(IsolationLevel::Snapshot);
        seed.put("d", b"k", Value::int(1)).unwrap();
        seed.commit().unwrap();
        // Loser: stale snapshot of k. Winner: fresh key.
        let mut loser = s.begin(IsolationLevel::Snapshot);
        let mut seed2 = s.begin(IsolationLevel::Snapshot);
        seed2.put("d", b"k", Value::int(2)).unwrap();
        seed2.commit().unwrap();
        loser.put("d", b"k", Value::int(99)).unwrap();
        assert_eq!(loser.commit().unwrap_err().kind(), "txn_conflict");
        assert_eq!(s.get_latest("d", b"k").unwrap(), Some(Value::int(2)));
        // The loser's block never reached the log.
        let s2 = MvccStore::new(None);
        reload(&s2, &wal);
        assert_eq!(s2.get_latest("d", b"k").unwrap(), Some(Value::int(2)));
    }

    #[test]
    fn two_domains_holding_one_key_stay_apart() {
        let s = store();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/a", b"k", Value::int(1)).unwrap();
        t.put("kv/b", b"k", Value::int(2)).unwrap();
        t.commit().unwrap();
        assert_eq!(s.get_latest("kv/a", b"k").unwrap(), Some(Value::int(1)));
        assert_eq!(s.get_latest("kv/b", b"k").unwrap(), Some(Value::int(2)));
        assert_eq!(s.get_latest("kv/c", b"k").unwrap(), None);

        // Validation: a write to one domain's key conflicts with nothing
        // in the other's.
        let mut only_b = s.begin(IsolationLevel::Snapshot);
        let mut also_a = s.begin(IsolationLevel::Snapshot);
        let reads_b = s.begin(IsolationLevel::Serializable);
        assert_eq!(reads_b.get("kv/b", b"k").unwrap(), Some(Value::int(2)));
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.delete("kv/a", b"k").unwrap();
        t.commit().unwrap();
        only_b.put("kv/b", b"k", Value::int(3)).unwrap();
        only_b.commit().unwrap();
        also_a.put("kv/a", b"k", Value::int(4)).unwrap();
        assert_eq!(also_a.commit().unwrap_err().kind(), "txn_conflict");
        let mut reads_b = reads_b;
        reads_b.put("kv/c", b"k", Value::int(5)).unwrap();
        let err = reads_b.commit().unwrap_err();
        assert!(err.to_string().contains("read-write conflict on kv/b/"), "{err}");

        let r = s.begin(IsolationLevel::Snapshot);
        assert_eq!(r.get("kv/a", b"k").unwrap(), None);
        assert_eq!(r.get("kv/b", b"k").unwrap(), Some(Value::int(3)));
        assert!(!r.exists_latest("kv/a", b"k").unwrap());
        assert!(r.exists_latest("kv/b", b"k").unwrap());

        // Vacuum drops kv/a's tombstone, and kv/a with it; kv/b keeps its
        // newest version.
        assert_eq!(s.vacuum(), 3, "kv/a's two versions, kv/b's old one");
        assert!(!s.inner.versions.read().contains_key("kv/a"));
        assert_eq!(s.get_latest("kv/b", b"k").unwrap(), Some(Value::int(3)));

        // A load tombstones the key it lacks in one domain only.
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("kv/a", b"k", Value::int(6)).unwrap();
        t.commit().unwrap();
        assert_eq!(s.load(WriteSet::encode(vec![cw("kv/b", "k", Some(7))]), 9), 1);
        assert_eq!(s.get_latest("kv/a", b"k").unwrap(), None, "kv/a/k is not in the state");
        assert_eq!(s.get_latest("kv/b", b"k").unwrap(), Some(Value::int(7)));
    }

    #[test]
    fn vacuum_removes_an_emptied_domain() {
        let s = store();
        let mut t = s.begin(IsolationLevel::Snapshot);
        for domain in ["kv/gone", "kv/kept"] {
            t.put(domain, b"a", Value::int(1)).unwrap();
            t.put(domain, b"b", Value::int(1)).unwrap();
        }
        t.commit().unwrap();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.delete("kv/gone", b"a").unwrap();
        t.delete("kv/gone", b"b").unwrap();
        t.delete("kv/kept", b"a").unwrap();
        t.commit().unwrap();
        let held = s.begin(IsolationLevel::Snapshot);
        // A tombstone past the oldest open snapshot keeps its domain.
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.delete("kv/late", b"a").unwrap();
        t.commit().unwrap();

        s.vacuum();
        let domains = |s: &MvccStore| {
            let mut names: Vec<String> = s.inner.versions.read().keys().cloned().collect();
            names.sort();
            names
        };
        assert_eq!(domains(&s), ["kv/kept", "kv/late"]);
        assert_eq!(s.get_latest("kv/kept", b"b").unwrap(), Some(Value::int(1)));
        drop(held);
        s.vacuum();
        assert_eq!(domains(&s), ["kv/kept"]);
    }

    #[test]
    fn a_serializable_transaction_records_each_read_it_makes_of_the_store() {
        let s = store();
        let t = s.begin(IsolationLevel::Serializable);
        let mut w = s.begin(IsolationLevel::Snapshot);
        w.put("kv/a", b"own", Value::int(1)).unwrap();
        assert_eq!(t.get("kv/a", b"k").unwrap(), None);
        assert_eq!(t.get("kv/b", b"k").unwrap(), None);
        let recorded = t.reads.as_ref().map(|r| r.borrow().clone());
        let owned = |d: &str| (d.to_string(), b"k".to_vec());
        assert_eq!(recorded, Some(vec![owned("kv/a"), owned("kv/b")]));
        // A snapshot transaction records nothing.
        assert_eq!(w.get("kv/a", b"k").unwrap(), None);
        assert!(w.reads.is_none());
        w.commit().unwrap();
        // The recorded read of kv/b/k is validated: a commit there after
        // the snapshot fails the reader's commit.
        let mut t = t;
        t.put("kv/c", b"x", Value::int(1)).unwrap();
        let mut later = s.begin(IsolationLevel::Snapshot);
        later.put("kv/b", b"k", Value::int(2)).unwrap();
        later.commit().unwrap();
        assert_eq!(t.commit().unwrap_err().kind(), "txn_conflict");
    }

    #[test]
    fn an_encoded_read_shares_the_versions_bytes_and_encodes_an_own_write() {
        let s = store();
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("d", b"k", Value::int(1)).unwrap();
        t.commit().unwrap();
        let installed = chain(&s.inner.versions.read(), "d", b"k")
            .and_then(<[Version]>::last)
            .and_then(|v| v.value.clone())
            .unwrap();
        let r = s.begin(IsolationLevel::Snapshot);
        let read = r.get_encoded("d", b"k").unwrap().unwrap();
        assert!(Arc::ptr_eq(&read, &installed), "the version's bytes, not a copy");
        assert_eq!(r.get("d", b"k").unwrap(), Some(Value::int(1)));

        let mut w = s.begin(IsolationLevel::Snapshot);
        w.put("d", b"k", Value::float(1.0)).unwrap();
        let own = w.get_encoded("d", b"k").unwrap();
        assert_eq!(own.as_deref(), Some(&value_to_bytes(&Value::float(1.0))[..]));
        w.delete("d", b"k").unwrap();
        assert_eq!(w.get_encoded("d", b"k").unwrap(), None);
        assert_eq!(r.get_encoded("d", b"missing").unwrap(), None);
    }

    #[test]
    fn vacuum_drops_dead_versions() {
        let s = store();
        for i in 0..10 {
            let mut t = s.begin(IsolationLevel::Snapshot);
            t.put("d", b"k", Value::int(i)).unwrap();
            t.commit().unwrap();
        }
        let dropped = s.vacuum();
        assert_eq!(dropped, 9, "nine superseded versions reclaimed");
        assert_eq!(s.get_latest("d", b"k").unwrap(), Some(Value::int(9)));
        // Deleted keys vanish entirely.
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.delete("d", b"k").unwrap();
        t.commit().unwrap();
        s.vacuum();
        assert_eq!(s.get_latest("d", b"k").unwrap(), None);
    }

    #[test]
    fn vacuum_keeps_every_version_an_open_snapshot_sees() {
        let s = store();
        let write = |key: &[u8], value: Option<i64>| {
            let mut t = s.begin(IsolationLevel::Snapshot);
            match value {
                Some(v) => t.put("d", key, Value::int(v)).unwrap(),
                None => t.delete("d", key).unwrap(),
            }
            t.commit().unwrap();
        };
        write(b"k", Some(1));
        write(b"gone", Some(1));
        // Two snapshots at one timestamp, a third after a commit.
        let (first, second) = (s.begin(IsolationLevel::Snapshot), s.begin(IsolationLevel::Snapshot));
        write(b"k", Some(2));
        let third = s.begin(IsolationLevel::Snapshot);
        write(b"k", Some(3));
        write(b"gone", None);

        assert_eq!(s.vacuum(), 0, "the oldest snapshot sees the first version of each");
        for t in [&first, &second] {
            assert_eq!(t.get("d", b"k").unwrap(), Some(Value::int(1)));
            assert_eq!(t.get("d", b"gone").unwrap(), Some(Value::int(1)));
        }
        drop(first);
        assert_eq!(s.vacuum(), 0, "its twin still holds them");
        assert_eq!(second.get("d", b"k").unwrap(), Some(Value::int(1)));
        drop(second);
        assert_eq!(s.vacuum(), 1, "k's first version goes; gone's value stays for the third");
        assert_eq!(third.get("d", b"k").unwrap(), Some(Value::int(2)));
        assert_eq!(third.get("d", b"gone").unwrap(), Some(Value::int(1)));
        drop(third);
        assert_eq!(s.vacuum(), 3, "k's second version, gone's value and its tombstone");
        assert_eq!(s.get_latest("d", b"k").unwrap(), Some(Value::int(3)));
        assert_eq!(s.inner.snapshots.oldest(|| 0), 0, "commits and drops close their snapshots");
    }

    #[test]
    fn more_snapshot_timestamps_than_slots_keep_their_versions() {
        let s = store();
        let mut open = Vec::new();
        for i in 0..SNAPSHOT_SLOTS as i64 + 8 {
            let mut t = s.begin(IsolationLevel::Snapshot);
            t.put("d", b"k", Value::int(i)).unwrap();
            t.commit().unwrap();
            open.push((i, s.begin(IsolationLevel::Snapshot)));
        }
        // Closed entries behind an open one keep their slots.
        open.retain(|(i, _)| i % 2 == 0);
        s.vacuum();
        for (i, t) in &open {
            assert_eq!(t.get("d", b"k").unwrap(), Some(Value::int(*i)));
        }
        let (last, newest) = open.pop().unwrap();
        drop(open);
        s.vacuum();
        assert_eq!(newest.get("d", b"k").unwrap(), Some(Value::int(last)));
        drop(newest);
        s.vacuum();
        assert_eq!(chain(&s.inner.versions.read(), "d", b"k").map(<[Version]>::len), Some(1));
    }

    #[test]
    fn contains_answers_like_get_without_decoding() {
        let s = store();
        let mut setup = s.begin(IsolationLevel::Snapshot);
        setup.put("d", b"before", Value::int(1)).unwrap();
        setup.put("d", b"own_delete", Value::int(2)).unwrap();
        setup.commit().unwrap();
        let mut t = s.begin(IsolationLevel::Serializable);
        let mut later = s.begin(IsolationLevel::Snapshot);
        later.put("d", b"after", Value::int(3)).unwrap();
        later.commit().unwrap();
        t.put("d", b"own_put", Value::int(4)).unwrap();
        t.delete("d", b"own_delete").unwrap();

        let cases: [(&[u8], bool); 5] = [
            (b"own_put", true),
            (b"own_delete", false),
            (b"before", true),
            (b"after", false),
            (b"never", false),
        ];
        for (key, present) in cases {
            assert_eq!(t.contains("d", key).unwrap(), present, "{key:?}");
            assert_eq!(t.get("d", key).unwrap().is_some(), present, "{key:?}");
        }
        // Each asks of the store only for a key not staged here, and
        // records it as often as `get` does.
        let recorded = t.reads.as_ref().map(|r| r.borrow().clone()).unwrap();
        let owned = |k: &[u8]| ("d".to_string(), k.to_vec());
        let each_twice = [b"before".as_slice(), b"after", b"never"]
            .into_iter()
            .flat_map(|k| [owned(k), owned(k)])
            .collect::<Vec<_>>();
        assert_eq!(recorded, each_twice);
        // The recorded read of `after` is validated like a `get`'s.
        assert_eq!(t.commit().unwrap_err().kind(), "txn_conflict");
        let t = s.begin(IsolationLevel::Serializable);
        assert!(t.contains("d", b"after").unwrap());
        assert_eq!(t.reads.as_ref().map(|r| r.borrow().len()), Some(1));
    }

    /// The log step frames the bytes its committer encoded, and every road
    /// into the version store — a leader's commit, a replicated block, a
    /// recovery — keeps those same bytes, which read back as the value
    /// staged: a float's sign and NaN payload, a float beside an equal
    /// int, bytes, empty containers and strings on both sides of the
    /// inline limit.
    #[test]
    fn every_road_installs_the_logs_bytes_and_reads_back_the_staged_value() {
        use mmdb_types::Number;
        let staged: Vec<(&[u8], Option<Value>)> = vec![
            (b"neg_zero", Some(Value::float(-0.0))),
            (b"nan", Some(Value::Number(Number::Float(f64::NAN)))),
            (b"float_one", Some(Value::float(1.0))),
            (b"int_one", Some(Value::int(1))),
            (b"bytes", Some(Value::Bytes(vec![0, 255, 7]))),
            (b"empty_array", Some(Value::array([]))),
            (b"empty_object", Some(Value::Object(Default::default()))),
            (b"str22", Some(Value::str("s".repeat(22)))),
            (b"str23", Some(Value::str("s".repeat(23)))),
            (b"gone", None),
        ];
        let encoded = |v: &Option<Value>| v.as_ref().map(value_to_bytes);
        let wal = Arc::new(Wal::in_memory());
        let leader = MvccStore::new(Some(Arc::clone(&wal)));
        let mut t = leader.begin(IsolationLevel::Snapshot);
        for (key, value) in &staged {
            t.put("d", key, value.clone().unwrap_or(Value::int(0))).unwrap();
        }
        t.commit().unwrap();
        let mut t = leader.begin(IsolationLevel::Snapshot);
        t.delete("d", b"gone").unwrap();
        t.commit().unwrap();

        let mut logged = HashMap::new();
        let replica = store();
        for block in committed_blocks(&wal) {
            logged.extend(block.writes.iter().map(|w| (w.key.clone(), w.value.clone())));
            replica.apply_replicated(WriteSet::decode(block.writes).unwrap(), block.end_lsn);
        }
        assert_eq!(logged.len(), staged.len());
        let recovered = store();
        reload(&recovered, &wal);

        for (road, s) in [("leader", &leader), ("replica", &replica), ("recovery", &recovered)] {
            let installed = |key: &[u8]| {
                let versions = s.inner.versions.read();
                let last = chain(&versions, "d", key).and_then(<[Version]>::last);
                last.and_then(|v| v.value.as_deref().map(<[u8]>::to_vec))
            };
            for (key, want) in &staged {
                assert_eq!(installed(key), logged[*key], "{road}: {key:?} holds the log's bytes");
                assert_eq!(logged[*key], encoded(want), "{road}: {key:?} was logged as staged");
                let latest = s.get_latest("d", key).unwrap();
                assert_eq!(encoded(&latest), encoded(want), "{road}: get_latest of {key:?}");
            }
            let old = s.begin(IsolationLevel::Snapshot);
            let mut t = s.begin(IsolationLevel::Snapshot);
            for (key, _) in &staged {
                t.put("d", key, Value::Null).unwrap();
            }
            t.commit().unwrap();
            for (key, want) in &staged {
                let seen = old.get("d", key).unwrap();
                assert_eq!(encoded(&seen), encoded(want), "{road}: an older snapshot's {key:?}");
            }
        }
    }
}
