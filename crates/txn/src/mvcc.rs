//! Multi-version concurrency control with snapshot isolation, optional
//! serializable upgrade, WAL durability, and commit hooks.
//!
//! Every transactional key is `(domain, key-bytes)`; domains name model
//! collections (`"doc/orders"`, `"kv/cart"`, …), so one transaction spans
//! every data model — the tutorial's "cross-model transaction".
//!
//! Protocol: a transaction reads the latest version with
//! `commit_ts <= start_ts` (its snapshot) and buffers writes locally.
//! Commits go through a **group-commit sequencer**: concurrent
//! committers enqueue their write sets, one leader drains the queue,
//! runs *first-committer-wins* validation per write set (a transaction
//! loses if any strong-domain key it wrote has a version committed
//! after its snapshot, or was claimed by an earlier transaction in the
//! same batch), appends every winner's Begin/Write*/Commit block with
//! one contiguous WAL batch write, issues a **single** `wal.sync()`,
//! installs the version chains in commit order, and fires the
//! registered commit hooks so model stores can update their indexes.
//! K concurrent commits cost one fsync instead of K; losers get the
//! usual retryable conflict error.
//!
//! Logging and installing are one private step each
//! ([`StoreInner::log`], [`StoreInner::install`]): the leader, a
//! replicated apply and startup recovery all reach the WAL and the
//! version map through them (DESIGN.md "A transaction's road").

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};

use mmdb_storage::wal::{self, LoggedWrite, Lsn, Wal, WalRecord};
use mmdb_types::codec::{value_from_bytes, value_to_bytes};
use mmdb_types::{lock_rank, Error, Result, Value};

use crate::consistency::{ConsistencyLevel, ConsistencyPolicy};
use crate::locks::{LockManager, LockMode};

/// Isolation levels offered per transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Snapshot isolation (default): consistent reads, FCW write conflicts.
    #[default]
    Snapshot,
    /// Serializable: strict 2PL on reads and writes on top of the FCW
    /// check; a read sees the latest committed version, under its lock.
    Serializable,
}

/// A transactional key.
pub type TxnKey = (String, Vec<u8>);

#[derive(Debug, Clone)]
struct Version {
    commit_ts: u64,
    value: Option<Value>,
}

/// One write in its *decoded* shape: what a transaction stages, what the
/// version store installs and what commit hooks are handed. Its encoded
/// twin — in the WAL, the snapshot file and the replication stream — is
/// [`LoggedWrite`] (DESIGN.md "A transaction's road").
#[derive(Debug, Clone)]
pub struct CommittedWrite {
    /// Model domain, e.g. `"doc/orders"`.
    pub domain: String,
    /// Key bytes.
    pub key: Vec<u8>,
    /// New value; `None` is a delete.
    pub value: Option<Value>,
}

impl CommittedWrite {
    /// Decode a write read back from the log, a snapshot or the stream.
    pub fn decode(w: &LoggedWrite) -> Result<CommittedWrite> {
        let value = w.value.as_deref().map(value_from_bytes).transpose()?;
        Ok(CommittedWrite { domain: w.domain.clone(), key: w.key.clone(), value })
    }
}

/// Load order of a domain's writes when a whole state is applied at once:
/// DDL first (tables before their rows), graph edges last (edges need
/// their endpoint vertices). Deletes go in the reverse order.
fn load_class(domain: &str) -> u8 {
    if domain.starts_with("ddl/") {
        0
    } else if domain.contains("/e/") {
        2
    } else {
        1
    }
}

/// One validated transaction on its way into the store: the log step
/// reads `txid`, the install step `commit_ts`, both the same writes.
struct Commit<'a> {
    txid: u64,
    commit_ts: u64,
    writes: &'a [CommittedWrite],
}

type CommitHook = Box<dyn Fn(&[CommittedWrite]) + Send + Sync>;

/// A committer's parking slot: the group-commit leader publishes the
/// outcome here and wakes the owner.
#[derive(Default)]
struct CommitSlot {
    result: Mutex<Option<Result<u64>>>,
    ready: Condvar,
}

impl CommitSlot {
    fn publish(&self, outcome: Result<u64>) {
        *self.result.lock() = Some(outcome);
        self.ready.notify_all();
    }
}

/// One transaction's commit work, queued for the group-commit leader.
struct CommitRequest {
    txid: u64,
    start_ts: u64,
    writes: Vec<CommittedWrite>,
    slot: Arc<CommitSlot>,
}

/// The group-commit queue. Committers enqueue under this lock and the
/// first to find no leader running becomes the leader; everyone else
/// parks on their slot. The lock is only ever held for queue surgery —
/// never across validation, WAL writes, or hooks.
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

struct StoreInner {
    versions: RwLock<HashMap<TxnKey, Vec<Version>>>,
    clock: AtomicU64,
    /// Visibility watermark: the highest commit timestamp whose versions
    /// are fully installed. `begin` snapshots read this, not `clock` —
    /// the sequencer allocates timestamps *before* the WAL append and
    /// install, so a snapshot taken from `clock` in that window would
    /// cover an allocated-but-uninstalled commit and watch the key
    /// change under it mid-read. Advanced (fetch_max) only after the
    /// corresponding versions are in the map.
    snapshot_ts: AtomicU64,
    next_txid: AtomicU64,
    wal: Option<Arc<Wal>>,
    locks: LockManager,
    policy: RwLock<ConsistencyPolicy>,
    hooks: RwLock<Vec<CommitHook>>,
    /// Serializes batch sequencing with [`MvccStore::apply_replicated`]
    /// and guards the validate+install critical section. Individual
    /// committers no longer take it — only the group-commit leader does,
    /// once per batch.
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
    /// WAL position just past the most recently durable commit record —
    /// the replication watermark. Published after every commit (and bumped
    /// to the recovered tail at startup) so sessions can take
    /// read-your-writes tokens and `ADMIN STATS` can report it.
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
    // append and a *single* `wal.sync()`, installs the versions, fires
    // the hooks in commit order, and wakes everyone. K concurrent
    // commits therefore cost one fsync instead of K, and conflict
    // detection happens per write set at sequencing time instead of
    // each committer serializing on the version map.

    /// Enqueue one transaction's writes and wait for the sequencing
    /// leader (possibly this thread) to publish the outcome.
    fn group_commit(&self, txid: u64, start_ts: u64, writes: Vec<CommittedWrite>) -> Result<u64> {
        let slot = Arc::new(CommitSlot::default());
        let lead = {
            let mut q = self.group.lock();
            q.pending.push(CommitRequest { txid, start_ts, writes, slot: Arc::clone(&slot) });
            if q.leader_active {
                false
            } else {
                q.leader_active = true;
                true
            }
        };
        if lead {
            self.lead_group();
        }
        let mut r = slot.result.lock();
        loop {
            if let Some(outcome) = r.take() {
                return outcome;
            }
            slot.ready.wait(&mut r);
        }
    }

    /// Leader loop: sequence batches until the queue drains, then step
    /// down. Runs on the committer thread that found no leader active.
    fn lead_group(&self) {
        loop {
            let batch = {
                let mut q = self.group.lock();
                if q.pending.is_empty() {
                    q.leader_active = false;
                    return;
                }
                std::mem::take(&mut q.pending)
            };
            self.commit_batch(batch);
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
                    slot.publish(Err(crashed()));
                }
                let stranded = {
                    let mut q = self.store.group.lock();
                    q.leader_active = false;
                    std::mem::take(&mut q.pending)
                };
                for req in &stranded {
                    req.slot.publish(Err(crashed()));
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
        for (req, outcome) in batch.iter().zip(outcomes) {
            req.slot.publish(outcome);
        }
    }

    /// Validate, log, sync, and install one batch; returns one outcome
    /// per request, in batch order.
    fn sequence_batch(&self, batch: &[CommitRequest]) -> Vec<Result<u64>> {
        self.group_batches.fetch_add(1, Ordering::SeqCst);
        self.group_txns.fetch_add(batch.len() as u64, Ordering::SeqCst);
        self.max_group_size.fetch_max(batch.len() as u64, Ordering::SeqCst);

        // Serializes with `apply_replicated` (and keeps WAL Begin..Commit
        // blocks contiguous across the two paths).
        let _commit_guard = self.commit_mutex.lock();
        if self.degraded.load(Ordering::SeqCst) {
            self.aborts.fetch_add(batch.len() as u64, Ordering::SeqCst);
            return batch.iter().map(|_| Err(self.read_only_error())).collect();
        }

        // First-committer-wins validation at sequencing time: a write
        // set loses if any strong-domain key has a version committed
        // after its snapshot, or was already claimed by an earlier
        // winner of this same batch.
        let mut results: Vec<Option<Result<u64>>> = batch.iter().map(|_| None).collect();
        let mut winners: Vec<usize> = Vec::with_capacity(batch.len());
        {
            let policy = self.policy.read();
            let versions = self.versions.read();
            let mut claimed: std::collections::HashSet<(&str, &[u8])> =
                std::collections::HashSet::new();
            for (i, req) in batch.iter().enumerate() {
                let strong = || {
                    req.writes.iter().filter(|w| policy.level(&w.domain) == ConsistencyLevel::Strong)
                };
                let conflict = strong().find(|w| {
                    claimed.contains(&(w.domain.as_str(), w.key.as_slice()))
                        || versions
                            .get(&(w.domain.clone(), w.key.clone()))
                            .and_then(|chain| chain.last())
                            .is_some_and(|last| last.commit_ts > req.start_ts)
                });
                match conflict {
                    Some(w) => {
                        results[i] = Some(Err(Error::TxnConflict(format!(
                            "write-write conflict on {}/{:?}",
                            w.domain, w.key
                        ))));
                    }
                    None => {
                        claimed.extend(strong().map(|w| (w.domain.as_str(), w.key.as_slice())));
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

        // Contiguous commit timestamps in batch order.
        let commits: Vec<Commit> = winners
            .iter()
            .map(|&i| Commit {
                txid: batch[i].txid,
                commit_ts: self.clock.fetch_add(1, Ordering::SeqCst) + 1,
                writes: &batch[i].writes,
            })
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
        // The durability point has passed. Both crash-only sites fire
        // per batch: the legacy per-commit one (so existing schedules
        // keep covering the commit path) and the batch-scoped one.
        mmdb_fault::fail_point!("txn.commit.after_wal");
        mmdb_fault::fail_point!("txn.group_commit.after_sync");

        self.commits.fetch_add(winners.len() as u64, Ordering::SeqCst);
        self.fsyncs_saved.fetch_add(winners.len() as u64 - 1, Ordering::SeqCst);
        if let Some(lsn) = commit_lsn {
            self.last_commit_lsn.fetch_max(lsn, Ordering::SeqCst);
        }
        self.install(&commits);
        for (&i, c) in winners.iter().zip(&commits) {
            results[i] = Some(Ok(c.commit_ts));
        }
        seal_results(results)
    }

    /// The log step — the only way a transaction reaches the WAL. Frames
    /// every commit as a `Begin..Commit` block, lands all of them with one
    /// contiguous batch append and makes them durable with exactly one
    /// sync. Returns the LSN just past the last `Commit` record (`None`
    /// without a WAL).
    ///
    /// A failed append rejects every block cleanly (nothing ambiguous
    /// reached the log — the batch append is atomic on failure); anything
    /// that fails *after* the append leaves commit records of unknown
    /// durability in the log, which is exactly the fsyncgate condition:
    /// the store latches degraded.
    fn log(&self, commits: &[Commit]) -> Result<Option<Lsn>> {
        let Some(wal) = &self.wal else { return Ok(None) };
        let mut records = Vec::new();
        for c in commits {
            records.push(WalRecord::Begin { txid: c.txid });
            records.extend(c.writes.iter().map(|w| WalRecord::Write {
                txid: c.txid,
                domain: w.domain.clone(),
                key: w.key.clone(),
                value: w.value.as_ref().map(|v| value_to_bytes(v).to_vec()),
            }));
            records.push(WalRecord::Commit { txid: c.txid });
        }
        let ends = wal.append_batch(&records)?;
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
        Ok(ends.last().copied())
    }

    /// The install step — the only way versions enter the store and the
    /// only caller of commit hooks. Pushes every commit's versions under
    /// one write lock, in commit-ts order; only then lets new snapshots
    /// cover those timestamps (see `snapshot_ts` — a failed log step
    /// leaves a permanent gap between `snapshot_ts` and `clock` for the
    /// wasted allocations, which is harmless: the next install jumps the
    /// watermark past it); then hands each hook each transaction's own
    /// write slice.
    fn install(&self, commits: &[Commit]) {
        {
            let mut versions = self.versions.write();
            for c in commits {
                for w in c.writes {
                    versions
                        .entry((w.domain.clone(), w.key.clone()))
                        .or_default()
                        .push(Version { commit_ts: c.commit_ts, value: w.value.clone() });
                }
            }
        }
        if let Some(last) = commits.last() {
            self.snapshot_ts.fetch_max(last.commit_ts, Ordering::SeqCst);
        }
        let hooks = self.hooks.read();
        for c in commits {
            for h in hooks.iter() {
                h(c.writes);
            }
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
                clock: AtomicU64::new(1),
                snapshot_ts: AtomicU64::new(1),
                next_txid: AtomicU64::new(1),
                wal,
                locks: LockManager::new(),
                policy: RwLock::with_rank(lock_rank::TXN_POLICY, ConsistencyPolicy::default()),
                hooks: RwLock::with_rank(lock_rank::TXN_HOOKS, Vec::new()),
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

    /// Register a commit hook (fired after every successful commit with
    /// its write set). A hook cannot return an error; one that fails
    /// latches the store read-only through a [`WeakMvccStore`].
    pub fn add_commit_hook(&self, hook: impl Fn(&[CommittedWrite]) + Send + Sync + 'static) {
        self.inner.hooks.write().push(Box::new(hook));
    }

    /// Set the per-domain consistency policy.
    pub fn set_policy(&self, policy: ConsistencyPolicy) {
        *self.inner.policy.write() = policy;
    }

    /// Begin a transaction.
    pub fn begin(&self, isolation: IsolationLevel) -> Transaction {
        Transaction {
            store: self.inner.clone(),
            txid: self.inner.next_txid.fetch_add(1, Ordering::SeqCst),
            start_ts: self.inner.snapshot_ts.load(Ordering::SeqCst),
            isolation,
            writes: Vec::new(),
            closed: false,
        }
    }

    /// Latest committed value (outside any transaction).
    pub fn get_latest(&self, domain: &str, key: &[u8]) -> Option<Value> {
        let versions = self.inner.versions.read();
        versions
            .get(&(domain.to_string(), key.to_vec()))
            .and_then(|chain| chain.last())
            .and_then(|v| v.value.clone())
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

    /// Drop versions no live snapshot can see (all but the newest version
    /// with `commit_ts <= horizon`).
    pub fn vacuum(&self, horizon: u64) -> usize {
        let mut versions = self.inner.versions.write();
        let mut dropped = 0;
        versions.retain(|_, chain| {
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
        dropped
    }

    /// Current visible logical time (usable as a vacuum horizon): the
    /// highest commit timestamp whose versions are fully installed.
    pub fn now(&self) -> u64 {
        self.inner.snapshot_ts.load(Ordering::SeqCst)
    }

    /// Run `f` with commits quiesced: the commit mutex is held, so no
    /// group-commit batch can sequence and no replicated transaction can
    /// apply while `f` runs. This is the checkpoint window — between two
    /// commits the WAL tail and the version store agree exactly, so
    /// state extracted inside `f` is consistent with the tail LSN read
    /// inside `f`.
    pub fn quiesce_commits<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.inner.commit_mutex.lock();
        f()
    }

    /// The newest committed live value of every key, encoded (deletes are
    /// absent — a snapshot has no tombstones): what a checkpoint writes
    /// to the snapshot file and what a stale replica is bootstrapped
    /// from. Call inside [`MvccStore::quiesce_commits`] so the result is
    /// consistent with [`Wal::tail_lsn`].
    ///
    /// Ordering matters because a snapshot is replayed through the same
    /// apply path as recovery: [`load_class`] order, and (domain, key)
    /// within each class for determinism.
    pub fn latest_committed_writes(&self) -> Vec<LoggedWrite> {
        let versions = self.inner.versions.read();
        let mut out: Vec<LoggedWrite> = versions
            .iter()
            .filter_map(|((domain, key), chain)| {
                let live = chain.last()?.value.as_ref()?;
                Some(LoggedWrite {
                    domain: domain.clone(),
                    key: key.clone(),
                    value: Some(value_to_bytes(live).to_vec()),
                })
            })
            .collect();
        out.sort_by(|a, b| {
            (load_class(&a.domain), &a.domain, &a.key)
                .cmp(&(load_class(&b.domain), &b.domain, &b.key))
        });
        out
    }

    /// WAL position just past the most recently durable commit record —
    /// the replication watermark (0 before any commit). A session that
    /// reads this right after its own commit holds a read-your-writes
    /// token: any replica that has applied up to this LSN has the
    /// session's writes.
    pub fn last_commit_lsn(&self) -> Lsn {
        self.inner.last_commit_lsn.load(Ordering::SeqCst)
    }

    /// Raise the replication watermark to at least `lsn`. Called at
    /// startup (recovery leaves the watermark at the recovered log tail)
    /// and by the replica apply loop as it advances through the primary's
    /// log.
    pub fn note_commit_lsn(&self, lsn: Lsn) {
        self.inner.last_commit_lsn.fetch_max(lsn, Ordering::SeqCst);
    }

    /// Install one replicated transaction's writes, as they arrive off
    /// the primary's log stream. Bypasses conflict validation (the primary
    /// already serialized the log) and the read-only latch, takes a fresh
    /// local txid and commit timestamp, and then travels the same road as
    /// a local commit: one log step (this store's own WAL, when it has
    /// one, gets the block whole or not at all), one install step.
    pub fn apply_replicated(&self, writes: &[CommittedWrite]) -> Result<u64> {
        if writes.is_empty() {
            return Ok(self.now());
        }
        let inner = &self.inner;
        let _guard = inner.commit_mutex.lock();
        let commit = Commit {
            txid: inner.next_txid.fetch_add(1, Ordering::SeqCst),
            commit_ts: inner.clock.fetch_add(1, Ordering::SeqCst) + 1,
            writes,
        };
        inner.log(std::slice::from_ref(&commit))?;
        inner.commits.fetch_add(1, Ordering::SeqCst);
        inner.install(std::slice::from_ref(&commit));
        Ok(commit.commit_ts)
    }

    /// Install a snapshot bootstrap as a full state *replace* — the
    /// stale-replica twin of [`MvccStore::apply_replicated`]. `writes`
    /// is the primary's complete live state (snapshots carry no
    /// tombstones), so any key live in this store but absent from the
    /// snapshot was deleted on the primary inside the truncated log gap:
    /// a tombstone is synthesized for it and the combined set applies as
    /// one replicated transaction. Running the deletes through the
    /// ordinary apply path means commit hooks evict the keys from the
    /// model stores and this store's own WAL records the deletes, so a
    /// replica restart replays them too. A fresh (empty) store diffs to
    /// nothing and behaves exactly like `apply_replicated`.
    pub fn apply_snapshot_replace(&self, writes: &[CommittedWrite]) -> Result<u64> {
        let mut doomed: Vec<CommittedWrite> = Vec::new();
        {
            let incoming: std::collections::HashSet<(&str, &[u8])> =
                writes.iter().map(|w| (w.domain.as_str(), w.key.as_slice())).collect();
            let versions = self.inner.versions.read();
            for ((domain, key), chain) in versions.iter() {
                let live = chain.last().is_some_and(|v| v.value.is_some());
                if live && !incoming.contains(&(domain.as_str(), key.as_slice())) {
                    doomed.push(CommittedWrite {
                        domain: domain.clone(),
                        key: key.clone(),
                        value: None,
                    });
                }
            }
        }
        // Deletes first, in reverse load order (edges before their
        // vertices, DDL last), then the snapshot upserts.
        doomed.sort_by(|a, b| {
            (std::cmp::Reverse(load_class(&a.domain)), &a.domain, &a.key)
                .cmp(&(std::cmp::Reverse(load_class(&b.domain)), &b.domain, &b.key))
        });
        let mut combined = doomed;
        combined.extend(writes.iter().cloned());
        self.apply_replicated(&combined)
    }

    /// Apply WAL recovery output at startup: decode the redo set (snapshot
    /// state first when the caller prepended it, then the log suffix) and
    /// install it as one commit. Nothing is logged — it came from the log.
    pub fn recover(&self, recovery: &wal::Recovery) -> Result<usize> {
        let writes =
            recovery.redo.iter().map(CommittedWrite::decode).collect::<Result<Vec<_>>>()?;
        let commit_ts = self.inner.clock.fetch_add(1, Ordering::SeqCst) + 1;
        self.inner.install(&[Commit { txid: 0, commit_ts, writes: &writes }]);
        Ok(writes.len())
    }
}

/// An open transaction.
pub struct Transaction {
    store: Arc<StoreInner>,
    txid: u64,
    start_ts: u64,
    isolation: IsolationLevel,
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

    /// The isolation level this transaction was begun at.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    fn check_open(&self) -> Result<()> {
        if self.closed {
            return Err(Error::TxnClosed(format!("transaction {} is closed", self.txid)));
        }
        Ok(())
    }

    /// Read a key: own writes first, then the snapshot. Domains with
    /// `Eventual` consistency read latest-committed instead (fresher but
    /// not snapshot-stable).
    pub fn get(&self, domain: &str, key: &[u8]) -> Result<Option<Value>> {
        self.check_open()?;
        if let Some(w) = self.writes.iter().rev().find(|w| w.domain == domain && w.key == key) {
            return Ok(w.value.clone());
        }
        let tkey: TxnKey = (domain.to_string(), key.to_vec());
        if self.isolation == IsolationLevel::Serializable {
            self.store.locks.acquire(self.txid, tkey.clone(), LockMode::Shared)?;
        }
        // A serializable read holds the key's shared lock until commit, so
        // what is committed now is what it must see: its begin-time
        // snapshot may predate the writer it just waited out (a deadlock
        // victim's retry would otherwise commit the write skew).
        let latest = self.isolation == IsolationLevel::Serializable
            || self.store.policy.read().level(domain) == ConsistencyLevel::Eventual;
        let versions = self.store.versions.read();
        let chain = versions.get(&tkey);
        Ok(if latest {
            chain.and_then(|c| c.last()).and_then(|v| v.value.clone())
        } else {
            chain
                .and_then(|c| c.iter().rev().find(|v| v.commit_ts <= self.start_ts))
                .and_then(|v| v.value.clone())
        })
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
        let write = CommittedWrite { domain: domain.to_string(), key: key.to_vec(), value };
        if self.isolation == IsolationLevel::Serializable {
            let lock_key = (write.domain.clone(), write.key.clone());
            self.store.locks.acquire(self.txid, lock_key, LockMode::Exclusive)?;
        }
        self.writes.push(write);
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
    /// thread enqueues its write set and either leads the batch or parks
    /// until a leader publishes the outcome (see
    /// [`StoreInner::group_commit`]).
    pub fn commit(mut self) -> Result<u64> {
        self.check_open()?;
        self.closed = true;
        if self.writes.is_empty() {
            self.release_locks();
            return Ok(self.start_ts);
        }
        // Writes staged before the degraded latch engaged must not reach
        // the (untrustworthy) WAL either.
        if self.store.degraded.load(Ordering::SeqCst) {
            self.store.aborts.fetch_add(1, Ordering::SeqCst);
            self.release_locks();
            self.writes.clear();
            return Err(self.store.read_only_error());
        }
        // Failpoint `txn.commit.before_wal`: a crash or error here loses
        // the transaction entirely — nothing has reached the log.
        if let Some(msg) = mmdb_fault::eval_to_error("txn.commit.before_wal") {
            self.store.aborts.fetch_add(1, Ordering::SeqCst);
            self.release_locks();
            self.writes.clear();
            return Err(Error::Storage(format!("commit: {msg}")));
        }
        // Failpoint `txn.group_commit.enqueue`: same no-trace window as
        // `before_wal`, but scoped to the sequencer hand-off — a crash or
        // error here means the request never reached a leader.
        if let Some(msg) = mmdb_fault::eval_to_error("txn.group_commit.enqueue") {
            self.store.aborts.fetch_add(1, Ordering::SeqCst);
            self.release_locks();
            self.writes.clear();
            return Err(Error::Storage(format!("commit enqueue: {msg}")));
        }
        let writes = std::mem::take(&mut self.writes);
        let result = self.store.group_commit(self.txid, self.start_ts, writes);
        self.release_locks();
        result
    }

    /// Abort: discard buffered writes, release locks.
    pub fn abort(mut self) {
        self.abort_in_place();
    }

    /// Shared abort path. Also runs on [`Drop`], so a transaction that goes
    /// out of scope uncommitted (a crashed request handler, a client that
    /// disconnected mid-transaction) ends like an explicit `ABORT` and
    /// never holds locks past its lifetime. Nothing is logged: writes are
    /// buffered here until a commit leader lands `Begin..Commit`, so the
    /// WAL has never seen this transaction — and an append would wait out
    /// whichever fsync holds the log, on a thread (a connection's reader)
    /// that must not.
    fn abort_in_place(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.store.aborts.fetch_add(1, Ordering::SeqCst);
        self.writes.clear();
        self.release_locks();
    }

    fn release_locks(&self) {
        if self.isolation == IsolationLevel::Serializable {
            self.store.locks.release_all(self.txid);
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        self.abort_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MvccStore {
        MvccStore::new(None)
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

    /// ...and on the wait no static rule saw: a serializable write that
    /// must queue behind another transaction's lock parks in
    /// `LockManager::acquire`, which `put` reaches through `write`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "\"test.reader\" must never wait, but is parking on a condition variable of leaf lock \"mmdb_txn::locks::LmInner\""
    )]
    fn a_hot_thread_may_not_queue_for_a_serializable_lock() {
        let s = store();
        let mut holder = s.begin(IsolationLevel::Serializable);
        holder.put("kv/cart", b"1", Value::int(1)).unwrap();
        let _hot = parking_lot::hot_thread("test.reader");
        let mut waiter = s.begin(IsolationLevel::Serializable);
        // A lock nobody holds is granted without a wait.
        waiter.put("kv/cart", b"2", Value::int(2)).unwrap();
        let _ = waiter.put("kv/cart", b"1", Value::int(2));
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
        assert_eq!(s.get_latest("kv/cart", b"1"), Some(Value::str("before")));
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
        assert_eq!(s.get_latest("kv/cart", b"1"), None, "uncommitted is invisible");
        t.commit().unwrap();
        assert_eq!(s.get_latest("kv/cart", b"1"), Some(Value::str("34e5e759")));
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
        assert_eq!(s.get_latest("d", b"k"), Some(Value::int(2)));
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
        assert_eq!(s.get_latest("d", b"k"), Some(Value::int(1)));
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
            assert!(s.get_latest(d, k).is_some(), "{d} missing");
        }
        // And an aborted txn leaves nothing anywhere.
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.put("rel/customers", b"2", Value::int(1)).unwrap();
        t.put("doc/orders", b"o2", Value::Null).unwrap();
        t.abort();
        assert_eq!(s.get_latest("rel/customers", b"2"), None);
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
        assert_eq!(s.get_latest("d", b"k"), None);
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
        // the abort counted, locks released — and no WAL bytes, because
        // the log never saw the transaction begin.
        let wal = Arc::new(Wal::in_memory());
        let s = MvccStore::new(Some(Arc::clone(&wal)));
        {
            let mut t = s.begin(IsolationLevel::Serializable);
            t.put("doc/orders", b"orphan", Value::int(1)).unwrap();
        } // dropped uncommitted
        let mut t = s.begin(IsolationLevel::Serializable);
        t.put("doc/orders", b"orphan-2", Value::int(1)).unwrap();
        t.abort();
        assert_eq!(s.get_latest("doc/orders", b"orphan"), None);
        assert_eq!(s.get_latest("doc/orders", b"orphan-2"), None);
        let (_, aborts) = s.stats();
        assert_eq!(aborts, 2);
        assert!(wal.snapshot_bytes().is_empty(), "an abort leaves no WAL trace");
        // The exclusive lock is gone: a new serializable txn acquires it
        // immediately rather than deadlocking.
        let mut t2 = s.begin(IsolationLevel::Serializable);
        t2.put("doc/orders", b"orphan", Value::int(2)).unwrap();
        t2.commit().unwrap();
        assert_eq!(s.get_latest("doc/orders", b"orphan"), Some(Value::int(2)));
        // Read-only drops stay cheap: no WAL record is appended for them.
        let before = wal.snapshot_bytes().len();
        drop(s.begin(IsolationLevel::Snapshot));
        assert_eq!(wal.snapshot_bytes().len(), before);
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
        assert_eq!(s.get_latest("d", b"counter"), Some(Value::int(101)));
    }

    #[test]
    fn serializable_blocks_write_skew() {
        // Classic write skew: t1 reads A writes B, t2 reads B writes A.
        // Under SI both commit; under serializable one is a deadlock
        // victim or serialized cleanly.
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

        // Under serializable: the lock manager interleaves them safely —
        // run them in threads; at least one sees the other's effect.
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
        let a = s.get_latest("d", b"A").unwrap().as_int().unwrap();
        let b = s.get_latest("d", b"B").unwrap().as_int().unwrap();
        // The serial orders are t1;t2 → (-1,0) and t2;t1 → (0,-1); write
        // skew would give (0,0).
        assert!(
            (a, b) == (-1, 0) || (a, b) == (0, -1),
            "serializable outcome must equal a serial order, got ({a},{b})"
        );
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

        // "Crash": rebuild a fresh store from the log.
        let recovery = wal::recover_from_bytes(&wal.snapshot_bytes());
        let s2 = MvccStore::new(None);
        let replayed = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let r2 = replayed.clone();
        s2.add_commit_hook(move |ws| {
            r2.fetch_add(ws.len(), Ordering::SeqCst);
        });
        let n = s2.recover(&recovery).unwrap();
        assert_eq!(n, 2);
        assert_eq!(replayed.load(Ordering::SeqCst), 2);
        assert_eq!(
            s2.get_latest("doc/orders", b"o1").unwrap().get_field("n"),
            &Value::int(1)
        );
        assert_eq!(s2.get_latest("doc/orders", b"o2"), None, "aborted txn not replayed");
    }

    #[test]
    fn eventual_domains_skip_validation_and_read_fresh() {
        let s = store();
        let mut policy = ConsistencyPolicy::default();
        policy.set("graph/likes", ConsistencyLevel::Eventual);
        s.set_policy(policy);

        let mut t1 = s.begin(IsolationLevel::Snapshot);
        let mut t2 = s.begin(IsolationLevel::Snapshot);
        t1.put("graph/likes", b"e1", Value::int(1)).unwrap();
        t2.put("graph/likes", b"e1", Value::int(2)).unwrap();
        t1.commit().unwrap();
        // Same key, both eventual: no conflict, last write wins.
        t2.commit().unwrap();
        assert_eq!(s.get_latest("graph/likes", b"e1"), Some(Value::int(2)));

        // Eventual reads see fresh data even from an old snapshot.
        let reader = s.begin(IsolationLevel::Snapshot);
        let mut w = s.begin(IsolationLevel::Snapshot);
        w.put("graph/likes", b"e2", Value::int(9)).unwrap();
        w.commit().unwrap();
        assert_eq!(reader.get("graph/likes", b"e2").unwrap(), Some(Value::int(9)));
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

        // note_commit_lsn only ever raises it.
        let high = s.last_commit_lsn();
        s.note_commit_lsn(3);
        assert_eq!(s.last_commit_lsn(), high);
        s.note_commit_lsn(high + 100);
        assert_eq!(s.last_commit_lsn(), high + 100);
    }

    #[test]
    fn apply_replicated_matches_a_direct_commit() {
        // Writes applied off a replication stream must land exactly like
        // a local commit: visible, counted, hook-visible, re-logged.
        let wal = Arc::new(Wal::in_memory());
        let s = MvccStore::new(Some(Arc::clone(&wal)));
        let hooked = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hooked.clone();
        s.add_commit_hook(move |ws| {
            h.fetch_add(ws.len(), Ordering::SeqCst);
        });
        let writes = vec![
            CommittedWrite { domain: "doc/orders".into(), key: b"o1".to_vec(), value: Some(Value::int(7)) },
            CommittedWrite { domain: "kv/cart".into(), key: b"c1".to_vec(), value: None },
        ];
        s.apply_replicated(&writes).unwrap();
        assert_eq!(s.get_latest("doc/orders", b"o1"), Some(Value::int(7)));
        assert_eq!(s.get_latest("kv/cart", b"c1"), None, "deletes replicate too");
        assert_eq!(hooked.load(Ordering::SeqCst), 2);
        assert_eq!(s.stats().0, 1);
        // The replica re-logged the transaction: a store recovered from the
        // replica's own WAL sees the same state.
        let rec = wal::recover_from_bytes(&wal.snapshot_bytes());
        let s2 = MvccStore::new(None);
        assert_eq!(s2.recover(&rec).unwrap(), 2);
        assert_eq!(s2.get_latest("doc/orders", b"o1"), Some(Value::int(7)));
        // Empty batches are a cheap no-op.
        let before = wal.tail_lsn();
        s.apply_replicated(&[]).unwrap();
        assert_eq!(wal.tail_lsn(), before);
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
        let rec = wal::recover_from_bytes(&wal.snapshot_bytes());
        let s2 = MvccStore::new(None);
        assert_eq!(s2.recover(&rec).unwrap(), 64);
        assert_eq!(s2.get_latest("kv/cart", b"t7-7"), Some(Value::int(7)));
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
        assert_eq!(s.get_latest("d", b"k"), Some(Value::int(2)));
        // The loser's block never reached the log.
        let rec = wal::recover_from_bytes(&wal.snapshot_bytes());
        let s2 = MvccStore::new(None);
        s2.recover(&rec).unwrap();
        assert_eq!(s2.get_latest("d", b"k"), Some(Value::int(2)));
    }

    #[test]
    fn vacuum_drops_dead_versions() {
        let s = store();
        for i in 0..10 {
            let mut t = s.begin(IsolationLevel::Snapshot);
            t.put("d", b"k", Value::int(i)).unwrap();
            t.commit().unwrap();
        }
        let dropped = s.vacuum(s.now());
        assert_eq!(dropped, 9, "nine superseded versions reclaimed");
        assert_eq!(s.get_latest("d", b"k"), Some(Value::int(9)));
        // Deleted keys vanish entirely.
        let mut t = s.begin(IsolationLevel::Snapshot);
        t.delete("d", b"k").unwrap();
        t.commit().unwrap();
        s.vacuum(s.now());
        assert_eq!(s.get_latest("d", b"k"), None);
    }
}
