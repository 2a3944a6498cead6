//! Replica lag and health accounting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use mmdb_storage::wal::Lsn;
use mmdb_txn::MvccStore;
use mmdb_types::Value;

fn epoch_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Shared, lock-free view of a replica's replication state.
///
/// Written by the [`crate::ReplicaRunner`] thread, read by `ADMIN
/// HEALTH` / `ADMIN REPL` handlers and by pool freshness checks. Lag
/// is reported two ways:
///
/// * `lag_bytes` — how far `applied_lsn` trails the primary's last
///   advertised WAL tail. Exact while connected; a lower bound after
///   the primary goes away (the tail stops advancing in our view).
/// * `staleness_ms` — wall-clock time since the replica last *knew*
///   it was caught up (applied LSN == advertised tail). This keeps
///   growing after a disconnect even though `lag_bytes` freezes,
///   which is what bounded-staleness reads need.
pub struct ReplStatus {
    primary_addr: String,
    connected: AtomicBool,
    /// The replica's store, whose watermark (`last_commit_lsn`) is the
    /// applied LSN: a position in the primary's log, since the replica's
    /// log is the primary's.
    store: MvccStore,
    /// The primary's WAL tail as of the last frame we saw.
    primary_tail_lsn: AtomicU64,
    /// Epoch ms of the last frame received from the primary; 0 = never.
    last_contact_ms: AtomicU64,
    /// Epoch ms when `applied_lsn == primary_tail_lsn` last held; 0 = never.
    caught_up_at_ms: AtomicU64,
    txns_applied: AtomicU64,
    connects: AtomicU64,
    /// Why the runner stopped: its log failed.
    failure: OnceLock<String>,
}

impl ReplStatus {
    /// A fresh status for `store`, a replica of `primary_addr`.
    pub fn new(primary_addr: impl Into<String>, store: MvccStore) -> ReplStatus {
        ReplStatus {
            primary_addr: primary_addr.into(),
            connected: AtomicBool::new(false),
            store,
            primary_tail_lsn: AtomicU64::new(0),
            last_contact_ms: AtomicU64::new(0),
            caught_up_at_ms: AtomicU64::new(0),
            txns_applied: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            failure: OnceLock::new(),
        }
    }

    /// Address of the primary this replica follows.
    pub fn primary_addr(&self) -> &str {
        &self.primary_addr
    }

    /// Whether the streaming connection is currently up.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }

    /// The LSN in the primary's log below which all transactions are
    /// applied: the store's watermark.
    pub fn applied_lsn(&self) -> Lsn {
        self.store.last_commit_lsn()
    }

    /// The primary's WAL tail as last advertised.
    pub fn primary_tail_lsn(&self) -> Lsn {
        self.primary_tail_lsn.load(Ordering::SeqCst)
    }

    /// Complete transactions applied since this process started.
    pub fn txns_applied(&self) -> u64 {
        self.txns_applied.load(Ordering::SeqCst)
    }

    /// Successful stream connections (1 = never had to reconnect).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::SeqCst)
    }

    /// Why the runner stopped replicating, if it did: its log failed a
    /// sync and takes no record until the replica is reopened.
    pub fn failure(&self) -> Option<&str> {
        self.failure.get().map(String::as_str)
    }

    /// Bytes of primary WAL known but not yet applied.
    pub fn lag_bytes(&self) -> u64 {
        self.primary_tail_lsn().saturating_sub(self.applied_lsn())
    }

    /// Milliseconds since the replica last knew it was caught up, or
    /// `None` if it never has been.
    pub fn staleness_ms(&self) -> Option<u64> {
        let at = self.caught_up_at_ms.load(Ordering::SeqCst);
        if at == 0 {
            return None;
        }
        Some(epoch_ms().saturating_sub(at))
    }

    // ---- runner-side updates ----------------------------------------------

    pub(crate) fn set_connected(&self, up: bool) {
        if up {
            self.connects.fetch_add(1, Ordering::SeqCst);
        }
        self.connected.store(up, Ordering::SeqCst);
    }

    pub(crate) fn set_failed(&self, why: String) {
        let _ = self.failure.set(why);
    }

    pub(crate) fn note_contact(&self) {
        self.last_contact_ms.store(epoch_ms(), Ordering::SeqCst);
    }

    pub(crate) fn observe_tail(&self, tail: Lsn) {
        self.primary_tail_lsn.fetch_max(tail, Ordering::SeqCst);
        self.refresh_caught_up();
    }

    /// After the store took a frame that applied `txns` transactions.
    pub(crate) fn note_applied(&self, txns: u64) {
        self.txns_applied.fetch_add(txns, Ordering::SeqCst);
        self.refresh_caught_up();
    }

    fn refresh_caught_up(&self) {
        if self.applied_lsn() >= self.primary_tail_lsn() {
            self.caught_up_at_ms.store(epoch_ms(), Ordering::SeqCst);
        }
    }

    /// The `ADMIN REPL` payload for a replica.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("role", Value::str("replica")),
            ("primary", Value::str(self.primary_addr.clone())),
            ("connected", Value::Bool(self.is_connected())),
            ("applied_lsn", Value::int(self.applied_lsn() as i64)),
            ("primary_tail_lsn", Value::int(self.primary_tail_lsn() as i64)),
            ("lag_bytes", Value::int(self.lag_bytes() as i64)),
            (
                "staleness_ms",
                match self.staleness_ms() {
                    Some(ms) => Value::int(ms as i64),
                    None => Value::Null,
                },
            ),
            ("txns_applied", Value::int(self.txns_applied() as i64)),
            ("connects", Value::int(self.connects() as i64)),
            ("failure", self.failure().map_or(Value::Null, Value::str)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_txn::WriteSet;

    #[test]
    fn lag_and_staleness_track_the_stream() {
        let store = MvccStore::default();
        let s = ReplStatus::new("127.0.0.1:7777", store.clone());
        assert_eq!(s.lag_bytes(), 0);
        assert_eq!(s.staleness_ms(), None);

        s.set_connected(true);
        s.observe_tail(100);
        assert_eq!(s.lag_bytes(), 100);
        // Not caught up yet, so still never-fresh.
        assert_eq!(s.staleness_ms(), None);

        store.apply_replicated(WriteSet::default(), 100);
        s.note_applied(1);
        assert_eq!(s.lag_bytes(), 0);
        assert!(s.staleness_ms().is_some());

        // A disconnect freezes lag_bytes but staleness keeps counting.
        s.set_connected(false);
        assert_eq!(s.lag_bytes(), 0);
        assert!(s.staleness_ms().is_some());

        let v = s.to_value();
        assert_eq!(v.get_field("role").as_str().unwrap(), "replica");
        assert_eq!(v.get_field("applied_lsn").as_int().unwrap(), 100);
        assert_eq!(v.get_field("connected"), &Value::Bool(false));
        assert_eq!(v.get_field("txns_applied").as_int().unwrap(), 1);
    }

    #[test]
    fn the_tail_only_moves_forward_and_applied_is_the_stores_watermark() {
        let store = MvccStore::default();
        let s = ReplStatus::new("p", store.clone());
        s.observe_tail(50);
        s.observe_tail(20);
        assert_eq!(s.primary_tail_lsn(), 50);
        store.apply_replicated(WriteSet::default(), 40);
        assert_eq!(s.applied_lsn(), 40);
    }
}
