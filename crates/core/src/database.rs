//! The [`Database`] facade.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mmdb_graph::Graph;
use mmdb_kv::KvStore;
use mmdb_query::World;
use mmdb_relational::{Schema, Table};
use mmdb_storage::snapshot;
use mmdb_storage::wal::{self, Lsn, Wal};
use mmdb_txn::{ConsistencyPolicy, IsolationLevel, MvccStore};
use mmdb_types::{lock_rank, CancelToken, Error, Result, Value};

use crate::session::{apply_committed, Session};

/// Checkpoint bookkeeping: serialization and the `ADMIN STATS` /
/// `ADMIN HEALTH` counters.
struct CheckpointState {
    /// One checkpoint at a time. Ordered *outside* the MVCC commit
    /// mutex: the holder calls `quiesce_commits`.
    serial: Mutex<()>,
    count: AtomicU64,
    total_micros: AtomicU64,
    bytes_reclaimed: AtomicU64,
    /// When the last successful checkpoint finished: a stamp instant
    /// plus how old the checkpoint already was *at* the stamp — zero for
    /// an in-process checkpoint, the snapshot file's age when reopening
    /// a directory that already holds one (so `ADMIN HEALTH` keeps
    /// reporting checkpoint staleness across restarts).
    last_at: Mutex<Option<(Instant, Duration)>>,
}

impl Default for CheckpointState {
    fn default() -> Self {
        CheckpointState {
            serial: Mutex::with_rank(lock_rank::CHECKPOINT_SERIAL, ()),
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
            bytes_reclaimed: AtomicU64::new(0),
            last_at: Mutex::new(None),
        }
    }
}

/// What one [`Database::checkpoint`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// The WAL LSN the snapshot captures (0 for wal-less databases).
    pub snapshot_lsn: Lsn,
    /// Live (domain, key) pairs serialized into the snapshot.
    pub entries: usize,
    /// Size of the written snapshot file in bytes (0 when the database
    /// has no directory to write one into).
    pub snapshot_bytes: u64,
    /// WAL prefix bytes reclaimed by truncation.
    pub wal_bytes_reclaimed: u64,
    /// MVCC versions dropped by the post-checkpoint vacuum.
    pub versions_vacuumed: usize,
    /// Wall time of the whole checkpoint.
    pub micros: u64,
}

/// The multi-model database: every model, one backend.
pub struct Database {
    world: Arc<World>,
    mvcc: MvccStore,
    wal: Option<Arc<Wal>>,
    /// The data directory for durable databases (`None` in memory) —
    /// where `mmdb.snapshot` lives.
    dir: Option<PathBuf>,
    ckpt: CheckpointState,
}

impl Database {
    /// A volatile in-memory database.
    pub fn in_memory() -> Database {
        Self::build(None, None)
    }

    /// A volatile in-memory database that still keeps a (memory-backed)
    /// write-ahead log. The log is what replication ships, so a primary
    /// must have one even when durability is not wanted — demos and tests
    /// use this to serve `SUBSCRIBE` and replica streams without a data
    /// directory.
    pub fn in_memory_logged() -> Database {
        Self::build(Some(Arc::new(Wal::in_memory())), None)
    }

    /// A database with a durable write-ahead log at `dir/mmdb.wal`.
    /// If a checkpoint snapshot (`dir/mmdb.snapshot`) exists it is loaded
    /// first, then the WAL suffix past its LSN is replayed — so restart
    /// time is bounded by the write volume since the last checkpoint,
    /// not by all of history.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Storage(format!("create {dir:?}: {e}")))?;
        // A crash between snapshot write and rename leaves a stale tmp;
        // it was never published, so it is garbage.
        snapshot::remove_stale_tmp(dir);
        let snap = snapshot::read_snapshot(dir)?;
        let snapshot_lsn = snap.as_ref().map(|(lsn, _)| *lsn).unwrap_or(0);
        let wal_path = dir.join("mmdb.wal");
        let mut recovery = wal::recover_from_file_after(&wal_path, snapshot_lsn)?;
        if recovery.base_lsn > snapshot_lsn {
            // The log prefix was truncated away but the snapshot that
            // replaced it is missing or older: state is unrecoverable.
            return Err(Error::Corruption(format!(
                "wal truncated at {} but snapshot covers only {}",
                recovery.base_lsn, snapshot_lsn
            )));
        }
        if recovery.torn_tail {
            // Truncate the corrupt tail so new appends extend the valid
            // prefix instead of hiding behind garbage.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .map_err(|e| Error::Storage(format!("truncate wal: {e}")))?;
            f.set_len(recovery.valid_len)
                .map_err(|e| Error::Storage(format!("truncate wal: {e}")))?;
        }
        // Snapshot state replays first, through the same apply path as
        // WAL redo, then the suffix.
        if let Some((_, mut state)) = snap {
            state.append(&mut recovery.redo);
            recovery.redo = state;
        }
        let wal = Arc::new(Wal::open(&wal_path)?);
        let db = Self::build(Some(wal), Some(dir.to_path_buf()));
        // The snapshot's mtime (stamped by the atomic rename at checkpoint
        // completion) dates the last checkpoint, so `ADMIN HEALTH` keeps
        // answering `seconds_since_checkpoint` across restarts instead of
        // reporting null until the first in-process checkpoint.
        if let Some(age) = snapshot::snapshot_age(dir) {
            *db.ckpt.last_at.lock() = Some((Instant::now(), age));
        }
        db.mvcc.recover(&recovery)?;
        // Replication watermark: everything up to the recovered tail is
        // committed history a replica may resume from.
        if let Some(w) = &db.wal {
            db.mvcc.note_commit_lsn(w.tail_lsn());
        }
        Ok(db)
    }

    fn build(wal: Option<Arc<Wal>>, dir: Option<PathBuf>) -> Database {
        let world = Arc::new(World::in_memory());
        let mvcc = MvccStore::new(wal.clone());
        let hook_world = Arc::clone(&world);
        // The store owns its hooks, so the hook reaches back through a
        // weak handle (a strong one would keep the store alive forever).
        let latch = mvcc.downgrade();
        mvcc.add_commit_hook(move |writes| {
            // The write set is committed and durable by now. If the model
            // stores cannot take it they no longer agree with the version
            // store, and every later write would widen the gap: stop
            // accepting writes and say why. Reads keep serving.
            if let Err(e) = apply_committed(&hook_world, writes) {
                if let Some(store) = latch.upgrade() {
                    store.latch_read_only(&format!("commit hook failed: {e}"));
                }
            }
        });
        Database { world, mvcc, wal, dir, ckpt: CheckpointState::default() }
    }

    /// The query-visible world of model stores.
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// The MVCC transaction store.
    pub fn mvcc(&self) -> &MvccStore {
        &self.mvcc
    }

    /// The write-ahead log, when this database keeps one. This is the
    /// replication feed: a primary tails it to stream records to replicas
    /// and `SUBSCRIBE` change-feed clients.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// WAL position just past the most recent durable commit — the
    /// replication watermark. On a primary this tracks local commits; on a
    /// replica the apply loop advances it to the primary offsets it has
    /// applied, so the same accessor answers "how far along is this node"
    /// on both ends.
    pub fn last_commit_lsn(&self) -> u64 {
        self.mvcc.last_commit_lsn()
    }

    /// Set per-model consistency levels (hybrid consistency).
    pub fn set_consistency(&self, policy: ConsistencyPolicy) {
        self.mvcc.set_policy(policy);
    }

    // ---- DDL -------------------------------------------------------------

    /// Create a document collection.
    pub fn create_collection(&self, name: &str) -> Result<()> {
        self.world.create_collection(name).map(|_| ())
    }

    /// Create a relational table. The schema is committed through MVCC as
    /// a `ddl/table` write, so it reaches the WAL and recovery can rebuild
    /// the table before replaying its rows — reopening a database never
    /// requires re-issuing `create_table`.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        if self.world.catalog.table(name).is_ok() {
            return Err(Error::AlreadyExists(format!("table '{name}'")));
        }
        let schema_value = schema.to_value();
        let mut attempt = 0;
        loop {
            let mut txn = self.mvcc.begin(IsolationLevel::Snapshot);
            let staged = match txn.get("ddl/table", name.as_bytes()) {
                // A concurrent creator may have won since the check above.
                Ok(Some(_)) => Err(Error::AlreadyExists(format!("table '{name}'"))),
                Ok(None) => txn.put("ddl/table", name.as_bytes(), schema_value.clone()),
                Err(e) => Err(e),
            };
            match staged.and_then(|()| txn.commit()) {
                // The commit hook created the table (see apply_committed).
                Ok(_) => return self.world.catalog.table(name),
                Err(e) if e.is_retryable() && attempt < 3 => attempt += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Create a key/value bucket.
    pub fn create_bucket(&self, name: &str) -> Result<()> {
        self.world.kv.create_bucket(name)
    }

    /// Create a property graph.
    pub fn create_graph(&self, name: &str) -> Result<Arc<Graph>> {
        self.world.create_graph(name)
    }

    /// Create a full-text index over a collection field.
    pub fn create_fulltext_index(&self, name: &str, collection: &str, field: &str) -> Result<()> {
        self.world.create_fulltext_index(name, collection, field)
    }

    /// Register an XML document (parsed) under a name.
    pub fn register_xml(&self, name: &str, xml_text: &str) -> Result<()> {
        let tree = mmdb_xml::parse_xml(xml_text)?;
        self.world.register_xml(name, tree);
        Ok(())
    }

    /// Register a JSON document as a queryable tree under a name.
    pub fn register_json_tree(&self, name: &str, json_text: &str) -> Result<()> {
        let v = mmdb_types::from_json(json_text)?;
        self.world.register_xml(name, mmdb_xml::Tree::from_json(&v));
        Ok(())
    }

    /// Create a named spatial (R-tree) index for `GEO_WITHIN`/`GEO_NEAREST`.
    pub fn create_spatial_index(&self, name: &str) -> Result<()> {
        self.world.create_spatial_index(name)
    }

    /// Insert a point with a payload into a spatial index.
    pub fn spatial_insert(&self, index: &str, x: f64, y: f64, payload: Value) -> Result<()> {
        self.world.spatial_insert(index, x, y, payload)
    }

    /// The key/value store.
    pub fn kv(&self) -> &KvStore {
        &self.world.kv
    }

    // ---- transactions ------------------------------------------------------

    /// Begin a cross-model transaction at the given isolation level.
    pub fn begin(&self, isolation: IsolationLevel) -> Session {
        Session::new(Arc::clone(&self.world), self.mvcc.begin(isolation))
    }

    /// Run a closure inside a transaction with automatic conflict retry.
    pub fn transact<T>(
        &self,
        isolation: IsolationLevel,
        max_retries: usize,
        mut f: impl FnMut(&mut Session) -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 0;
        loop {
            let mut session = self.begin(isolation);
            match f(&mut session).and_then(|v| session.commit().map(|_| v)) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < max_retries => attempt += 1,
                Err(e) => return Err(e),
            }
        }
    }

    // ---- auto-commit conveniences ------------------------------------------

    /// Insert a JSON document (auto-commit); returns its `_key`.
    pub fn insert_json(&self, collection: &str, json: &str) -> Result<String> {
        let doc = mmdb_types::from_json(json)?;
        self.transact(IsolationLevel::Snapshot, 3, |s| s.insert_document(collection, doc.clone()))
    }

    /// Fetch a document by key (latest committed).
    pub fn get_document(&self, collection: &str, key: &str) -> Result<Option<Value>> {
        self.world.collection(collection)?.get(key)
    }

    /// Put a key/value pair (auto-commit).
    pub fn kv_put(&self, bucket: &str, key: &str, value: Value) -> Result<()> {
        self.transact(IsolationLevel::Snapshot, 3, |s| s.kv_put(bucket, key, value.clone()))
    }

    /// Insert a relational row from an object (auto-commit).
    pub fn insert_row(&self, table: &str, row_object: &Value) -> Result<()> {
        self.transact(IsolationLevel::Snapshot, 3, |s| s.insert_row(table, row_object.clone()))
    }

    // ---- queries -------------------------------------------------------------

    /// Run an MMQL query over the latest committed state.
    pub fn query(&self, text: &str) -> Result<Vec<Value>> {
        mmdb_query::run(&self.world, text)
    }

    /// Run an MMQL query under a cancellation token: the executor checks
    /// it in every scan/join/traversal loop and aborts with a retryable
    /// `deadline_exceeded` error once the token is cancelled or its
    /// deadline passes. The server mints one token per request from the
    /// client-supplied budget.
    pub fn query_with(&self, text: &str, cancel: &CancelToken) -> Result<Vec<Value>> {
        mmdb_query::run_with(&self.world, text, cancel)
    }

    /// Run a SQL SELECT over the latest committed state.
    pub fn query_sql(&self, text: &str) -> Result<Vec<Value>> {
        mmdb_query::run_sql(&self.world, text)
    }

    /// Like [`Database::query_sql`], under a cancellation token.
    pub fn query_sql_with(&self, text: &str, cancel: &CancelToken) -> Result<Vec<Value>> {
        mmdb_query::run_sql_with(&self.world, text, cancel)
    }

    /// Like [`Database::query_with`], but also collect an [`ExecStats`]
    /// runtime profile — per operator: rows in/out, wall time, access
    /// path. The server uses this for `EXPLAIN ANALYZE` and the
    /// slow-query log.
    ///
    /// [`ExecStats`]: mmdb_query::ExecStats
    pub fn query_traced_with(
        &self,
        text: &str,
        cancel: &CancelToken,
    ) -> Result<(Vec<Value>, mmdb_query::ExecStats)> {
        mmdb_query::run_traced(&self.world, text, cancel)
    }

    /// Like [`Database::query_sql_with`], with an `ExecStats` profile.
    pub fn query_sql_traced_with(
        &self,
        text: &str,
        cancel: &CancelToken,
    ) -> Result<(Vec<Value>, mmdb_query::ExecStats)> {
        mmdb_query::run_sql_traced(&self.world, text, cancel)
    }

    // ---- checkpointing -------------------------------------------------------

    /// Take a checkpoint: quiesce commits, capture every live key at the
    /// WAL tail LSN, write `mmdb.snapshot` crash-safely (write-temp +
    /// fsync + atomic rename), append a durable `Checkpoint` marker, and
    /// truncate the WAL prefix below the snapshot LSN. Afterwards (outside
    /// the quiesce window) MVCC version chains are vacuumed to the same
    /// horizon.
    ///
    /// Crash-safe at every step: until the rename publishes the new
    /// snapshot the old snapshot+log pair recovers; after it, recovery
    /// skips redo below the snapshot LSN whether or not the marker or the
    /// truncation landed. Databases without a directory (in-memory logged
    /// primaries) skip the snapshot file but still truncate their memory
    /// log — a replica that falls below the horizon bootstraps over the
    /// wire instead.
    pub fn checkpoint(&self) -> Result<CheckpointSummary> {
        let _one_at_a_time = self.ckpt.serial.lock();
        let started = Instant::now();
        let mut summary = CheckpointSummary::default();
        if let Some(wal) = &self.wal {
            let (lsn, entries, snapshot_bytes, reclaimed) =
                self.mvcc.quiesce_commits(|| -> Result<(Lsn, usize, u64, u64)> {
                    // Make the tail durable so the snapshot LSN is a
                    // point no crash can roll back behind.
                    wal.sync()?;
                    let lsn = wal.tail_lsn();
                    let live = self.mvcc.latest_committed_writes();
                    let mut snapshot_bytes = 0;
                    if let Some(dir) = &self.dir {
                        snapshot_bytes = snapshot::write_snapshot(dir, lsn, &live)?;
                    }
                    wal.append_checkpoint(lsn)?;
                    let reclaimed = wal.truncate_below(lsn)?;
                    Ok((lsn, live.len(), snapshot_bytes, reclaimed))
                })?;
            summary.snapshot_lsn = lsn;
            summary.entries = entries;
            summary.snapshot_bytes = snapshot_bytes;
            summary.wal_bytes_reclaimed = reclaimed;
        }
        // Version chains below the current visibility horizon are now
        // redundant with the snapshot — trim them (ROADMAP: first step
        // toward epoch-based reclamation).
        summary.versions_vacuumed = self.mvcc.vacuum(self.mvcc.now());
        summary.micros = started.elapsed().as_micros() as u64;
        self.ckpt.count.fetch_add(1, Ordering::SeqCst);
        self.ckpt.total_micros.fetch_add(summary.micros, Ordering::SeqCst);
        self.ckpt.bytes_reclaimed.fetch_add(summary.wal_bytes_reclaimed, Ordering::SeqCst);
        *self.ckpt.last_at.lock() = Some((Instant::now(), Duration::ZERO));
        Ok(summary)
    }

    /// Checkpoint counters for `ADMIN STATS`: `(count, total µs spent,
    /// WAL bytes reclaimed)`.
    pub fn checkpoint_stats(&self) -> (u64, u64, u64) {
        (
            self.ckpt.count.load(Ordering::SeqCst),
            self.ckpt.total_micros.load(Ordering::SeqCst),
            self.ckpt.bytes_reclaimed.load(Ordering::SeqCst),
        )
    }

    /// Seconds since the last successful checkpoint — `ADMIN HEALTH`.
    /// `None` only when no checkpoint has ever happened *and* the data
    /// directory holds no snapshot: reopening a checkpointed database
    /// resumes the clock from the snapshot file's mtime.
    pub fn seconds_since_checkpoint(&self) -> Option<u64> {
        self.ckpt.last_at.lock().map(|(at, base)| (base + at.elapsed()).as_secs())
    }

    /// Physical WAL size in bytes (0 without a WAL) — the auto-checkpoint
    /// trigger input and an `ADMIN STATS` gauge.
    pub fn wal_size_bytes(&self) -> u64 {
        self.wal.as_ref().map(|w| w.size_bytes()).unwrap_or(0)
    }

    // ---- health --------------------------------------------------------------

    /// True when the engine has latched into degraded read-only mode after
    /// an unrecoverable durability failure (see `MvccStore::is_degraded`).
    /// Reads keep serving; writes fail fast with `read_only`. Reopening
    /// the database clears the latch via normal recovery.
    pub fn is_degraded(&self) -> bool {
        self.mvcc.is_degraded()
    }

    /// The durability failure that degraded the engine, if any.
    pub fn degraded_reason(&self) -> Option<String> {
        self.mvcc.degraded_reason()
    }

    /// EXPLAIN: the optimized logical plan of an MMQL query.
    pub fn explain(&self, text: &str) -> Result<String> {
        let q = mmdb_query::parse_query(text)?;
        let plan = mmdb_query::plan::build_plan(&q)?;
        Ok(mmdb_query::optimize::optimize(plan, &self.world).explain())
    }

    /// EXPLAIN ANALYZE: run the query and render the plan annotated with
    /// actual row counts, per-operator timings, and the access path each
    /// operator took (named index vs full scan).
    pub fn explain_analyze(&self, text: &str) -> Result<String> {
        self.explain_analyze_with(text, &CancelToken::none())
    }

    /// Like [`Database::explain_analyze`], under a cancellation token.
    pub fn explain_analyze_with(&self, text: &str, cancel: &CancelToken) -> Result<String> {
        let (_rows, stats) = self.query_traced_with(text, cancel)?;
        Ok(stats.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_relational::{ColumnDef, DataType};

    #[test]
    fn quickstart_shape() {
        let db = Database::in_memory();
        db.create_collection("customers").unwrap();
        db.insert_json("customers", r#"{"_key":"1","name":"Mary","credit_limit":5000}"#).unwrap();
        db.insert_json("customers", r#"{"_key":"2","name":"John","credit_limit":3000}"#).unwrap();
        let rows = db
            .query("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c.name")
            .unwrap();
        assert_eq!(rows, vec![Value::str("Mary")]);
    }

    #[test]
    fn auto_commit_routes_through_mvcc() {
        let db = Database::in_memory();
        db.create_collection("c").unwrap();
        db.insert_json("c", r#"{"_key":"k","v":1}"#).unwrap();
        // The version store holds the document too (snapshot source).
        assert!(db.mvcc().get_latest("doc/c", b"k").is_some());
        let (commits, _) = db.mvcc().stats();
        assert_eq!(commits, 1);
    }

    #[test]
    fn a_failing_commit_hook_latches_the_engine_read_only() {
        let db = Database::in_memory();
        db.create_bucket("cart").unwrap();
        db.create_table(
            "t",
            Schema::new(vec![ColumnDef::new("id", DataType::Int)], "id").unwrap(),
        )
        .unwrap();
        db.kv_put("cart", "1", Value::str("o1")).unwrap();
        assert!(!db.is_degraded());

        // Straight through the version store, past `Session`'s checks: a
        // row value the table cannot decode. The commit itself succeeds
        // (validated, logged, installed) and then the hook cannot apply it.
        let mut txn = db.mvcc().begin(IsolationLevel::Snapshot);
        txn.put("rel/t", b"k", Value::int(7)).unwrap();
        txn.commit().unwrap();

        assert!(db.is_degraded());
        let reason = db.degraded_reason().expect("a reason is recorded");
        assert!(reason.starts_with("commit hook failed: "), "{reason}");
        // Reads still serve; the next write fails fast.
        assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("o1")));
        assert_eq!(db.query("FOR r IN t RETURN r").unwrap(), Vec::<Value>::new());
        let err = db.kv_put("cart", "2", Value::str("o2")).unwrap_err();
        assert_eq!(err.kind(), "read_only");
        assert!(err.to_string().contains("commit hook failed"), "{err}");
    }

    #[test]
    fn durability_across_reopen() {
        let dir = std::env::temp_dir().join(format!("mmdb-core-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.create_collection("orders").unwrap();
            db.create_bucket("cart").unwrap();
            db.insert_json("orders", r#"{"_key":"o1","total":66}"#).unwrap();
            db.kv_put("cart", "1", Value::str("o1")).unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            // Model stores are rebuilt from the WAL alone: schemaless
            // stores (collections, buckets) are recreated on demand and
            // tables replay from their ddl/table records.
            assert_eq!(
                db.get_document("orders", "o1").unwrap().unwrap().get_field("total"),
                &Value::int(66)
            );
            assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("o1")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_reopen_loads_snapshot() {
        let dir = std::env::temp_dir().join(format!("mmdb-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.create_collection("orders").unwrap();
            db.create_bucket("cart").unwrap();
            for i in 0..20 {
                db.insert_json("orders", &format!(r#"{{"_key":"o{i}","total":{i}}}"#)).unwrap();
            }
            db.kv_put("cart", "1", Value::str("o1")).unwrap();
            let wal_before = db.wal_size_bytes();
            let summary = db.checkpoint().unwrap();
            assert!(summary.snapshot_lsn > 0);
            assert!(summary.entries >= 21, "all live keys captured: {summary:?}");
            assert!(summary.wal_bytes_reclaimed > 0);
            assert!(db.wal_size_bytes() < wal_before, "the log shrank");
            assert_eq!(db.checkpoint_stats().0, 1);
            assert!(db.seconds_since_checkpoint().is_some());
            // Writes after the checkpoint land in the (new) log suffix.
            db.insert_json("orders", r#"{"_key":"after","total":99}"#).unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(
                db.get_document("orders", "o7").unwrap().unwrap().get_field("total"),
                &Value::int(7)
            );
            assert_eq!(
                db.get_document("orders", "after").unwrap().unwrap().get_field("total"),
                &Value::int(99)
            );
            assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("o1")));
            // A second checkpoint over the already-truncated log works.
            db.checkpoint().unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(
                db.get_document("orders", "after").unwrap().unwrap().get_field("total"),
                &Value::int(99)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_wal_without_snapshot_is_corruption() {
        let dir = std::env::temp_dir().join(format!("mmdb-ckpt-nosnap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.create_collection("c").unwrap();
            db.insert_json("c", r#"{"_key":"k","v":1}"#).unwrap();
            db.checkpoint().unwrap();
        }
        std::fs::remove_file(dir.join("mmdb.snapshot")).unwrap();
        let err = Database::open(&dir).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), "corruption");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_checkpoint_bounds_the_log() {
        let db = Database::in_memory_logged();
        db.create_collection("c").unwrap();
        for i in 0..10 {
            db.insert_json("c", &format!(r#"{{"_key":"k{i}","v":{i}}}"#)).unwrap();
        }
        let before = db.wal_size_bytes();
        let summary = db.checkpoint().unwrap();
        assert!(summary.wal_bytes_reclaimed > 0);
        assert_eq!(summary.snapshot_bytes, 0, "no directory, no snapshot file");
        assert!(db.wal_size_bytes() < before);
        // State is untouched.
        assert_eq!(
            db.get_document("c", "k3").unwrap().unwrap().get_field("v"),
            &Value::int(3)
        );
    }

    #[test]
    fn sql_and_mmql_over_one_database() {
        let db = Database::in_memory();
        db.create_table(
            "t",
            Schema::new(
                vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("x", DataType::Int)],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..5 {
            db.insert_row("t", &mmdb_types::from_json(&format!(r#"{{"id":{i},"x":{}}}"#, i * 10)).unwrap())
                .unwrap();
        }
        let sql = db.query_sql("SELECT x FROM t WHERE id >= 3 ORDER BY id").unwrap();
        let mmql = db.query("FOR r IN t FILTER r.id >= 3 SORT r.id RETURN r.x").unwrap();
        assert_eq!(sql, mmql);
        assert_eq!(sql, vec![Value::int(30), Value::int(40)]);
    }

    #[test]
    fn explain_shows_index_choice() {
        let db = Database::in_memory();
        db.create_collection("p").unwrap();
        db.insert_json("p", r#"{"_key":"a","price":5}"#).unwrap();
        let before = db.explain("FOR x IN p FILTER x.price > 1 RETURN x").unwrap();
        assert!(before.contains("For x"));
        db.world().collection("p").unwrap().create_persistent_index("price").unwrap();
        let after = db.explain("FOR x IN p FILTER x.price > 1 RETURN x").unwrap();
        assert!(after.contains("IndexScan"), "{after}");
    }

    #[test]
    fn explain_analyze_reports_actual_access_path() {
        let db = Database::in_memory();
        db.create_collection("p").unwrap();
        for i in 0..10 {
            db.insert_json("p", &format!(r#"{{"_key":"k{i}","price":{i}}}"#)).unwrap();
        }
        let q = "FOR x IN p FILTER x.price > 7 RETURN x.price";
        let before = db.explain_analyze(q).unwrap();
        assert!(before.contains("full scan"), "{before}");
        assert!(before.contains("rows returned: 2"), "{before}");
        db.world().collection("p").unwrap().create_persistent_index("price").unwrap();
        let after = db.explain_analyze(q).unwrap();
        assert!(after.contains("index 'price'"), "{after}");
        assert!(!after.contains("full scan"), "{after}");
        assert!(after.contains("rows returned: 2"), "{after}");
    }
}
