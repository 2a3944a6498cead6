//! The [`Database`] facade.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mmdb_index::GinMode;
use mmdb_query::{Catalog, Container, World};
use mmdb_relational::Schema;
use mmdb_storage::lsm::LsmStats;
use mmdb_storage::wal::{Lsn, Wal};
use mmdb_txn::{IsolationLevel, MvccStore, WriteSet};
use mmdb_types::{lock_rank, CancelToken, Error, Result, Value};

use crate::session::{apply_committed, Session};

/// Checkpoint bookkeeping: serialization and the `ADMIN STATS` /
/// `ADMIN HEALTH` counters.
struct CheckpointState {
    /// One checkpoint at a time: the log's prefix is rewritten by one
    /// checkpoint only. Never held with the MVCC commit mutex.
    serial: Mutex<()>,
    count: AtomicU64,
    total_micros: AtomicU64,
    bytes_reclaimed: AtomicU64,
    /// When the last successful checkpoint finished: a stamp instant
    /// plus how old the checkpoint already was *at* the stamp — zero for
    /// an in-process checkpoint, the age of the time in the log's header
    /// when reopening a checkpointed log (so `ADMIN HEALTH` keeps
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
    /// The horizon `T`: the log below it is now its image block (0 for
    /// wal-less databases).
    pub snapshot_lsn: Lsn,
    /// Live (domain, key) pairs in the image.
    pub entries: usize,
    /// Size of the image block, `T − B` for the log's new base `B`.
    pub snapshot_bytes: u64,
    /// Bytes of history the rewrite dropped: how far the base moved.
    pub wal_bytes_reclaimed: u64,
    /// MVCC versions dropped by the post-checkpoint vacuum.
    pub versions_vacuumed: usize,
    /// Wall time of the whole checkpoint.
    pub micros: u64,
}

/// The key/value reads of [`Database::kv`]: each call finds its bucket
/// in the catalog and reads its tree.
#[derive(Clone, Copy)]
pub struct KvView<'a>(&'a Catalog);

impl KvView<'_> {
    /// Fetch a value.
    pub fn get(self, bucket: &str, key: &str) -> Result<Option<Value>> {
        self.0.bucket(bucket)?.get(key)
    }

    /// The bucket's LSM engine counters.
    pub fn stats(self, bucket: &str) -> Result<LsmStats> {
        Ok(self.0.bucket(bucket)?.stats())
    }

    /// Whether a bucket of this name exists.
    pub fn has_bucket(self, bucket: &str) -> bool {
        self.0.bucket(bucket).is_ok()
    }

    /// Force-compact the bucket's tree.
    pub fn compact(self, bucket: &str) -> Result<()> {
        self.0.bucket(bucket)?.compact()
    }
}

/// The multi-model database: every model, one backend.
pub struct Database {
    world: Arc<World>,
    mvcc: MvccStore,
    wal: Option<Arc<Wal>>,
    ckpt: CheckpointState,
    /// Held by `define` from its name check until the commit hook has
    /// put the definition in the catalog.
    ddl: Mutex<()>,
    /// Why the commit hook first failed to apply a write set, if it has.
    hook_failure: Arc<OnceLock<String>>,
    /// Declared last: fields drop in declaration order, so this runs
    /// once the stores above have freed their memory.
    _release: ReleaseOnDrop,
}

/// Hands the heap pages a dropped database freed back to the OS.
///
/// glibc returns freed memory only from the top of a heap, so without
/// this a process that closes a database keeps its pages resident or not
/// depending on which live allocation happens to sit above them, and
/// that differs from run to run. `malloc_trim` releases every free page.
#[derive(Default)]
struct ReleaseOnDrop;

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn malloc_trim(pad: usize) -> i32;
            }
            // SAFETY: glibc's `malloc_trim(3)` takes no pointers, locks
            // each arena itself, and only gives back pages that are free.
            unsafe {
                malloc_trim(0);
            }
        }
    }
}

impl Database {
    /// A volatile in-memory database.
    pub fn in_memory() -> Database {
        Self::build(None)
    }

    /// A volatile in-memory database that still keeps a (memory-backed)
    /// write-ahead log. The log is what replication ships, so a primary
    /// must have one even when durability is not wanted — demos and tests
    /// use this to serve `SUBSCRIBE` and replica streams without a data
    /// directory — and a replica without a directory keeps its copy of
    /// its primary's log here.
    pub fn in_memory_logged() -> Database {
        Self::build(Some(Arc::new(Wal::in_memory())))
    }

    /// A database with a durable write-ahead log at `dir/mmdb.wal`,
    /// recovered from every committed block the log holds. A checkpointed
    /// log starts with its image block, so restart time is bounded by the
    /// live state plus the writes since the last checkpoint, not by all
    /// of history. A log in the retired `WAL2` layout is refused with an
    /// `unsupported` error and left untouched.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Storage(format!("create {dir:?}: {e}")))?;
        let (wal, state) = Wal::recover(dir.join("mmdb.wal"))?;
        let (checkpointed_at, tail) = (wal.checkpointed_at(), wal.tail_lsn());
        let db = Self::build(Some(Arc::new(wal)));
        // The header of a checkpointed log dates the checkpoint, so
        // `ADMIN HEALTH` keeps answering `seconds_since_checkpoint` across
        // restarts instead of reporting null until the next checkpoint.
        if let Some(at) = checkpointed_at {
            *db.ckpt.last_at.lock() = Some((Instant::now(), at.elapsed().unwrap_or_default()));
        }
        db.mvcc.load(WriteSet::decode(state)?, tail);
        Ok(db)
    }

    fn build(wal: Option<Arc<Wal>>) -> Database {
        let world = Arc::new(World::in_memory());
        let mvcc = MvccStore::new(wal.clone());
        let hook_world = Arc::clone(&world);
        // The store owns its hooks, so the hook reaches back through a
        // weak handle (a strong one would keep the store alive forever).
        let latch = mvcc.downgrade();
        let hook_failure = Arc::new(OnceLock::new());
        let first_failure = Arc::clone(&hook_failure);
        mvcc.add_commit_hook(move |writes| {
            // The write set is committed and durable by now. If the model
            // stores cannot take it they no longer agree with the version
            // store, and every later write would widen the gap: stop
            // accepting writes and say why. Reads keep serving. The
            // reason is kept apart from the latch too, whose own reason
            // on a replica is that it is one.
            if let Err(e) = apply_committed(&hook_world, writes) {
                // Only the first failure is kept.
                let _ = first_failure.set(e.to_string());
                if let Some(store) = latch.upgrade() {
                    store.latch_read_only(&format!("commit hook failed: {e}"));
                }
            }
        });
        Database {
            world,
            mvcc,
            wal,
            ckpt: CheckpointState::default(),
            ddl: Mutex::with_rank(lock_rank::CORE_DDL, ()),
            hook_failure,
            _release: ReleaseOnDrop,
        }
    }

    /// The query-visible world of model stores: the read view MMQL runs
    /// against. Every container, index, tree, document, row, key, vertex,
    /// edge and triple in it arrived through the log and the commit hook;
    /// define through the DDL methods and write through a [`Session`] or
    /// the auto-commit calls, never into these stores. The one exception
    /// is the spatial R-trees (`World::create_spatial_index`), a
    /// process-local fixture outside the log.
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

    /// The log position just past the last installed commit. On a primary
    /// this tracks local commits; a replica's log is its primary's, so
    /// there it is how far the replica has applied, in the primary's log,
    /// and the same accessor answers "how far along is this node" on both
    /// ends.
    pub fn last_commit_lsn(&self) -> u64 {
        self.mvcc.last_commit_lsn()
    }

    // ---- DDL -------------------------------------------------------------
    //
    // Every container and index is a definition: one write to a `ddl/*`
    // domain, committed through the log like any other, which the commit
    // hook turns into the store or index (`session::apply_committed`). So
    // the catalog survives a reopen and a checkpoint and reaches replicas.
    // Each method first checks what the hook would fail on.

    /// Commit one definition: `value` at `key` in `domain`, claiming the
    /// catalog name `name` if given. It is `AlreadyExists` if `key` is
    /// defined or `name` held. Definers take turns from the check until the
    /// hook has updated the catalog, so only a raw write of a held name
    /// reaches the hook, which latches the store.
    fn define(&self, domain: &str, key: &str, name: Option<&str>, value: Value) -> Result<()> {
        let _turn = self.ddl.lock();
        if let Some((name, held)) = name.and_then(|n| self.world.catalog.get(n).map(|c| (n, c))) {
            return Err(Error::AlreadyExists(format!("{} '{name}'", held.kind())));
        }
        self.mvcc.run(IsolationLevel::Serializable, 3, |txn| {
            if txn.contains(domain, key.as_bytes())? {
                let what = domain.trim_start_matches("ddl/");
                return Err(Error::AlreadyExists(format!("{what} '{key}'")));
            }
            txn.put(domain, key.as_bytes(), value.clone())
        })
    }

    /// Create a document collection.
    pub fn create_collection(&self, name: &str) -> Result<()> {
        self.define("ddl/collection", name, Some(name), no_params())
    }

    /// Create a relational table. The definition holds the schema, so
    /// the table comes back, constraints included, before its rows do.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        self.define("ddl/table", name, Some(name), schema.to_value())
    }

    /// Create a key/value bucket.
    pub fn create_bucket(&self, name: &str) -> Result<()> {
        self.define("ddl/bucket", name, Some(name), no_params())
    }

    /// Create a property graph. Its name may not contain `/`, which
    /// separates it from its collections' names in their domains.
    pub fn create_graph(&self, name: &str) -> Result<()> {
        if name.contains('/') {
            return Err(Error::Schema(format!("graph name '{name}' contains '/'")));
        }
        self.define("ddl/graph", name, Some(name), no_params())
    }

    /// Create a vertex collection in a graph.
    pub fn create_vertex_collection(&self, graph: &str, name: &str) -> Result<()> {
        self.world.catalog.graph(graph)?;
        self.define("ddl/graph", &format!("{graph}/v/{name}"), Some(name), no_params())
    }

    /// Create an edge collection in a graph.
    pub fn create_edge_collection(&self, graph: &str, name: &str) -> Result<()> {
        self.world.catalog.graph(graph)?;
        self.define("ddl/graph", &format!("{graph}/e/{name}"), Some(name), no_params())
    }

    /// Create a secondary index on `path` of `source`, built from the
    /// current data: a persistent (B+-tree) index when `source` is a
    /// document collection, whose `path` must name one value (no `[*]`),
    /// and a column index when it is a table, whose `path` is a column.
    pub fn create_index(&self, source: &str, path: &str) -> Result<()> {
        let kind = match self.world.catalog.get(source) {
            Some(Container::Collection(_)) => {
                if !mmdb_types::Path::parse(path)?.is_point() {
                    return Err(Error::Unsupported("wildcard paths cannot be indexed yet".into()));
                }
                "persistent"
            }
            Some(Container::Table(table)) => {
                table.schema().column_index(path)?;
                "column"
            }
            _ => return Err(Error::NotFound(format!("'{source}' is not a collection or table"))),
        };
        let def = Value::object([
            ("kind", Value::str(kind)),
            ("source", Value::str(source)),
            ("path", Value::str(path)),
        ]);
        self.define("ddl/index", &format!("{kind}/{source}/{path}"), None, def)
    }

    /// Create a collection's GIN index (one per collection), built from
    /// its current documents.
    pub fn create_gin_index(&self, collection: &str, mode: GinMode) -> Result<()> {
        self.world.catalog.collection(collection)?;
        let def = Value::object([
            ("kind", Value::str("gin")),
            ("source", Value::str(collection)),
            ("mode", Value::str(mode.name())),
        ]);
        self.define("ddl/index", &format!("gin/{collection}"), None, def)
    }

    /// Create a full-text index named `name` over a collection field,
    /// built from the collection's current documents.
    pub fn create_fulltext_index(&self, name: &str, collection: &str, field: &str) -> Result<()> {
        self.world.catalog.collection(collection)?;
        let def = Value::object([
            ("kind", Value::str("fulltext")),
            ("source", Value::str(collection)),
            ("field", Value::str(field)),
        ]);
        self.define("ddl/index", &format!("fulltext/{name}"), Some(name), def)
    }

    /// Register an XML document under a name, for `XPATH`. The text is
    /// parsed here, so a malformed one is refused before it is logged.
    pub fn register_xml(&self, name: &str, xml_text: &str) -> Result<()> {
        mmdb_xml::parse_xml(xml_text)?;
        self.define("ddl/tree", name, Some(name), Value::object([("xml", Value::str(xml_text))]))
    }

    /// Register a JSON document as a queryable tree under a name.
    pub fn register_json_tree(&self, name: &str, json_text: &str) -> Result<()> {
        let json = mmdb_types::from_json(json_text)?;
        self.define("ddl/tree", name, Some(name), Value::object([("json", json)]))
    }

    /// The key/value buckets, as a read view (see [`Database::world`]).
    pub fn kv(&self) -> KvView<'_> {
        KvView(&self.world.catalog)
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
        self.world.catalog.collection(collection)?.get(key)
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

    /// Take a checkpoint: rewrite the log's prefix below its durable tail
    /// `T` as one image block holding the prefix's fold
    /// ([`Wal::fold_prefix`]), append a durable `Checkpoint` marker — the
    /// cue for replicas to checkpoint too — and vacuum MVCC version chains
    /// below the oldest open snapshot ([`MvccStore::vacuum`]).
    ///
    /// Commits keep going throughout: the rewrite reads a prefix no
    /// commit touches any more, and only its final rename waits for the
    /// log's lock. A crash at any point leaves the old log or the new
    /// one, and both recover the same state. In-memory logged databases
    /// rewrite their memory log the same way.
    ///
    /// A read-only store's log takes no local append, so its checkpoint
    /// is a `read_only` error: a replica folds only at its primary's
    /// markers ([`Database::checkpoint_at`]), and its positions stay its
    /// primary's.
    pub fn checkpoint(&self) -> Result<CheckpointSummary> {
        if let Some(reason) = self.mvcc.degraded_reason() {
            return Err(Error::ReadOnly(format!("no checkpoint on a read-only store: {reason}")));
        }
        self.fold_log(None)
    }

    /// A replica's checkpoint, cued by a marker it streamed and appended:
    /// fold the log at `horizon`, the marker's `snapshot_lsn` — the `T`
    /// its primary folded at, so both write the same image over the same
    /// bytes — append no marker, and vacuum.
    pub fn checkpoint_at(&self, horizon: Lsn) -> Result<CheckpointSummary> {
        self.fold_log(Some(horizon))
    }

    /// Fold the log at `horizon`, or at the durable tail and then append
    /// a marker; vacuum; count.
    fn fold_log(&self, horizon: Option<Lsn>) -> Result<CheckpointSummary> {
        let _one_at_a_time = self.ckpt.serial.lock();
        let started = Instant::now();
        let mut summary = CheckpointSummary::default();
        if let Some(wal) = &self.wal {
            let folded = wal.fold_prefix(horizon.unwrap_or_else(|| wal.durable_lsn()))?;
            if horizon.is_none() {
                wal.append_checkpoint(folded.horizon)?;
            }
            summary.snapshot_lsn = folded.horizon;
            summary.entries = folded.entries;
            summary.snapshot_bytes = folded.image_bytes;
            summary.wal_bytes_reclaimed = folded.reclaimed;
        }
        // Versions below the oldest open snapshot are redundant with the
        // log's image — trim them (ROADMAP: first step toward epoch-based
        // reclamation).
        summary.versions_vacuumed = self.mvcc.vacuum();
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
    /// `None` only when no checkpoint has ever happened *and* the log has
    /// never been checkpointed: reopening a checkpointed database resumes
    /// the clock from the time in the log's header.
    pub fn seconds_since_checkpoint(&self) -> Option<u64> {
        self.ckpt.last_at.lock().map(|(at, base)| (base + at.elapsed()).as_secs())
    }

    /// Physical WAL size in bytes, image included (0 without a WAL) — an
    /// `ADMIN STATS` gauge.
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

    /// Why the commit hook first failed to apply a committed write set to
    /// the model stores, if it ever has (`ADMIN HEALTH`'s
    /// `hook_failure`). Such a failure latches the store read-only, but a
    /// replica is latched from the start and its latch keeps that first
    /// reason, so this is where a replica's hook failure shows.
    pub fn hook_failure(&self) -> Option<String> {
        self.hook_failure.get().cloned()
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

/// The value of a definition that is nothing but its name: a collection,
/// a bucket, a graph, a vertex or edge collection.
fn no_params() -> Value {
    Value::Object(Default::default())
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
        // The version store holds the document too (snapshot source), and
        // the collection's definition.
        assert!(db.mvcc().get_latest("doc/c", b"k").unwrap().is_some());
        assert!(db.mvcc().get_latest("ddl/collection", b"c").unwrap().is_some());
        let (commits, _) = db.mvcc().stats();
        assert_eq!(commits, 2);
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
        // The write after it in the same set is applied all the same.
        let mut txn = db.mvcc().begin(IsolationLevel::Snapshot);
        txn.put("rel/t", b"k", Value::int(7)).unwrap();
        txn.put("kv/cart", b"1", Value::str("o1-v2")).unwrap();
        txn.commit().unwrap();

        assert!(db.is_degraded());
        let reason = db.degraded_reason().expect("a reason is recorded");
        let failure = db.hook_failure().expect("the hook's failure is recorded");
        assert_eq!(reason, format!("commit hook failed: {failure}"));
        // Reads still serve; the next write fails fast.
        assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("o1-v2")));
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
            // Model stores are rebuilt from the WAL alone: every
            // container comes back from its definition, then its data.
            assert_eq!(
                db.get_document("orders", "o1").unwrap().unwrap().get_field("total"),
                &Value::int(66)
            );
            assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("o1")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_kv_key_is_refused_and_the_store_stays_writable() {
        let dir = std::env::temp_dir().join(format!("mmdb-empty-key-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.create_bucket("cart").unwrap();
            let err = db.kv_put("cart", "", Value::str("o1")).unwrap_err();
            assert_eq!(err.kind(), "schema", "{err}");
            let err = db.transact(IsolationLevel::Snapshot, 0, |s| s.kv_delete("cart", "")).unwrap_err();
            assert_eq!(err.kind(), "schema", "{err}");
            db.kv_put("cart", "1", Value::str("o1")).unwrap();
            assert!(!db.is_degraded(), "{:?}", db.degraded_reason());
        }
        {
            let db = Database::open(&dir).unwrap();
            assert!(!db.is_degraded(), "{:?}", db.degraded_reason());
            db.kv_put("cart", "2", Value::str("o2")).unwrap();
            db.create_collection("orders").unwrap();
            assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("o1")));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rewrites_the_log_and_reopen_reads_its_image() {
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
    fn a_session_open_across_a_checkpoint_reads_its_snapshot() {
        let db = Database::in_memory_logged();
        db.create_bucket("cart").unwrap();
        db.kv_put("cart", "k", Value::int(1)).unwrap();
        db.kv_put("cart", "gone", Value::int(1)).unwrap();
        let open = db.begin(IsolationLevel::Snapshot);
        db.kv_put("cart", "k", Value::int(2)).unwrap();
        db.transact(IsolationLevel::Snapshot, 0, |s| s.kv_delete("cart", "gone")).unwrap();
        db.checkpoint().unwrap();
        assert_eq!(open.kv_get("cart", "k").unwrap(), Some(Value::int(1)));
        assert_eq!(open.kv_get("cart", "gone").unwrap(), Some(Value::int(1)));
        drop(open);
        // Once the session is gone the next checkpoint reclaims them.
        assert_eq!(db.checkpoint().unwrap().versions_vacuumed, 3);
        assert_eq!(db.kv().get("cart", "k").unwrap(), Some(Value::int(2)));
    }

    #[test]
    fn a_wal2_log_is_refused_and_a_stale_snapshot_file_is_ignored() {
        let dir = std::env::temp_dir().join(format!("mmdb-ckpt-format-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.create_collection("c").unwrap();
            db.insert_json("c", r#"{"_key":"k","v":1}"#).unwrap();
        }
        // A headerless log holds its whole history: a snapshot file left
        // beside it by the retired layout changes nothing.
        std::fs::write(dir.join("mmdb.snapshot"), b"MMDBSNP1 stale").unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.get_document("c", "k").unwrap().unwrap().get_field("v"), &Value::int(1));
        drop(db);

        // The retired layout kept its prefix in that file: refused, and
        // nothing on disk changes.
        let wal = dir.join("mmdb.wal");
        let mut bytes = vec![0xFF, 0xFF, 0xFF, 0xFF, b'W', b'A', b'L', b'2'];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&std::fs::read(&wal).unwrap());
        std::fs::write(&wal, &bytes).unwrap();
        let err = Database::open(&dir).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), "unsupported", "{err}");
        assert_eq!(Wal::open(&wal).err().map(|e| e.kind()), Some("unsupported"));
        assert_eq!(std::fs::read(&wal).unwrap(), bytes);
        assert_eq!(std::fs::read(dir.join("mmdb.snapshot")).unwrap(), b"MMDBSNP1 stale");
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
        assert!(summary.snapshot_bytes > 0, "the memory log holds its image too");
        assert_eq!(summary.entries, 11, "ten documents and the collection");
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
        db.create_index("p", "price").unwrap();
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
        db.create_index("p", "price").unwrap();
        let after = db.explain_analyze(q).unwrap();
        assert!(after.contains("index 'price'"), "{after}");
        assert!(!after.contains("full scan"), "{after}");
        assert!(after.contains("rows returned: 2"), "{after}");
    }
}
