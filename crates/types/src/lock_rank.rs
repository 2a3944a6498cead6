//! The lock hierarchy: the one table of lock ranks in the workspace.
//!
//! A thread may take a lock only while every lock it already holds has a
//! strictly lower rank. Debug builds check that where the lock is taken
//! (the witness in `shims/parking_lot`, see DESIGN.md "Lock hierarchy");
//! this table is the order it enforces. A lock built with `Mutex::new` /
//! `RwLock::new` is a *leaf*: it ranks above every entry here and nothing
//! may be acquired under it. So only a lock that is ever held while
//! another is taken appears below, built with `with_rank(lock_rank::X, ..)`
//! — no rank literals at call sites. Levels leave gaps for a lock that
//! has to go between two others.
//!
//! Read top to bottom, these are the paths a request can take: a lane
//! executor holds its connection's session across the engine call; the
//! engine call may define (and commit under the DDL turn), checkpoint, or
//! commit — the leader takes the commit
//! mutex, then the committer, with the mutex released, runs the commit
//! hooks; and the hooks apply the write set to the model stores, which
//! keep their records in heap files (each behind a leaf lock).
//!
//! A rank marked `.held_across_waits()` is a lock its holders keep
//! through an fsync or a park, so taking it can last that long. The same
//! witness refuses those to a *hot* thread — the server's connection
//! reader, which runs only requests that cannot wait (DESIGN.md "Hot
//! threads").

pub use parking_lot::Rank;

// ---- server ----------------------------------------------------------------

/// `Server`'s connection registry. The reaper scans it and peeks each
/// connection's shared state (`ConnHandle::state`, a leaf) under it.
/// Connection state and the executor `jobs` queue never nest: the reader
/// drops `state` before it enqueues, executors pop before they touch a
/// connection.
pub const SERVER_REGISTRY: Rank = Rank::new(10, "server.registry");

/// A connection's `session` mutex. A lane executor (or the connection's
/// reader, for inline requests) holds it across the whole engine call, so
/// it sits above everything the engine can touch. Serial per connection,
/// hence uncontended; never take it while any engine lock is held.
pub const SERVER_SESSION: Rank = Rank::new(20, "server.session");

// ---- core: definitions -----------------------------------------------------

/// `Database::define`'s turn: held from the check that a name is free
/// until the commit hook has put the definition in the catalog, so two
/// definers of one name take turns. The commit runs under it (the commit
/// mutex, the hooks and the model stores), so it is held across the
/// commit's fsync.
pub const CORE_DDL: Rank = Rank::new(25, "core.ddl").held_across_waits();

// ---- core: checkpointing ---------------------------------------------------

/// `Database::checkpoint`'s one-at-a-time lock. The holder reads and
/// rewrites the WAL's prefix (`Wal::fold_prefix`, under `WAL_INNER` for
/// the rename), syncs the marker, vacuums `versions` and stamps `last_at`
/// before it lets go. It never takes `commit_mutex`: commits run beside
/// a checkpoint.
pub const CHECKPOINT_SERIAL: Rank = Rank::new(30, "core.checkpoint.serial").held_across_waits();

// ---- txn: the commit pipeline ----------------------------------------------

/// The commit-hook list, read-held by a committer while its hooks run
/// (the apply step, in each commit, recovery and replicated apply). The
/// hooks are `dyn Fn`s: `Database`'s applies the write set to the model
/// stores, so every store lock below nests under this one. A hook that
/// fails latches `degraded_reason` from in here. Ranked *above*
/// `commit_mutex`: the apply step runs after the commit mutex is
/// released, and a hook run under it is an order violation. The apply
/// turn (`applied`, waited for before this is taken) is a leaf.
pub const TXN_HOOKS: Rank = Rank::new(35, "txn.hooks");

/// Held by the group-commit leader for a whole batch, by
/// `apply_replicated` and by `load` — nothing outside `mvcc.rs` takes
/// it: validate under `versions`, append and sync the WAL, latch
/// `degraded_reason` on a post-append failure, install into `versions`. The sequencer's queue
/// (`group`) and the committers' `result` slots are leaves released
/// before this is taken; so are `versions` and `degraded_reason`. Held
/// across the batch's fsync.
pub const TXN_COMMIT: Rank = Rank::new(40, "txn.commit_mutex").held_across_waits();

// ---- the model stores --------------------------------------------------------

/// A document collection's index set — primary, persistent, GIN and
/// full-text — write-held across a put's or remove's heap write, so a
/// slot is freed only with every entry naming it gone, and while an
/// index is backfilled from the heap. Index reads (`FULLTEXT`, ranges,
/// GIN probes) take their record ids under it and fetch the documents
/// (the heap's leaf lock) after releasing it.
pub const DOCUMENT_INDEXES: Rank = Rank::new(120, "document.collection.indexes");

/// A relational table's index set, likewise. (Every other map on the way
/// to a record is a leaf that a handle is cloned out of before use: the
/// query catalog's, whose entry for a bucket holds the bucket's LSM tree
/// behind a leaf of its own, and a graph's map of its collections.)
pub const RELATIONAL_INDEXES: Rank = Rank::new(130, "relational.table.indexes");

// ---- storage -------------------------------------------------------------------

/// A WAL's rewrite lock, held for the whole of one rewrite (a
/// checkpoint's fold, a reset, a copy's first local append, a header
/// upgrade at open), so two never share `<log>.tmp`. It takes
/// `WAL_INNER` under it to read the log and to rename the new file over
/// it, and is held across the new file's fsyncs.
pub const WAL_REWRITE: Rank = Rank::new(150, "storage.wal.rewrite").held_across_waits();

/// The WAL's `inner`. Nothing is taken under it, but it is not an
/// anonymous leaf: `Wal::sync` holds it across `sync_data` (so that the
/// durable watermark cannot pass an append the sync did not cover), which
/// makes every append, tail read and LSN peek a possible wait for someone
/// else's fsync.
pub const WAL_INNER: Rank = Rank::new(160, "storage.wal.inner").held_across_waits();
