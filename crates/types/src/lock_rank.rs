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
//! Read top to bottom, this is the longest path a request can take: a
//! lane executor holds its connection's session across the engine call,
//! the engine call may checkpoint or commit, the commit leader runs the
//! commit hooks, and the hooks apply the write set to the model stores,
//! which sit on heap files on the buffer pool.
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

// ---- core: checkpointing ---------------------------------------------------

/// `Database::checkpoint`'s one-at-a-time lock. Strictly outside the txn
/// hierarchy: the holder quiesces commits through `commit_mutex` to pick
/// the snapshot LSN, syncs and truncates the WAL, vacuums `versions` and
/// stamps `last_at` before it lets go.
pub const CHECKPOINT_SERIAL: Rank = Rank::new(30, "core.checkpoint.serial").held_across_waits();

// ---- txn: the commit pipeline ----------------------------------------------

/// The top of the txn hierarchy, held by the group-commit leader for a
/// whole batch (and by `apply_replicated` / `quiesce_commits`): validate
/// under `policy` then `versions`, append and sync the WAL, install into
/// `versions`, latch `degraded_reason` on a post-append failure, run the
/// hooks. The sequencer's queue (`group`) and the committers' `result`
/// slots are leaves released before this is taken; so are the lock
/// manager's table, `versions` and `degraded_reason`. Held across the
/// batch's fsync.
pub const TXN_COMMIT: Rank = Rank::new(40, "txn.commit_mutex").held_across_waits();

/// The per-domain consistency policy, read around each `versions` lookup.
pub const TXN_POLICY: Rank = Rank::new(50, "txn.policy");

/// The commit-hook list, read-held by the leader while every hook runs.
/// The hooks are `dyn Fn`s: `Database`'s applies the write set to the
/// model stores, so every store lock below nests under this one (and
/// under `commit_mutex`) in each commit, recovery and replicated apply. A
/// hook that fails latches `degraded_reason` from in here.
pub const TXN_HOOKS: Rank = Rank::new(60, "txn.hooks");

// ---- the model stores --------------------------------------------------------

/// `World::fulltext`. `FULLTEXT()` fetches the matching documents, and
/// index creation backfills from the collection, with the index map held:
/// above `collections` (a leaf) and the collection's own locks.
pub const WORLD_FULLTEXT: Rank = Rank::new(70, "query.world.fulltext");

/// `World::graphs`. Resolving a traversal's edge collection probes each
/// graph's `edges` under it.
pub const WORLD_GRAPHS: Rank = Rank::new(80, "query.world.graphs");

/// `Graph::vertices`. Collection DDL checks vertices before edges
/// (`create_vertex_collection` probes `edges` under it; the reverse
/// order never occurs), and counting or listing vertices reads the
/// collections' heaps under it.
pub const GRAPH_VERTICES: Rank = Rank::new(90, "graph.vertices");

/// `Graph::edges`; counting edges reads the collections' heaps under it.
/// (`Graph::edge_index` is a leaf.)
pub const GRAPH_EDGES: Rank = Rank::new(100, "graph.edges");

/// `KvStore::buckets`, read-held while one bucket's LSM tree (a leaf) is
/// read or written.
pub const KV_BUCKETS: Rank = Rank::new(110, "kv.buckets");

/// A document collection's index set, write-held while an index is
/// backfilled from the heap.
pub const DOCUMENT_INDEXES: Rank = Rank::new(120, "document.collection.indexes");

/// A relational table's index set, likewise. (`Catalog::tables` is a
/// leaf: a table is cloned out of it before it is used.)
pub const RELATIONAL_INDEXES: Rank = Rank::new(130, "relational.table.indexes");

// ---- storage -------------------------------------------------------------------

/// A heap file's allocator state, held while its pages are pinned in the
/// buffer pool.
pub const HEAP_STATE: Rank = Rank::new(140, "storage.heap.state");

/// The buffer pool's frame table, held across the disk manager's page
/// reads and writes (the in-memory backend's `pages` is a leaf).
pub const POOL_INNER: Rank = Rank::new(150, "storage.pool.inner");

/// The WAL's `inner`. Nothing is taken under it, but it is not an
/// anonymous leaf: `Wal::sync` holds it across `sync_data` (so that the
/// durable watermark cannot pass an append the sync did not cover), which
/// makes every append, tail read and LSN peek a possible wait for someone
/// else's fsync.
pub const WAL_INNER: Rank = Rank::new(160, "storage.wal.inner").held_across_waits();
