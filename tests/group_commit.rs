//! Group-commit torture and property suite. Built only with
//! `--features failpoints` (see the `[[test]]` entry in Cargo.toml);
//! `scripts/ci.sh` runs it.
//!
//! The group-commit sequencer (crates/txn/src/mvcc.rs) batches
//! concurrent committers onto one contiguous WAL append and a single
//! fsync. This suite proves the batching is real and loses nothing:
//!
//!   1. a 64-writer torture run costs far fewer `wal.sync` calls than
//!      commits (measured through the failpoint hit counters), and every
//!      acknowledged commit survives a reopen;
//!   2. with a 1ms delayed-fsync failpoint — the regime group commit
//!      exists for — eight concurrent writers beat the serial-fsync
//!      baseline by at least 3× in throughput and fsync count, and a
//!      snapshot begun inside the stretched append→install window never
//!      covers the in-flight commit (the `snapshot_ts` watermark);
//!   3. crashing the leader at every `txn.group_commit.*` site mid-batch
//!      under multi-writer load recovers, byte-identical, to a state
//!      some serial-commit oracle produces: acknowledged commits
//!      present, every transaction atomic, no torn or phantom writes;
//!   4. an injected error between the batch append and its fsync latches
//!      the store degraded (the fsyncgate rule), and a reopen clears it;
//!   5. a replica tailing the primary's WAL stream converges
//!      byte-for-byte over a group-committed log;
//!   6. property tests: random interleavings of begin/put/delete/commit/
//!      abort across overlapping write sets match the serial
//!      first-committer-wins SI model exactly — one winner per conflict
//!      — and the WAL the group path writes replays to the identical
//!      committed state.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use mmdb::substrate::repl::{ReplicaOptions, ReplicaRunner};
use mmdb::substrate::storage::wal::recover_from_bytes;
use mmdb::substrate::storage::Wal;
use mmdb::substrate::txn::{IsolationLevel, MvccStore};
use mmdb::{fault, Database, Value};
use mmdb_client::ClientConfig;
use mmdb_server::{Server, ServerConfig};

/// Failpoints are process-global, so the tests in this binary serialize.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fault::clear_all();
    guard
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-group-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `f` with the panic hook silenced, so injected leader crashes do
/// not spray backtraces over the test output.
fn silence_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = f();
    let _ = panic::take_hook();
    panic::set_hook(prev);
    result
}

/// JSON dump of `keys` in a kv bucket — `Null` for absent — so state
/// comparisons are byte-identical, not merely structurally equal.
fn kv_dump(db: &Database, bucket: &str, keys: &[String]) -> String {
    let vals: Vec<Value> = keys
        .iter()
        .map(|k| db.kv().get(bucket, k).ok().flatten().unwrap_or(Value::Null))
        .collect();
    mmdb::to_json(&Value::Array(vals))
}

#[test]
fn sixty_four_writers_share_fsyncs_and_lose_nothing() {
    const WRITERS: usize = 64;
    const TXNS_EACH: usize = 4;
    const TXNS: u64 = (WRITERS * TXNS_EACH) as u64;

    let _serial = lock();
    let dir = fresh_dir("torture");
    let db = Database::open(&dir).unwrap();
    db.create_bucket("t").unwrap();

    let (commits0, aborts0) = db.mvcc().stats();
    let g0 = db.mvcc().group_commit_stats();
    let syncs0 = fault::hits("wal.sync");
    // A 1ms fsync is the regime group commit exists for: while the
    // leader sleeps in `sync`, the other writers pile onto the queue.
    fault::set("wal.sync", "delay(1)").unwrap();

    let gate = Barrier::new(WRITERS);
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let db = &db;
            let gate = &gate;
            scope.spawn(move || {
                gate.wait();
                for j in 0..TXNS_EACH {
                    db.kv_put("t", &format!("w{t}-{j}"), Value::int((t * 10 + j) as i64))
                        .unwrap();
                }
            });
        }
    });
    fault::clear_all();

    let (commits1, aborts1) = db.mvcc().stats();
    assert_eq!(commits1 - commits0, TXNS, "every distinct-key commit must succeed");
    assert_eq!(aborts1 - aborts0, 0, "distinct keys must never conflict");

    // The headline claim: fsyncs ≪ commits, measured at the `wal.sync`
    // failpoint (its hit counter counts every evaluation, armed or not).
    let syncs = fault::hits("wal.sync") - syncs0;
    assert!(
        syncs * 4 <= TXNS,
        "group commit saved too few fsyncs: {syncs} syncs for {TXNS} commits"
    );

    // The sequencer's own accounting agrees with the observed batching.
    let g1 = db.mvcc().group_commit_stats();
    let (batches, txns) = (g1.batches - g0.batches, g1.txns - g0.txns);
    let saved = g1.fsyncs_saved - g0.fsyncs_saved;
    assert_eq!(txns, TXNS, "every commit must flow through the sequencer");
    assert_eq!(batches + saved, txns, "each batch of n transactions saves n-1 fsyncs");
    assert!(saved > 0, "64 hot writers against a 1ms fsync must batch at least once");
    assert!(g1.max_group_size >= 2, "no multi-transaction batch ever formed");

    // Nothing acknowledged is lost: a cold reopen replays all 256.
    drop(db);
    let db = Database::open(&dir).unwrap();
    for t in 0..WRITERS {
        for j in 0..TXNS_EACH {
            assert_eq!(
                db.kv().get("t", &format!("w{t}-{j}")).unwrap(),
                Some(Value::int((t * 10 + j) as i64)),
                "commit w{t}-{j} vanished across reopen"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eight_writers_triple_serial_fsync_throughput() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const TXNS: usize = 96;
    const WRITERS: usize = 8;

    let _serial = lock();
    // A 5ms sync, not 1ms: both runs then spend their time in syncs, so
    // the throughput ratio below follows from the sync counts and not
    // from how this box schedules eight threads on two vCPUs.
    fault::set("wal.sync", "delay(5)").unwrap();

    // Serial-fsync baseline: one writer, so every batch is a singleton
    // and every commit pays the full 5ms sync.
    let serial = MvccStore::new(Some(Arc::new(Wal::in_memory())));
    let syncs0 = fault::hits("wal.sync");
    let started = Instant::now();
    for i in 0..TXNS {
        let mut t = serial.begin(IsolationLevel::Snapshot);
        t.put("kv/bench", format!("s{i}").as_bytes(), Value::int(i as i64)).unwrap();
        t.commit().unwrap();
    }
    let serial_elapsed = started.elapsed();
    let serial_syncs = fault::hits("wal.sync") - syncs0;
    assert_eq!(serial_syncs, TXNS as u64, "a lone writer must pay one fsync per commit");

    // Same commit count across eight writers: batches amortize the sync.
    // The writers draw from one counter instead of owning a twelfth each:
    // a leader commits nothing of its own while the queue keeps it
    // leading, and a fixed share would be left over as a tail of
    // one-commit batches (33-35 fsyncs against the bound of 32). Drawn
    // this way the worst steady state is seven writers in two alternating
    // batches, 96 / 7 * 2 = 28 fsyncs.
    let grouped = MvccStore::new(Some(Arc::new(Wal::in_memory())));
    let syncs0 = fault::hits("wal.sync");
    let gate = Barrier::new(WRITERS);
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let store = grouped.clone();
            let (gate, next) = (&gate, &next);
            scope.spawn(move || {
                gate.wait();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= TXNS {
                        break;
                    }
                    let mut t = store.begin(IsolationLevel::Snapshot);
                    t.put("kv/bench", format!("g{i}").as_bytes(), Value::int(i as i64)).unwrap();
                    t.commit().unwrap();
                }
            });
        }
    });
    let grouped_elapsed = started.elapsed();
    let grouped_syncs = fault::hits("wal.sync") - syncs0;
    fault::clear_all();

    let (commits, aborts) = grouped.stats();
    assert_eq!((commits, aborts), (TXNS as u64, 0));
    assert!(
        grouped_syncs * 3 <= serial_syncs,
        "8 writers needed {grouped_syncs} fsyncs vs {serial_syncs} serial — batching failed"
    );
    assert!(
        grouped_elapsed * 3 <= serial_elapsed,
        "8-writer group commit must be ≥3× serial-fsync throughput: \
         {grouped_elapsed:?} grouped vs {serial_elapsed:?} serial"
    );
}

/// Regression: the sequencer allocates commit timestamps *before* the
/// WAL append and version install, so `begin` must read the
/// post-install `snapshot_ts` watermark, not the allocation clock — a
/// snapshot taken from the raw clock inside that window covers an
/// allocated-but-uninstalled commit and watches the key change under
/// it between two reads. The delayed-fsync failpoint stretches the
/// allocate→install window to milliseconds, which turns what was a
/// one-in-a-thousand flake (`snapshot_readers_are_stable_under_writes`
/// in tests/concurrency.rs under a loaded machine) into a deterministic
/// failure without the watermark.
#[test]
fn snapshots_never_cover_a_commit_parked_in_the_sync_window() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const COMMITS: i64 = 60;
    let _serial = lock();
    fault::set("wal.sync", "delay(2)").unwrap();

    let store = MvccStore::new(Some(Arc::new(Wal::in_memory())));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = store.clone();
        let done = &done;
        scope.spawn(move || {
            for i in 0..COMMITS {
                let mut t = writer.begin(IsolationLevel::Snapshot);
                t.put("kv/counters", b"c", Value::int(i)).unwrap();
                t.commit().unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        let reader = store.clone();
        scope.spawn(move || {
            while !done.load(Ordering::SeqCst) {
                let t = reader.begin(IsolationLevel::Snapshot);
                let first = t.get("kv/counters", b"c").unwrap();
                std::thread::yield_now();
                let second = t.get("kv/counters", b"c").unwrap();
                assert_eq!(first, second, "a snapshot moved inside the fsync window");
                t.abort();
            }
        });
    });
    fault::clear_all();
    assert_eq!(store.get_latest("kv/counters", b"c"), Some(Value::int(COMMITS - 1)));
}

/// What a committer thread observed for its transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ack {
    Committed,
    Refused,
    Crashed,
}

#[test]
fn leader_crash_at_every_group_site_recovers_to_a_serial_oracle() {
    const WRITERS: usize = 8;
    let _serial = lock();
    for site in
        ["txn.group_commit.enqueue", "txn.group_commit.before_sync", "txn.group_commit.after_sync"]
    {
        fault::clear_all();
        let dir = fresh_dir(&format!("site-{}", site.replace('.', "-")));
        let db = Database::open(&dir).unwrap();
        db.create_bucket("t").unwrap();
        for b in 0..4 {
            db.kv_put("t", &format!("base-{b}"), Value::int(b)).unwrap();
        }

        // Eight concurrent two-key transactions with the leader doomed to
        // crash mid-batch. Every injected panic stays on its own thread.
        let hits_before = fault::hits(site);
        fault::set(site, "panic").unwrap();
        let gate = Barrier::new(WRITERS);
        let acks: Vec<Ack> = silence_panics(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..WRITERS)
                    .map(|i| {
                        let db = &db;
                        let gate = &gate;
                        scope.spawn(move || {
                            gate.wait();
                            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                                db.transact(IsolationLevel::Snapshot, 0, |s| {
                                    s.kv_put("t", &format!("a-{i}"), Value::int(i as i64))?;
                                    s.kv_put("t", &format!("b-{i}"), Value::int(i as i64))
                                })
                            }));
                            match outcome {
                                Ok(Ok(_)) => Ack::Committed,
                                Ok(Err(_)) => Ack::Refused,
                                Err(_) => Ack::Crashed,
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        });
        fault::clear_all();
        assert!(fault::hits(site) > hits_before, "site {site}: failpoint never fired");
        assert!(
            acks.contains(&Ack::Crashed),
            "site {site}: no leader ever crashed — the site is off the batch path"
        );
        // Armed for the whole phase, every batch leader dies before
        // publishing a success, so nothing may have been acknowledged.
        assert!(
            !acks.contains(&Ack::Committed),
            "site {site}: a commit was acknowledged under a crashing leader: {acks:?}"
        );
        drop(db);

        // Reopen: recovery replays whatever prefix of batches reached the
        // log. Which transactions survive is schedule-dependent — the
        // invariants are not.
        let db = Database::open(&dir).unwrap();
        let mut survivors = Vec::new();
        for (i, ack) in acks.iter().enumerate() {
            let a = db.kv().get("t", &format!("a-{i}")).unwrap();
            let b = db.kv().get("t", &format!("b-{i}")).unwrap();
            assert_eq!(
                a.is_some(),
                b.is_some(),
                "site {site}: transaction {i} recovered non-atomically (a={a:?}, b={b:?})"
            );
            if *ack == Ack::Committed {
                assert!(a.is_some(), "site {site}: acknowledged commit {i} lost");
            }
            if a.is_some() {
                survivors.push(i);
            }
        }
        if site == "txn.group_commit.enqueue" {
            // A crash before the hand-off never reaches a leader: no
            // trace of any doomed transaction may exist.
            assert!(survivors.is_empty(), "site {site}: unsequenced txns resurfaced: {survivors:?}");
        }

        // Byte-identical against a serial-commit oracle: a fresh database
        // that commits the baseline plus exactly the surviving
        // transactions one at a time must produce the same bytes.
        let oracle_dir = fresh_dir("oracle");
        let oracle = Database::open(&oracle_dir).unwrap();
        oracle.create_bucket("t").unwrap();
        for b in 0..4 {
            oracle.kv_put("t", &format!("base-{b}"), Value::int(b)).unwrap();
        }
        for &i in &survivors {
            oracle
                .transact(IsolationLevel::Snapshot, 0, |s| {
                    s.kv_put("t", &format!("a-{i}"), Value::int(i as i64))?;
                    s.kv_put("t", &format!("b-{i}"), Value::int(i as i64))
                })
                .unwrap();
        }
        let mut keys: Vec<String> = (0..4).map(|b| format!("base-{b}")).collect();
        for i in 0..WRITERS {
            keys.push(format!("a-{i}"));
            keys.push(format!("b-{i}"));
        }
        assert_eq!(
            kv_dump(&db, "t", &keys),
            kv_dump(&oracle, "t", &keys),
            "site {site}: recovered state diverged from the serial-commit oracle"
        );

        // The recovered engine accepts new writes.
        db.kv_put("t", "post-recovery", Value::str(site)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&oracle_dir);
    }
}

#[test]
fn an_error_between_batch_append_and_fsync_latches_degraded() {
    let _serial = lock();
    let dir = fresh_dir("degraded");
    let db = Database::open(&dir).unwrap();
    db.create_bucket("t").unwrap();
    db.kv_put("t", "base", Value::int(1)).unwrap();

    // The batch is in the log but its durability is unknowable — the
    // same condition as a failed fsync, and the same consequence.
    fault::set("txn.group_commit.before_sync", "error").unwrap();
    let err = db.kv_put("t", "pending", Value::int(2)).unwrap_err();
    fault::clear_all();
    assert_eq!(err.kind(), "storage", "{err}");
    assert!(db.is_degraded(), "an unsynced batch append must latch degraded mode");

    // Writes are refused fast; reads keep serving the pre-latch state.
    let err = db.kv_put("t", "rejected", Value::int(3)).unwrap_err();
    assert_eq!(err.kind(), "read_only", "{err}");
    assert_eq!(db.kv().get("t", "base").unwrap(), Some(Value::int(1)));
    assert_eq!(db.kv().get("t", "pending").unwrap(), None, "unacknowledged write visible");

    // Reopen clears the latch. The ambiguous batch *did* reach the log
    // file on this machine, so recovery replays it — the transaction was
    // never acknowledged, but resurfacing is the allowed outcome for an
    // unknown-durability commit (what is forbidden is serving it before
    // the crash, checked above).
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert!(!db.is_degraded(), "reopen must clear the degraded latch");
    assert_eq!(db.kv().get("t", "pending").unwrap(), Some(Value::int(2)));
    assert_eq!(db.kv().get("t", "rejected").unwrap(), None, "refused write resurfaced");
    db.kv_put("t", "after", Value::int(4)).unwrap();
    assert_eq!(db.kv().get("t", "after").unwrap(), Some(Value::int(4)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replicas_converge_byte_for_byte_over_a_group_committed_stream() {
    const WRITERS: usize = 8;
    const TXNS_EACH: usize = 8;

    let _serial = lock();
    let db = Arc::new(Database::in_memory_logged());
    db.create_bucket("t").unwrap();
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let replica_db = Arc::new(Database::in_memory());
    let opts = ReplicaOptions {
        reconnect_delay: Duration::from_millis(25),
        client: ClientConfig {
            read_timeout: Some(Duration::from_secs(2)),
            ..ReplicaOptions::default().client
        },
    };
    let runner = ReplicaRunner::start(Arc::clone(&replica_db), addr, opts).unwrap();

    // Concurrent writers while the replica tails the stream live: the
    // stream must only ever ship synced (durable) bytes, and batch
    // appends must arrive as whole Begin..Commit blocks.
    let gate = Barrier::new(WRITERS);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let db = &db;
            let gate = &gate;
            scope.spawn(move || {
                gate.wait();
                for i in 0..TXNS_EACH {
                    db.kv_put("t", &format!("w{w}-{i}"), Value::int((w * 100 + i) as i64))
                        .unwrap();
                }
            });
        }
    });

    // Every commit acked means every batch synced: the durable watermark
    // sits at the tail, and the replica must reach it.
    let tail = db.wal().unwrap().tail_lsn();
    assert_eq!(db.wal().unwrap().durable_lsn(), tail, "acked commits left unsynced bytes");
    let deadline = Instant::now() + Duration::from_secs(15);
    // lint: allow(tick, test helper poll loop with a hard 15s deadline)
    while !(runner.status().is_connected() && runner.status().applied_lsn() >= tail) {
        assert!(Instant::now() < deadline, "replica never caught up to the group-committed tail");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(runner.status().lag_bytes(), 0, "caught-up replica reports lag");

    let keys: Vec<String> = (0..WRITERS)
        .flat_map(|w| (0..TXNS_EACH).map(move |i| format!("w{w}-{i}")))
        .collect();
    assert_eq!(
        kv_dump(&replica_db, "t", &keys),
        kv_dump(&db, "t", &keys),
        "replica diverged from the group-committed primary"
    );

    runner.stop();
    server.shutdown().unwrap();
}

/// One transaction slot in the shadow-model property test: the live
/// transaction, its snapshot timestamp, and its buffered write set.
type OpenSlot = Option<(mmdb::substrate::txn::Transaction, u64, Vec<(u8, Option<i64>)>)>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleavings of begin/put/delete/commit/abort across three
    /// transaction slots and five overlapping keys behave exactly like
    /// the serial first-committer-wins SI model — same winners, same
    /// conflicts, same commit timestamps, same final state — and the WAL
    /// the group path wrote replays to the identical committed state.
    #[test]
    fn interleavings_match_the_serial_model_and_replay_from_the_wal(
        script in prop::collection::vec((0usize..3, 0u8..5, 0u8..5, 0i64..1000), 1..80),
    ) {
        let _serial = lock();
        let wal = Arc::new(Wal::in_memory());
        let store = MvccStore::new(Some(Arc::clone(&wal)));
        // The shadow model: a logical clock that ticks once per winning
        // commit, and per-key (commit_ts, value) of the latest winner.
        let mut clock: u64 = 1;
        let mut committed: std::collections::BTreeMap<u8, (u64, Option<i64>)> =
            Default::default();
        let mut open: Vec<OpenSlot> = (0..3).map(|_| None).collect();
        for (slot, key, action, value) in script {
            let kb = [b'k', key];
            match action {
                0 => {
                    if let Some((t, _, _)) = open[slot].take() {
                        t.abort();
                    }
                    let t = store.begin(IsolationLevel::Snapshot);
                    prop_assert_eq!(t.start_ts(), clock, "snapshot must mirror the model clock");
                    open[slot] = Some((t, clock, Vec::new()));
                }
                1 => if let Some((t, _, w)) = open[slot].as_mut() {
                    t.put("kv/prop", &kb, Value::int(value)).unwrap();
                    w.push((key, Some(value)));
                },
                2 => if let Some((t, _, w)) = open[slot].as_mut() {
                    t.delete("kv/prop", &kb).unwrap();
                    w.push((key, None));
                },
                3 => if let Some((t, snap, w)) = open[slot].take() {
                    let conflict = w
                        .iter()
                        .any(|(k, _)| committed.get(k).is_some_and(|(ts, _)| *ts > snap));
                    let result = t.commit();
                    if w.is_empty() {
                        prop_assert!(result.is_ok(), "an empty commit must succeed");
                    } else if conflict {
                        prop_assert!(result.is_err(), "the model says conflict, the store committed");
                        prop_assert_eq!(result.unwrap_err().kind(), "txn_conflict");
                    } else {
                        clock += 1;
                        prop_assert_eq!(result.unwrap(), clock, "commit ts diverged from the model");
                        for (k, v) in w {
                            committed.insert(k, (clock, v));
                        }
                    }
                },
                _ => if let Some((t, _, _)) = open[slot].take() {
                    t.abort();
                },
            }
        }
        drop(open);
        // Exactly one winner per conflict and nothing else: the final
        // state is the model's, key by key.
        for key in 0u8..5 {
            let want = committed.get(&key).and_then(|(_, v)| v.map(Value::int));
            prop_assert_eq!(store.get_latest("kv/prop", &[b'k', key]), want);
        }
        // The group-committed WAL replays to the identical state.
        let recovery = recover_from_bytes(&wal.snapshot_bytes());
        prop_assert!(!recovery.torn_tail, "a clean run must not leave a torn tail");
        let replayed = MvccStore::new(None);
        replayed.recover(&recovery).unwrap();
        for key in 0u8..5 {
            prop_assert_eq!(
                replayed.get_latest("kv/prop", &[b'k', key]),
                store.get_latest("kv/prop", &[b'k', key]),
                "WAL replay diverged on key {}", key
            );
        }
    }

    /// K transactions writing the same key from the same snapshot:
    /// however commit and abort interleave, exactly the first committer
    /// wins and every later committer conflicts.
    #[test]
    fn overlapping_write_sets_have_exactly_one_winner(
        decisions in prop::collection::vec(any::<bool>(), 2..10),
    ) {
        let _serial = lock();
        let store = MvccStore::new(None);
        let mut txns = Vec::new();
        for i in 0..decisions.len() {
            let mut t = store.begin(IsolationLevel::Snapshot);
            t.put("kv/hot", b"key", Value::int(i as i64)).unwrap();
            txns.push(t);
        }
        let mut winner = None;
        for (i, (t, commit)) in txns.into_iter().zip(decisions.iter()).enumerate() {
            if *commit {
                let result = t.commit();
                if winner.is_none() {
                    prop_assert!(result.is_ok(), "the first committer must win");
                    winner = Some(i as i64);
                } else {
                    prop_assert_eq!(result.unwrap_err().kind(), "txn_conflict");
                }
            } else {
                t.abort();
            }
        }
        let (commits, aborts) = store.stats();
        prop_assert_eq!(commits, u64::from(winner.is_some()));
        prop_assert_eq!(aborts as usize, decisions.len() - usize::from(winner.is_some()));
        prop_assert_eq!(store.get_latest("kv/hot", b"key"), winner.map(Value::int));
    }
}
