//! Randomized stress tests for the transaction substrate: exact-once
//! effects under contention and retry, snapshot stability, and abort
//! hygiene.

use std::sync::Arc;
use std::thread;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mmdb_txn::{IsolationLevel, MvccStore};
use mmdb_types::Value;

/// Many threads increment random counters with retry loops; every
/// committed increment lands exactly once.
#[test]
fn concurrent_increments_are_exact_once() {
    for isolation in [IsolationLevel::Snapshot, IsolationLevel::Serializable] {
        let store = MvccStore::new(None);
        const THREADS: usize = 4;
        const OPS: usize = 60;
        const KEYS: u8 = 5;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = store.clone();
                thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64);
                    for _ in 0..OPS {
                        let key = [b'c', rng.gen_range(0..KEYS)];
                        store
                            .run(isolation, 1000, |txn| {
                                let v = txn
                                    .get("counters", &key)?
                                    .map(|v| v.as_int())
                                    .transpose()?
                                    .unwrap_or(0);
                                txn.put("counters", &key, Value::int(v + 1))
                            })
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = (0..KEYS)
            .map(|k| {
                store
                    .get_latest("counters", &[b'c', k])
                    .unwrap()
                    .map(|v| v.as_int().unwrap())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            total,
            (THREADS * OPS) as i64,
            "{isolation:?}: every increment exactly once"
        );
    }
}

/// Random interleavings of transfers among accounts conserve the total,
/// and vacuum never changes observable state.
#[test]
fn random_transfers_conserve_total() {
    let store = Arc::new(MvccStore::new(None));
    const ACCOUNTS: u8 = 8;
    const INITIAL: i64 = 100;
    {
        let mut t = store.begin(IsolationLevel::Snapshot);
        for a in 0..ACCOUNTS {
            t.put("acct", &[a], Value::int(INITIAL)).unwrap();
        }
        t.commit().unwrap();
    }
    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed);
                for _ in 0..80 {
                    let from = rng.gen_range(0..ACCOUNTS);
                    let to = rng.gen_range(0..ACCOUNTS);
                    if from == to {
                        continue;
                    }
                    let amount = rng.gen_range(1..10i64);
                    store
                        .run(IsolationLevel::Snapshot, 1000, |txn| {
                            let f = txn.get("acct", &[from])?.unwrap().as_int()?;
                            let g = txn.get("acct", &[to])?.unwrap().as_int()?;
                            txn.put("acct", &[from], Value::int(f - amount))?;
                            txn.put("acct", &[to], Value::int(g + amount))
                        })
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = |s: &MvccStore| -> i64 {
        (0..ACCOUNTS)
            .map(|a| s.get_latest("acct", &[a]).unwrap().unwrap().as_int().unwrap())
            .sum()
    };
    assert_eq!(total(&store), ACCOUNTS as i64 * INITIAL);
    let dropped = store.vacuum();
    assert!(dropped > 0, "contended history should have dead versions");
    assert_eq!(total(&store), ACCOUNTS as i64 * INITIAL, "vacuum is invisible");
}

/// Aborted transactions leave no residue even when interleaved with
/// committers on the same keys.
#[test]
fn aborts_leave_no_residue_under_interleaving() {
    let store = MvccStore::new(None);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut expected: std::collections::HashMap<u8, i64> = Default::default();
    for round in 0..200 {
        let key = rng.gen_range(0..10u8);
        let commit = rng.gen_bool(0.5);
        let mut t = store.begin(IsolationLevel::Snapshot);
        t.put("d", &[key], Value::int(round)).unwrap();
        if commit {
            t.commit().unwrap();
            expected.insert(key, round);
        } else {
            t.abort();
        }
    }
    for (key, want) in expected {
        assert_eq!(store.get_latest("d", &[key]).unwrap(), Some(Value::int(want)));
    }
    let (commits, aborts) = store.stats();
    assert!(commits > 0 && aborts > 0);
}
