//! Property tests for the storage substrate: heap files and the LSM
//! engine against shadow models, WAL recovery and checkpoint invariants,
//! and the checksum against a bytewise reference.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use mmdb_storage::lsm::{LsmConfig, LsmTree};
use mmdb_storage::wal::{crc32, fold, recover_from_bytes, Wal, WalRecord};
use mmdb_storage::{HeapFile, RecordId};

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(Vec<u8>),
    Delete(usize),
    Replace(usize, Vec<u8>),
    Scan,
}

/// A record of 1 B to 20 KiB: a run from a random first byte.
fn arb_record() -> impl Strategy<Value = Vec<u8>> {
    (1usize..=20 * 1024, any::<u8>())
        .prop_map(|(len, first)| (0..len).map(|i| first.wrapping_add(i as u8)).collect())
}

fn arb_heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    prop::collection::vec(
        prop_oneof![
            arb_record().prop_map(HeapOp::Insert),
            (0usize..40).prop_map(HeapOp::Delete),
            ((0usize..40), arb_record()).prop_map(|(i, d)| HeapOp::Replace(i, d)),
            Just(HeapOp::Scan),
        ],
        0..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A heap file behaves like a map id → bytes across inserts, deletes,
    /// replaces and scans: a replace keeps the id, an insert takes a freed
    /// slot while there is one, a scan visits the live records in
    /// ascending slot order, and `len` counts them.
    #[test]
    fn heap_file_matches_shadow(ops in arb_heap_ops()) {
        let heap = HeapFile::new(Arc::default());
        let mut shadow: HashMap<RecordId, Vec<u8>> = HashMap::new();
        let mut freed: BTreeSet<RecordId> = BTreeSet::new();
        // Every id the heap handed out, live or not, oldest first.
        let mut ids: Vec<RecordId> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Insert(data) => {
                    let id = heap.insert(data.clone()).unwrap();
                    prop_assert!(!shadow.contains_key(&id), "id {} is live", id);
                    if freed.is_empty() {
                        prop_assert_eq!(id as usize, shadow.len(), "a new slot goes at the end");
                    } else {
                        prop_assert!(freed.remove(&id), "id {} is not a freed slot", id);
                    }
                    shadow.insert(id, data);
                    ids.push(id);
                }
                HeapOp::Delete(i) => {
                    if let Some(&id) = ids.get(i) {
                        let live = shadow.remove(&id).is_some();
                        prop_assert_eq!(heap.delete(id).is_ok(), live);
                        if live {
                            freed.insert(id);
                        }
                    }
                }
                HeapOp::Replace(i, data) => {
                    if let Some(&id) = ids.get(i) {
                        let live = shadow.contains_key(&id);
                        prop_assert_eq!(heap.replace(id, data.clone()).is_ok(), live);
                        if live {
                            prop_assert_eq!(heap.get_with(id, <[u8]>::to_vec).unwrap(), data.clone());
                            shadow.insert(id, data);
                        }
                    }
                }
                HeapOp::Scan => {
                    let mut seen: Vec<(RecordId, Vec<u8>)> = Vec::new();
                    heap.scan_with(|id, bytes| {
                        seen.push((id, bytes.to_vec()));
                        Ok(())
                    })
                    .unwrap();
                    let mut want: Vec<(RecordId, Vec<u8>)> =
                        shadow.iter().map(|(&id, data)| (id, data.clone())).collect();
                    want.sort();
                    prop_assert_eq!(seen, want);
                }
            }
            prop_assert_eq!(heap.len(), shadow.len());
        }
        for (&id, data) in &shadow {
            prop_assert_eq!(heap.get_with(id, <[u8]>::to_vec).unwrap(), data.clone());
        }
        for &id in &freed {
            prop_assert!(heap.get_with(id, <[u8]>::len).is_err());
        }
    }

    /// The LSM tree equals a BTreeMap under random put/delete/scan,
    /// across flushes and compactions.
    #[test]
    fn lsm_matches_btreemap(
        ops in prop::collection::vec((any::<u8>(), any::<bool>()), 0..400),
        flush_every in 1usize..50,
    ) {
        let mut lsm = LsmTree::new(LsmConfig { memtable_bytes: 64, tier_fanout: 2 });
        let mut shadow: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
        for (i, (k, is_put)) in ops.iter().enumerate() {
            let key = vec![b'k', *k];
            if *is_put {
                let val = vec![*k, i as u8];
                lsm.put(key.clone(), val.clone()).unwrap();
                shadow.insert(key, val);
            } else {
                lsm.delete(key.clone()).unwrap();
                shadow.remove(&key);
            }
            if i % flush_every == 0 {
                lsm.flush().unwrap();
            }
        }
        for (k, v) in &shadow {
            prop_assert_eq!(lsm.get(k), Some(v.clone()));
        }
        let scan = lsm.scan(None, None);
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            shadow.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scan, want.clone());
        lsm.compact_full().unwrap();
        prop_assert_eq!(lsm.scan(None, None), want);
    }

    /// Recovery replays exactly the committed writes, in order, regardless
    /// of which blocks around them never committed — even ones whose txid
    /// a committed block reuses (the counter restarts on every open); any
    /// byte-suffix truncation of the log yields a prefix of the committed
    /// history.
    #[test]
    fn wal_recovery_is_prefix_consistent(
        txns in prop::collection::vec((any::<bool>(), 1usize..5, 1u64..=3), 1..10),
        cut in 0usize..2000,
    ) {
        let wal = Wal::in_memory();
        let mut committed_writes = Vec::new();
        for (t, &(commit, n_writes, txid)) in txns.iter().enumerate() {
            wal.append(&WalRecord::Begin { txid }).unwrap();
            for w in 0..n_writes {
                let key = format!("{t}-{w}").into_bytes();
                wal.append(&WalRecord::Write {
                    txid,
                    domain: "d".into(),
                    key: key.clone(),
                    value: Some(vec![w as u8]),
                }).unwrap();
                if commit {
                    committed_writes.push(key);
                }
            }
            if commit {
                wal.append(&WalRecord::Commit { txid }).unwrap();
            }
        }
        let bytes = wal.snapshot_bytes().unwrap();
        // Full recovery: exactly the committed writes in order.
        let rec = recover_from_bytes(&bytes);
        let got: Vec<Vec<u8>> = rec.redo.iter().map(|r| r.key.clone()).collect();
        prop_assert_eq!(&got, &committed_writes);
        // Truncated recovery: a prefix of the committed history (whole
        // transactions only).
        let cut = cut.min(bytes.len());
        let rec = recover_from_bytes(&bytes[..cut]);
        let got: Vec<Vec<u8>> = rec.redo.iter().map(|r| r.key.clone()).collect();
        prop_assert!(got.len() <= committed_writes.len());
        prop_assert_eq!(&got[..], &committed_writes[..got.len()]);
    }

    /// Slice-by-8 `crc32` equals the bytewise reference on every slice
    /// of a random string that starts at one of its first eight bytes and
    /// ends in one of its last eight: unaligned starts, every 0–7 byte
    /// tail, and lengths on both sides of the 8-byte step.
    #[test]
    fn crc32_matches_the_bytewise_reference(
        data in prop::collection::vec(any::<u8>(), 0..=100),
    ) {
        for start in 0..data.len().min(8) + 1 {
            for end in data.len().saturating_sub(8).max(start)..=data.len() {
                let slice = &data[start..end];
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "{}..{}", start, end);
            }
        }
    }

    /// A checkpoint changes what the log holds, never what it recovers:
    /// for any history of overwrites and deletes, some of it never
    /// committed, folded at its durable tail and then extended and folded
    /// again, the log recovers the state the never-folded history does,
    /// the image never outgrows the prefix it replaces, and the base only
    /// moves forward.
    #[test]
    fn a_checkpoint_keeps_the_state_the_log_recovers(
        before in arb_history(),
        after in arb_history(),
    ) {
        let folded = Wal::in_memory();
        let whole = Wal::in_memory();
        let mut base = 0;
        for (part, history) in [before, after].iter().enumerate() {
            for wal in [&folded, &whole] {
                for (t, (commit, writes)) in history.iter().enumerate() {
                    let txid = (part * 100 + t + 1) as u64;
                    let mut block = vec![WalRecord::Begin { txid }];
                    block.extend(writes.iter().map(|&(key, value)| {
                        let (key, value) = (vec![key], value.map(|v| vec![v]));
                        WalRecord::Write { txid, domain: "kv/cart".into(), key, value }
                    }));
                    block.extend(commit.then_some(WalRecord::Commit { txid }));
                    wal.append_batch(&block).unwrap();
                }
                wal.sync().unwrap();
            }
            let done = folded.fold_prefix(folded.durable_lsn()).unwrap();
            prop_assert_eq!(done.horizon, folded.tail_lsn());
            prop_assert!(folded.base_lsn() >= base);
            prop_assert_eq!(done.reclaimed, folded.base_lsn() - base);
            prop_assert_eq!(done.image_bytes, done.horizon - folded.base_lsn());
            base = folded.base_lsn();
            folded.append_checkpoint(done.horizon).unwrap();
        }
        let state = |wal: &Wal| {
            let rec = recover_from_bytes(&wal.snapshot_bytes().unwrap());
            let mut live: Vec<(Vec<u8>, Option<Vec<u8>>)> =
                fold(&rec.redo).into_iter().map(|w| (w.key.clone(), w.value.clone())).collect();
            live.sort();
            live
        };
        prop_assert_eq!(state(&folded), state(&whole));
    }
}

/// Transactions over four keys: whether each commits, and its writes
/// (`None` a delete).
fn arb_history() -> impl Strategy<Value = History> {
    let write = (0u8..4, any::<bool>(), any::<u8>()).prop_map(|(k, live, v)| (k, live.then_some(v)));
    prop::collection::vec((any::<bool>(), prop::collection::vec(write, 1..4)), 0..8)
}

type History = Vec<(bool, Vec<(u8, Option<u8>)>)>;

/// The bytewise CRC-32 (IEEE 802.3, reflected, one bit per step): the
/// oracle `crc32` is checked against.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Checksum values are the reference's, so a log written before `crc32`
/// changed shape still opens: every frame of a log carries the reference
/// checksum of its bytes, and the log reads back whole.
#[test]
fn logs_carry_the_reference_checksum() {
    let wal = Wal::in_memory();
    wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
    for (i, value) in [
        Some(vec![7u8; 19]),
        None,
        Some(b"a longer value than one step".to_vec()),
    ]
    .into_iter()
    .enumerate()
    {
        wal.append(&WalRecord::Write {
            txid: 1,
            domain: "kv/cart".into(),
            key: vec![i as u8],
            value,
        })
        .unwrap();
    }
    wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
    let bytes = wal.snapshot_bytes().unwrap();
    let mut rest = &bytes[..];
    let mut frames = 0;
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        assert_eq!(crc, crc32_bytewise(&rest[8..8 + len]), "frame {frames}");
        rest = &rest[8 + len..];
        frames += 1;
    }
    assert_eq!(frames, 5);
    assert_eq!(recover_from_bytes(&bytes).redo.len(), 3);
}
