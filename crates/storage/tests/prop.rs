//! Property tests for the storage substrate: heap files and the LSM
//! engine against shadow models, WAL recovery and checkpoint invariants,
//! and the checksum against a bytewise reference.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use mmdb_storage::lsm::{LsmConfig, LsmTree};
use mmdb_storage::wal::{
    crc32, load_class, records, BlockAssembler, LoggedWrite, Lsn, Wal, WalRecord,
};
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

    /// Reopening a log installs the fold of its committed blocks and
    /// nothing else: for any history of overwrites and deletes across the
    /// load classes, some of its blocks never committed (orphans, even
    /// ones whose txid a committed block reuses, as the counter restarts
    /// on every open), cut at any byte (a torn tail), the reopened log
    /// ends at the last `Commit` wholly before the cut, and its state is
    /// the reference fold of the blocks committed before it.
    #[test]
    fn a_reopened_log_is_the_fold_of_its_committed_blocks(
        history in arb_history(),
        txids in prop::collection::vec(1u64..=3, 8..=8),
        cut in 0usize..2000,
    ) {
        let wal = Wal::in_memory();
        // Each committed block's writes and the end of its `Commit`.
        let mut commits: Vec<(Vec<LoggedWrite>, Lsn)> = Vec::new();
        for ((commit, writes), &txid) in history.iter().zip(&txids) {
            let writes: Vec<LoggedWrite> = writes.iter().map(|&(k, v)| write(k, v)).collect();
            let mut block = vec![WalRecord::Begin { txid }];
            block.extend(writes.iter().map(|w| WalRecord::Write {
                txid,
                domain: w.domain.clone(),
                key: w.key.clone(),
                value: w.value.clone(),
            }));
            block.extend(commit.then_some(WalRecord::Commit { txid }));
            let end = *wal.append_batch(&block).unwrap().last().unwrap();
            if *commit {
                commits.push((writes, end));
            }
        }
        let bytes = wal.snapshot_bytes().unwrap();
        let cut = cut.min(bytes.len());
        let kept: Vec<&(Vec<LoggedWrite>, Lsn)> =
            commits.iter().filter(|(_, end)| *end <= cut as Lsn).collect();
        let path = std::env::temp_dir().join(format!("mmdb-prop-reopen-{}.wal", std::process::id()));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (reopened, state) = Wal::recover(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(reopened.tail_lsn(), kept.last().map_or(0, |(_, end)| *end));
        let history: Vec<LoggedWrite> = kept.into_iter().flat_map(|(w, _)| w.clone()).collect();
        prop_assert_eq!(state, reference_fold(&history));
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
            let folded = reference_fold(&committed(&wal.snapshot_bytes().unwrap()));
            let mut live: Vec<(Vec<u8>, Option<Vec<u8>>)> =
                folded.into_iter().map(|w| (w.key, w.value)).collect();
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

/// The write of a history's `(key, value)`: keys 0 and 3 are kv data, 1 a
/// graph edge and 2 a container definition, so a fold orders them by
/// load class and, within one, by first place.
fn write(key: u8, value: Option<u8>) -> LoggedWrite {
    let domain = ["kv/cart", "graph/social/e/knows", "ddl/collection", "kv/cart"][key as usize % 4];
    LoggedWrite { domain: domain.into(), key: vec![key], value: value.map(|v| vec![v]) }
}

/// The writes of every committed block in `bytes`, a run of the log, in
/// log order: the scanner and the block assembler every reader shares.
fn committed(bytes: &[u8]) -> Vec<LoggedWrite> {
    let mut blocks = BlockAssembler::default();
    let released = records(bytes, 0).filter_map(|t| blocks.push(t.record, t.next_lsn));
    released.flat_map(|block| block.writes).collect()
}

/// The fold, stated plainly as the reference the engine's is held to:
/// one map insert per write, keyed by the write's load class and the
/// place its key first appeared, so a later write of a key replaces the
/// earlier one in place; deletes are dropped at the end.
fn reference_fold(writes: &[LoggedWrite]) -> Vec<LoggedWrite> {
    let mut first: HashMap<(&str, &[u8]), usize> = HashMap::new();
    let mut state: BTreeMap<(u8, usize), &LoggedWrite> = BTreeMap::new();
    for (i, w) in writes.iter().enumerate() {
        let place = *first.entry((&w.domain, &w.key)).or_insert(i);
        state.insert((load_class(&w.domain), place), w);
    }
    state.into_values().filter(|w| w.value.is_some()).cloned().collect()
}

/// A checkpoint's image is the framing of the reference fold: one `txid
/// 0` block holding it, byte for byte. The history touches all four load
/// classes out of their order, overwrites a key, deletes one and writes
/// another again after its delete, and leaves a block uncommitted.
#[test]
fn a_checkpoint_image_is_the_framing_of_the_reference_fold() {
    let lw = |domain: &str, key: &str, value: Option<&str>| LoggedWrite {
        domain: domain.into(),
        key: key.as_bytes().to_vec(),
        value: value.map(|v| v.as_bytes().to_vec()),
    };
    let blocks: Vec<(bool, Vec<LoggedWrite>)> = vec![
        (true, vec![lw("kv/cart", "a", Some("1")), lw("graph/g/e/knows", "e", Some("edge"))]),
        (true, vec![lw("ddl/bucket", "cart", Some("{}")), lw("kv/cart", "b", Some("1"))]),
        (false, vec![lw("kv/cart", "orphan", Some("x"))]),
        (true, vec![lw("ddl/index", "gin/o", Some("{}")), lw("kv/cart", "a", Some("2"))]),
        (true, vec![lw("kv/cart", "b", None), lw("ddl/bucket", "cart", None)]),
        (true, vec![lw("ddl/bucket", "cart", Some("{\"v\":2}")), lw("kv/cart", "c", None)]),
    ];
    let wal = Wal::in_memory();
    let mut history = Vec::new();
    for (txid, (commit, writes)) in (1..).zip(&blocks) {
        let mut block = vec![WalRecord::Begin { txid }];
        block.extend(writes.iter().map(|w| WalRecord::Write {
            txid,
            domain: w.domain.clone(),
            key: w.key.clone(),
            value: w.value.clone(),
        }));
        block.extend(commit.then_some(WalRecord::Commit { txid }));
        wal.append_batch(&block).unwrap();
        if *commit {
            history.extend(writes.iter().cloned());
        }
    }
    wal.sync().unwrap();
    let want = reference_fold(&history);
    let keys: Vec<&[u8]> = want.iter().map(|w| w.key.as_slice()).collect();
    assert_eq!(keys, [b"cart".as_slice(), b"a", b"e", b"gin/o"], "one live key of each class");

    let done = wal.fold_prefix(wal.durable_lsn()).unwrap();
    assert_eq!(done.entries, want.len());
    let image = &wal.snapshot_bytes().unwrap()[..done.image_bytes as usize];
    let framed = Wal::in_memory();
    let parts = want.iter().map(|w| (w.domain.as_str(), w.key.as_slice(), w.value.as_deref()));
    framed.append_blocks([(0, parts)]).unwrap();
    assert_eq!(image, framed.snapshot_bytes().unwrap());
}

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
    assert_eq!(committed(&bytes).len(), 3);
}
