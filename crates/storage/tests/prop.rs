//! Property tests for the storage substrate: slotted pages and the LSM
//! engine against shadow models, WAL recovery and checkpoint invariants,
//! and the checksum against a bytewise reference.

use proptest::prelude::*;

use mmdb_storage::lsm::{LsmConfig, LsmTree};
use mmdb_storage::page::SlottedPage;
use mmdb_storage::wal::{crc32, fold, recover_from_bytes, Wal, WalRecord};

#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
}

fn arb_page_ops() -> impl Strategy<Value = Vec<PageOp>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u8>(), 1..300).prop_map(PageOp::Insert),
            (0usize..40).prop_map(PageOp::Delete),
            ((0usize..40), prop::collection::vec(any::<u8>(), 1..300))
                .prop_map(|(i, d)| PageOp::Update(i, d)),
        ],
        0..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A slotted page behaves like a map slot → bytes, across inserts,
    /// deletes, updates and compactions.
    #[test]
    fn slotted_page_matches_shadow(ops in arb_page_ops()) {
        let mut page = SlottedPage::new();
        let mut shadow: std::collections::HashMap<u16, Vec<u8>> = Default::default();
        let mut slots: Vec<u16> = Vec::new();
        for op in ops {
            match op {
                PageOp::Insert(data) => {
                    if let Ok(slot) = page.insert(&data) {
                        shadow.insert(slot, data);
                        if !slots.contains(&slot) {
                            slots.push(slot);
                        }
                    }
                }
                PageOp::Delete(i) => {
                    if let Some(&slot) = slots.get(i) {
                        let expected = shadow.remove(&slot);
                        prop_assert_eq!(page.delete(slot).is_ok(), expected.is_some());
                    }
                }
                PageOp::Update(i, data) => {
                    if let Some(&slot) = slots.get(i) {
                        if shadow.contains_key(&slot)
                            && page.update(slot, &data).is_ok() {
                                shadow.insert(slot, data);
                            }
                            // A failed (page-full) update must preserve the
                            // old record — checked below via the shadow.
                    }
                }
            }
        }
        for (&slot, data) in &shadow {
            prop_assert_eq!(page.get(slot).unwrap(), &data[..]);
        }
        prop_assert_eq!(page.iter().count(), shadow.len());
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
