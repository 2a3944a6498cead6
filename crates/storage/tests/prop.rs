//! Property tests for the storage substrate: slotted pages and the LSM
//! engine against shadow models, and WAL recovery invariants.

use proptest::prelude::*;

use mmdb_storage::lsm::{LsmConfig, LsmTree};
use mmdb_storage::page::SlottedPage;
use mmdb_storage::wal::{recover_from_bytes, Wal, WalRecord};

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
    /// deletes, updates, compactions and a disk round-trip.
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
        // Round-trip through bytes like a disk write.
        let restored = SlottedPage::from_bytes(page.bytes().as_slice()).unwrap();
        for (&slot, data) in &shadow {
            prop_assert_eq!(restored.get(slot).unwrap(), &data[..]);
        }
        prop_assert_eq!(restored.iter().count(), shadow.len());
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
        let bytes = wal.snapshot_bytes();
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
}
