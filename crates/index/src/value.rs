//! A value index: the secondary index of the document and relational
//! models, one B+-tree over `key_of(value) ++ 0 ++ key → id`.
//!
//! A collection indexes a path's value under each document's `_key`, a
//! table a column's value under each row's encoded primary key; both
//! name the record by its heap id. Appending the key makes entries of
//! one value unique and keeps them together, so a range of values is a
//! range of bytes (PostgreSQL's B-tree over a heap, with the heap tuple
//! id as the tiebreak). The ordering is [`key_of`]'s, which is
//! [`Value`]'s, so a range read through the index returns the records a
//! scan testing [`within`] keeps.

use std::ops::{Bound, RangeBounds};

use mmdb_types::codec::key_of;
use mmdb_types::Value;

use crate::btree::BPlusTree;

/// Whether `v` lies within `lo..hi`: the test a scan without an index
/// applies, and the one a range read through [`ValueIndex`] answers.
pub fn within(v: &Value, lo: Bound<&Value>, hi: Bound<&Value>) -> bool {
    (lo, hi).contains(v)
}

/// A B+-tree of `(value, key) → id` entries; see the module docs.
#[derive(Default)]
pub struct ValueIndex {
    tree: BPlusTree<Vec<u8>, u32>,
}

/// The entry key of `value` under the record key `key`.
fn entry(value: &Value, key: &[u8]) -> Vec<u8> {
    let mut k = key_of(value);
    k.reserve(1 + key.len());
    k.push(0);
    k.extend_from_slice(key);
    k
}

/// `value`'s encoding followed by `last`: with 0 it sorts before every
/// entry of the value, with 0xFF after all of them and before the next
/// value's.
fn edge(value: &Value, last: u8) -> Vec<u8> {
    let mut k = key_of(value);
    k.push(last);
    k
}

impl ValueIndex {
    /// An empty index.
    pub fn new() -> ValueIndex {
        ValueIndex::default()
    }

    /// File the record `id`, keyed `key`, under `value`.
    pub fn insert(&mut self, value: &Value, key: &[u8], id: u32) {
        self.tree.insert(entry(value, key), id);
    }

    /// Remove the entry of the record keyed `key` under `value`.
    pub fn remove(&mut self, value: &Value, key: &[u8]) {
        self.tree.remove(&entry(value, key));
    }

    /// Move the record keyed `key` from `old` (`None`: it had no entry)
    /// to `new`; nothing moves when the value is unchanged.
    pub fn update(&mut self, old: Option<&Value>, new: &Value, key: &[u8], id: u32) {
        if let Some(old) = old {
            if old == new {
                return;
            }
            self.remove(old, key);
        }
        self.insert(new, key, id);
    }

    /// The ids of the records whose value lies within `lo..hi`, in index
    /// order: by value, then by record key.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<u32> {
        let lo = match lo {
            Bound::Included(v) => Bound::Included(edge(v, 0)),
            Bound::Excluded(v) => Bound::Included(edge(v, 0xFF)),
            Bound::Unbounded => Bound::Unbounded,
        };
        let hi = match hi {
            Bound::Included(v) => Bound::Included(edge(v, 0xFF)),
            Bound::Excluded(v) => Bound::Excluded(edge(v, 0)),
            Bound::Unbounded => Bound::Unbounded,
        };
        self.tree.range(lo.as_ref(), hi.as_ref()).map(|(_, id)| *id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::int(-3),
            Value::float(-0.5),
            Value::int(0),
            Value::int(1),
            Value::float(1.5),
            Value::int(2),
            Value::str(""),
            Value::str("a"),
            Value::str("a\u{0}b"),
            Value::str("b"),
            Value::array([Value::int(1)]),
            Value::array([Value::int(1), Value::Null]),
            Value::array([Value::int(2)]),
        ]
    }

    fn bounds(v: &Value) -> [Bound<&Value>; 3] {
        [Bound::Included(v), Bound::Excluded(v), Bound::Unbounded]
    }

    #[test]
    fn a_range_read_keeps_what_within_keeps_in_value_order() {
        let values = values();
        // Four records a value, filed out of order: 64 entries, more than
        // a leaf holds, so a range read crosses leaves.
        let keys: [&[u8]; 4] = [&[2], &[0, 7], &[1, 0], &[0]];
        let mut index = ValueIndex::new();
        for (i, v) in values.iter().enumerate().rev() {
            for (j, key) in keys.iter().enumerate() {
                index.insert(v, key, (4 * i + j) as u32);
            }
        }
        assert!(index.tree.height() > 1, "the entries fill more than one leaf");
        let pairs = values.iter().flat_map(|l| values.iter().map(move |h| (l, h)));
        for (lo, hi) in pairs.flat_map(|(l, h)| bounds(l).into_iter().flat_map(move |lo| bounds(h).map(|hi| (lo, hi)))) {
            // Ascending values, and within a value ascending keys:
            // [0], [0, 7], [1, 0], [2].
            let want: Vec<u32> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| within(v, lo, hi))
                .flat_map(|(i, _)| [3, 1, 2, 0].map(|j| (4 * i + j) as u32))
                .collect();
            assert_eq!(index.range(lo, hi), want, "{lo:?}..{hi:?}");
        }
    }

    #[test]
    fn update_moves_an_entry_and_skips_an_unchanged_value() {
        let mut index = ValueIndex::new();
        index.update(None, &Value::int(1), b"k", 7);
        let all = |index: &ValueIndex| index.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all(&index), [7]);
        index.update(Some(&Value::int(1)), &Value::float(1.0), b"k", 9);
        assert_eq!(all(&index), [7], "1 and 1.0 are one value: nothing moved");
        index.update(Some(&Value::int(1)), &Value::int(5), b"k", 7);
        assert!(index.range(Bound::Included(&Value::int(1)), Bound::Included(&Value::int(1))).is_empty());
        assert_eq!(index.range(Bound::Excluded(&Value::int(1)), Bound::Unbounded), [7]);
        index.remove(&Value::int(5), b"k");
        assert!(all(&index).is_empty());
    }
}
