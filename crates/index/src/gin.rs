//! GIN — a Generalized Inverted iNdex over documents, with PostgreSQL's
//! two operator classes.
//!
//! The tutorial's query-optimization section walks through exactly this
//! design (its `{"foo": {"bar": "baz"}}` example):
//!
//! * **`jsonb_ops`** (default): "independent index items for each key and
//!   value in the data" — serving the key-exists operators `?`, `?&`, `?|`
//!   *and* the containment operator `@>` (a containment query "looks for
//!   rows containing all three of these items").
//! * **`jsonb_path_ops`**: "index items only for each value … a hash of
//!   the value and the key(s) leading to it" — smaller and faster, but it
//!   serves `@>` only ("searches for specific structure").
//!
//! Both modes are *lossy*: they return candidate documents that must be
//! rechecked against the real value (PostgreSQL does the same recheck).
//! Ablation E4 measures size and lookup cost of the two modes.

use std::collections::BTreeMap;

use mmdb_types::codec::key_of;
use mmdb_types::{Error, Result, Value};

/// Identifier of an indexed document: a collection's index names its
/// documents by their heap record ids.
pub type DocId = u32;

/// Which operator class the index uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GinMode {
    /// Key and value items — serves `?` (key-exists) and `@>` (containment).
    JsonbOps,
    /// Hashed path→value items — serves `@>` only, with a smaller index.
    JsonbPathOps,
}

impl GinMode {
    /// PostgreSQL's name for the operator class.
    pub fn name(self) -> &'static str {
        match self {
            GinMode::JsonbOps => "jsonb_ops",
            GinMode::JsonbPathOps => "jsonb_path_ops",
        }
    }

    /// The operator class [`GinMode::name`] names.
    pub fn from_name(name: &str) -> Result<GinMode> {
        match name {
            "jsonb_ops" => Ok(GinMode::JsonbOps),
            "jsonb_path_ops" => Ok(GinMode::JsonbPathOps),
            other => Err(Error::Schema(format!("unknown gin operator class '{other}'"))),
        }
    }
}

/// An index entry key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Item {
    /// An object key appearing anywhere in the document (`jsonb_ops`).
    Key(String),
    /// A scalar value appearing anywhere (`jsonb_ops`), order-encoded.
    Scalar(Vec<u8>),
    /// Hash of (root path, scalar value) (`jsonb_path_ops`).
    PathHash(u64),
}

/// The inverted index: item → sorted posting list of doc ids.
pub struct GinIndex {
    mode: GinMode,
    postings: BTreeMap<Item, Vec<DocId>>,
}

impl GinIndex {
    /// New empty index in the given mode.
    pub fn new(mode: GinMode) -> Self {
        GinIndex { mode, postings: BTreeMap::new() }
    }

    /// The index's operator class.
    pub fn mode(&self) -> GinMode {
        self.mode
    }

    /// Number of distinct items.
    pub fn item_count(&self) -> usize {
        self.postings.len()
    }

    /// Total posting-list entries — the "index size" metric for E4.
    pub fn posting_count(&self) -> usize {
        self.postings.values().map(Vec::len).sum()
    }

    /// Index a document under `id`.
    pub fn insert(&mut self, id: DocId, doc: &Value) {
        for item in self.extract(doc) {
            let list = self.postings.entry(item).or_default();
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
            }
        }
    }

    /// Remove a document (must pass the same value that was indexed).
    pub fn remove(&mut self, id: DocId, doc: &Value) {
        for item in self.extract(doc) {
            if let Some(list) = self.postings.get_mut(&item) {
                if let Ok(pos) = list.binary_search(&id) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.postings.remove(&item);
                }
            }
        }
    }

    fn extract(&self, doc: &Value) -> Vec<Item> {
        let mut items = Vec::new();
        match self.mode {
            GinMode::JsonbOps => extract_ops(doc, &mut items),
            GinMode::JsonbPathOps => {
                let mut path = Vec::new();
                extract_path_ops(doc, &mut path, &mut items);
            }
        }
        items.sort();
        items.dedup();
        items
    }

    /// Candidate documents for a containment query `column @> pattern`.
    ///
    /// The result is a superset of the true matches (lossy) — callers
    /// recheck with [`Value::contains`]. An empty pattern matches all
    /// documents, which the index cannot enumerate, so it returns an error
    /// and the caller falls back to a scan (PostgreSQL plans a seqscan for
    /// that case too).
    pub fn contains_candidates(&self, pattern: &Value) -> Result<Vec<DocId>> {
        let items = self.extract(pattern);
        if items.is_empty() {
            return Err(Error::Unsupported(
                "empty containment pattern cannot use the index".into(),
            ));
        }
        // Intersect posting lists, smallest first.
        let mut lists: Vec<&Vec<DocId>> = Vec::with_capacity(items.len());
        for item in &items {
            match self.postings.get(item) {
                Some(l) => lists.push(l),
                None => return Ok(Vec::new()),
            }
        }
        lists.sort_by_key(|l| l.len());
        let mut result: Vec<DocId> = lists[0].clone();
        for l in &lists[1..] {
            result.retain(|id| l.binary_search(id).is_ok());
            if result.is_empty() {
                break;
            }
        }
        Ok(result)
    }

    /// Documents having top-level (or nested — like `jsonb_ops`, key items
    /// are position-independent) key `key`: the `?` operator.
    pub fn key_exists(&self, key: &str) -> Result<Vec<DocId>> {
        match self.mode {
            GinMode::JsonbOps => Ok(self
                .postings
                .get(&Item::Key(key.to_string()))
                .cloned()
                .unwrap_or_default()),
            GinMode::JsonbPathOps => Err(Error::Unsupported(
                "jsonb_path_ops cannot serve key-exists queries".into(),
            )),
        }
    }

    /// `?&` — documents containing *all* the keys.
    pub fn keys_all(&self, keys: &[&str]) -> Result<Vec<DocId>> {
        let mut lists = Vec::with_capacity(keys.len());
        for k in keys {
            lists.push(self.key_exists(k)?);
        }
        lists.sort_by_key(Vec::len);
        let Some(mut result) = lists.first().cloned() else {
            return Ok(Vec::new());
        };
        for l in &lists[1..] {
            result.retain(|id| l.binary_search(id).is_ok());
        }
        Ok(result)
    }

    /// `?|` — documents containing *any* of the keys.
    pub fn keys_any(&self, keys: &[&str]) -> Result<Vec<DocId>> {
        let mut out: Vec<DocId> = Vec::new();
        for k in keys {
            out.extend(self.key_exists(k)?);
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

fn extract_ops(v: &Value, items: &mut Vec<Item>) {
    match v {
        Value::Object(obj) => {
            for (k, val) in obj.iter() {
                items.push(Item::Key(k.to_string()));
                extract_ops(val, items);
            }
        }
        Value::Array(arr) => {
            for val in arr {
                extract_ops(val, items);
            }
        }
        scalar => items.push(Item::Scalar(key_of(scalar))),
    }
}

fn extract_path_ops(v: &Value, path: &mut Vec<String>, items: &mut Vec<Item>) {
    match v {
        Value::Object(obj) => {
            for (k, val) in obj.iter() {
                path.push(k.to_string());
                extract_path_ops(val, path, items);
                path.pop();
            }
        }
        Value::Array(arr) => {
            // Array steps do not contribute to the path (jsonb_path_ops
            // semantics: `{"a":[1]}` and `{"a":1}` hash identically).
            for val in arr {
                extract_path_ops(val, path, items);
            }
        }
        scalar => items.push(Item::PathHash(hash_path_value(path, scalar))),
    }
}

fn hash_path_value(path: &[String], scalar: &Value) -> u64 {
    // FNV-1a over the path components and the scalar's key encoding.
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h = (h ^ 0xFF).wrapping_mul(0x100000001b3); // component separator
    };
    for p in path {
        eat(p.as_bytes());
    }
    eat(&key_of(scalar));
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::from_json;

    fn docs() -> Vec<Value> {
        [
            r#"{"foo":{"bar":"baz"}}"#,
            r#"{"foo":"bar","n":1}"#,
            r#"{"tags":["a","b"],"n":2}"#,
            r#"{"tags":["b","c"],"n":3}"#,
            r#"{"bar":"baz"}"#,
        ]
        .iter()
        .map(|t| from_json(t).unwrap())
        .collect()
    }

    fn build(mode: GinMode) -> (GinIndex, Vec<Value>) {
        let mut idx = GinIndex::new(mode);
        let ds = docs();
        for (i, d) in ds.iter().enumerate() {
            idx.insert(i as DocId, d);
        }
        (idx, ds)
    }

    fn check_candidates(idx: &GinIndex, ds: &[Value], pattern: &str) {
        let pat = from_json(pattern).unwrap();
        let cands = idx.contains_candidates(&pat).unwrap();
        // Lossy: candidates ⊇ true matches.
        for (i, d) in ds.iter().enumerate() {
            if d.contains(&pat) {
                assert!(cands.contains(&(i as DocId)), "missing true match {i} for {pattern}");
            }
        }
        // After recheck the answer is exact.
        let exact: Vec<DocId> = cands
            .into_iter()
            .filter(|&id| ds[id as usize].contains(&pat))
            .collect();
        let want: Vec<DocId> = ds
            .iter()
            .enumerate()
            .filter(|(_, d)| d.contains(&pat))
            .map(|(i, _)| i as DocId)
            .collect();
        assert_eq!(exact, want, "pattern {pattern}");
    }

    #[test]
    fn containment_works_in_both_modes() {
        for mode in [GinMode::JsonbOps, GinMode::JsonbPathOps] {
            let (idx, ds) = build(mode);
            for pattern in [
                r#"{"foo":{"bar":"baz"}}"#,
                r#"{"tags":["b"]}"#,
                r#"{"n":2}"#,
                r#"{"bar":"baz"}"#,
                r#"{"nothing":"here"}"#,
            ] {
                check_candidates(&idx, &ds, pattern);
            }
        }
    }

    #[test]
    fn tutorial_example_item_counts() {
        // The slide: {"foo": {"bar": "baz"}} — jsonb_ops has three items
        // (foo, bar, baz); jsonb_path_ops has one (the hash chain).
        let doc = from_json(r#"{"foo":{"bar":"baz"}}"#).unwrap();
        let mut ops = GinIndex::new(GinMode::JsonbOps);
        ops.insert(0, &doc);
        assert_eq!(ops.item_count(), 3);
        let mut path_ops = GinIndex::new(GinMode::JsonbPathOps);
        path_ops.insert(0, &doc);
        assert_eq!(path_ops.item_count(), 1);
    }

    #[test]
    fn path_ops_is_smaller() {
        let (ops, _) = build(GinMode::JsonbOps);
        let (path_ops, _) = build(GinMode::JsonbPathOps);
        assert!(path_ops.posting_count() < ops.posting_count());
    }

    #[test]
    fn key_exists_only_in_jsonb_ops() {
        let (ops, _) = build(GinMode::JsonbOps);
        assert_eq!(ops.key_exists("tags").unwrap(), vec![2, 3]);
        assert_eq!(ops.key_exists("bar").unwrap(), vec![0, 4], "keys are position-independent");
        let (path_ops, _) = build(GinMode::JsonbPathOps);
        assert!(matches!(path_ops.key_exists("tags"), Err(Error::Unsupported(_))));
    }

    #[test]
    fn keys_all_and_any() {
        let (ops, _) = build(GinMode::JsonbOps);
        assert_eq!(ops.keys_all(&["tags", "n"]).unwrap(), vec![2, 3]);
        assert_eq!(ops.keys_any(&["foo", "bar"]).unwrap(), vec![0, 1, 4]);
        assert!(ops.keys_all(&[]).unwrap().is_empty());
    }

    #[test]
    fn path_ops_conflates_structure_jsonb_semantics() {
        // {"a":[1]} and {"a":1} produce identical path items (array steps
        // don't contribute to the hash chain). Containment itself is
        // asymmetric in jsonb: {"a":[1]} @> {"a":1} holds (array-element
        // match) but {"a":1} @> {"a":[1]} does not — only the recheck can
        // tell, the index alone cannot.
        let mut idx = GinIndex::new(GinMode::JsonbPathOps);
        let with_array = from_json(r#"{"a":[1]}"#).unwrap();
        let plain = from_json(r#"{"a":1}"#).unwrap();
        idx.insert(0, &with_array);
        idx.insert(1, &plain);
        let array_pattern = from_json(r#"{"a":[1]}"#).unwrap();
        let cands = idx.contains_candidates(&array_pattern).unwrap();
        assert_eq!(cands, vec![0, 1], "lossy candidates include both");
        assert!(with_array.contains(&array_pattern));
        assert!(!plain.contains(&array_pattern), "recheck rejects the false positive");
        // And the scalar pattern matches both, per jsonb's array-element rule.
        let scalar_pattern = from_json(r#"{"a":1}"#).unwrap();
        assert!(with_array.contains(&scalar_pattern));
        assert!(plain.contains(&scalar_pattern));
    }

    #[test]
    fn remove_unindexes() {
        let (mut idx, ds) = build(GinMode::JsonbOps);
        idx.remove(2, &ds[2]);
        assert_eq!(idx.key_exists("tags").unwrap(), vec![3]);
        idx.remove(3, &ds[3]);
        assert_eq!(idx.key_exists("tags").unwrap(), Vec::<DocId>::new());
    }

    #[test]
    fn empty_pattern_rejected() {
        let (idx, _) = build(GinMode::JsonbOps);
        assert!(idx.contains_candidates(&from_json("{}").unwrap()).is_err());
    }

    #[test]
    fn duplicate_inserts_are_idempotent() {
        let mut idx = GinIndex::new(GinMode::JsonbOps);
        let d = from_json(r#"{"x":1}"#).unwrap();
        idx.insert(5, &d);
        idx.insert(5, &d);
        assert_eq!(idx.key_exists("x").unwrap(), vec![5]);
    }
}
