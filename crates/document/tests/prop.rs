//! Property test for a collection's secondary indexes: under random puts,
//! replaces and removes — removes free heap slots that later puts reuse,
//! and the indexes name documents by those slots — every full-text, GIN
//! and persistent-index answer equals a scan of the collection.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;

use mmdb_document::collection::KEY_FIELD;
use mmdb_document::Collection;
use mmdb_index::GinMode;
use mmdb_types::{Projection, Value};

const KEYS: usize = 6;
const WORDS: &[&str] = &["alpha", "beta", "gamma", "delta"];
const TAGS: &[&str] = &["red", "green", "blue"];

#[derive(Debug, Clone)]
enum Text {
    Words(Vec<usize>),
    Number(i64),
    Missing,
}

#[derive(Debug, Clone)]
enum Op {
    Put { key: usize, text: Text, tags: Option<Vec<usize>>, n: Option<i64> },
    Remove(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let text = prop_oneof![
        prop::collection::vec(0..WORDS.len(), 0..5).prop_map(Text::Words),
        (0i64..3).prop_map(Text::Number),
        Just(Text::Missing),
    ];
    let tags = prop_oneof![Just(None), prop::collection::vec(0..TAGS.len(), 0..3).prop_map(Some)];
    let n = prop_oneof![Just(None), (0i64..3).prop_map(Some)];
    prop_oneof![
        (0..KEYS, text, tags, n).prop_map(|(key, text, tags, n)| Op::Put { key, text, tags, n }),
        (0..KEYS).prop_map(Op::Remove),
    ]
}

fn document(text: &Text, tags: &Option<Vec<usize>>, n: Option<i64>) -> Value {
    let mut fields: Vec<(&str, Value)> = Vec::new();
    match text {
        Text::Words(w) => {
            let words: Vec<&str> = w.iter().map(|&i| WORDS[i]).collect();
            fields.push(("text", Value::str(words.join(" "))));
        }
        Text::Number(n) => fields.push(("text", Value::int(*n))),
        Text::Missing => {}
    }
    if let Some(tags) = tags {
        fields.push(("tags", Value::Array(tags.iter().map(|&t| Value::str(TAGS[t])).collect())));
    }
    if let Some(n) = n {
        fields.push(("meta", Value::object([("n", Value::int(n))])));
    }
    Value::object(fields)
}

fn key_of(doc: &Value) -> String {
    doc.get_field(KEY_FIELD).as_str().unwrap().to_string()
}

fn sorted_keys(docs: &[Value]) -> Vec<String> {
    let mut keys: Vec<String> = docs.iter().map(key_of).collect();
    keys.sort();
    keys
}

/// The terms a scan finds in a document's `text` field.
fn terms(doc: &Value) -> Vec<String> {
    match doc.get_field("text") {
        Value::String(s) => s.split_whitespace().map(str::to_string).collect(),
        Value::Null => Vec::new(),
        other => vec![other.to_string()],
    }
}

fn has_key(v: &Value, key: &str) -> bool {
    match v {
        Value::Object(obj) => obj.iter().any(|(k, val)| k == key || has_key(val, key)),
        Value::Array(items) => items.iter().any(|val| has_key(val, key)),
        _ => false,
    }
}

/// Every index answer of `c` against a scan of it, and its BM25 scores
/// against an index built from that scan in one backfill.
fn indexes_match_a_scan(c: &Collection) -> Result<(), String> {
    let all = c.all().unwrap();
    let fresh = Collection::create("fresh", Arc::default()).unwrap();
    for doc in &all {
        fresh.put(&key_of(doc), doc.clone()).unwrap();
    }
    fresh.create_fulltext_index("text", "text").unwrap();
    let scored = |c: &Collection, q: &str| -> BTreeMap<String, f64> {
        let hits = c.fulltext_ranked("text", q, usize::MAX).unwrap();
        hits.into_iter().map(|(doc, score)| (key_of(&doc), score)).collect()
    };
    let queries = WORDS.iter().map(|w| w.to_string()).chain((0..3).map(|n| n.to_string()));
    for q in queries {
        let want: Vec<Value> = all.iter().filter(|d| terms(d).contains(&q)).cloned().collect();
        let got = c.fulltext("text", &q, &Projection::ALL).unwrap();
        prop_assert_eq!(sorted_keys(&got), sorted_keys(&want), "FULLTEXT {}", q);
        prop_assert_eq!(scored(c, &q), scored(&fresh, &q), "BM25 {}", q);
    }
    for tag in TAGS {
        let pattern = Value::object([("tags", Value::array([Value::str(*tag)]))]);
        let want: Vec<Value> = all.iter().filter(|d| d.contains(&pattern)).cloned().collect();
        let (got, used) = c.by_example(&pattern).unwrap();
        prop_assert!(used);
        prop_assert_eq!(sorted_keys(&got), sorted_keys(&want), "by_example {}", tag);
    }
    for field in ["text", "tags", "meta", "n"] {
        let want: Vec<Value> = all.iter().filter(|d| has_key(d, field)).cloned().collect();
        let got = c.with_key(field).unwrap();
        prop_assert_eq!(sorted_keys(&got), sorted_keys(&want), "with_key {}", field);
    }
    let (one, two) = (Value::int(1), Value::int(2));
    let (got, used) = c.range("meta.n", Bound::Included(&one), Bound::Included(&two), &Projection::ALL).unwrap();
    prop_assert!(used);
    let in_range = |d: &&Value| {
        let n = d.get_field("meta").get_field("n");
        *n == Value::int(1) || *n == Value::int(2)
    };
    let want: Vec<Value> = all.iter().filter(in_range).cloned().collect();
    prop_assert_eq!(sorted_keys(&got), sorted_keys(&want), "range");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The first writes land before the indexes exist (their backfill),
    /// the rest after (put and remove keep them).
    #[test]
    fn indexes_answer_like_a_scan_as_slots_are_reused(
        before in prop::collection::vec(arb_op(), 0..6),
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let apply = |c: &Collection, op: &Op| match op {
            Op::Put { key, text, tags, n } => c.put(&format!("k{key}"), document(text, tags, *n)).unwrap(),
            Op::Remove(key) => drop(c.remove(&format!("k{key}")).unwrap()),
        };
        let c = Collection::create("docs", Arc::default()).unwrap();
        for op in &before {
            apply(&c, op);
        }
        c.create_gin_index(GinMode::JsonbOps).unwrap();
        c.create_fulltext_index("text", "text").unwrap();
        c.create_persistent_index("meta.n").unwrap();
        indexes_match_a_scan(&c)?;
        for op in &ops {
            apply(&c, op);
            indexes_match_a_scan(&c)?;
        }
    }
}
