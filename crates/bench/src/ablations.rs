//! The paper's technique catalogue, E4–E9 (DESIGN.md "Experiment
//! index"). Each ablation builds one data set under every configuration
//! of one technique, asserts that all configurations return the same
//! answer, and only then times each one with [`time_per_call`].
//! `unibench --workload ablations` prints the tables.
//!
//! Sizes follow unibench's `--scale`: at the default 0.5 they are the
//! sizes EXPERIMENTS.md reports, and they grow linearly with the scale.

use std::fmt::Display;
use std::ops::Bound;

use mmdb_core::Database;
use mmdb_document::{Collection, FlexTable};
use mmdb_index::gin::DocId;
use mmdb_index::{BPlusTree, ExtendibleHashMap, GinIndex, GinMode};
use mmdb_rdf::sparql::CmpOp;
use mmdb_rdf::{AccessPaths, SelectQuery, Triple, TriplePattern, TripleStore};
use mmdb_relational::UniversalRelation;
use mmdb_storage::wal::{records, BlockAssembler, Lsn};
use mmdb_txn::IsolationLevel;
use mmdb_types::codec::{key_of, value_from_bytes};
use mmdb_types::{from_json, Projection, Result, Value};
use mmdb_xml::{Tree, XPath};

use crate::report::{fmt_duration, time_per_call, TextTable};

/// An ablation: its title, and the function that checks and times it at
/// a scale factor.
pub type Ablation = (&'static str, fn(f64) -> Result<TextTable>);

/// E4–E9, in EXPERIMENTS.md order.
pub const ALL: [Ablation; 6] = [
    ("E4: GIN jsonb_ops vs jsonb_path_ops", e4_gin_modes),
    ("E5: B+-tree vs extendible hashing", e5_index_structures),
    ("E6: virtual vs materialized columns", e6_materialization),
    ("E7: the engine's central log and its storage views", e7_log_and_views),
    ("E8: ORDPATH path index vs tree navigation", e8_path_index),
    ("E9: DB2-RDF access paths", e9_rdf_access_paths),
];

/// `base`, the size at scale 0.5, at `scale`; at least 1.
fn sized(base: usize, scale: f64) -> usize {
    ((base as f64 * scale * 2.0) as usize).max(1)
}

fn table() -> TextTable {
    TextTable::new(&["operation", "configuration", "answer", "time per call"])
}

fn timed<T>(t: &mut TextTable, op: &str, config: &str, answer: impl Display, f: impl FnMut() -> T) {
    t.row(&[op.into(), config.into(), answer.to_string(), fmt_duration(time_per_call(f))]);
}

/// E4 (slide 82): `jsonb_path_ops` keeps fewer postings and serves
/// containment only; `jsonb_ops` also serves key-exists. Both are lossy,
/// so an exact containment answer is candidates plus a recheck.
fn e4_gin_modes(scale: f64) -> Result<TextTable> {
    let docs = (0..sized(20_000, scale))
        .map(|i| {
            from_json(&format!(
                r#"{{"user":{{"name":"u{i}","city":"c{}"}},"tags":["t{}","t{}"],
                    "price":{},"meta":{{"active":{},"tier":{}}}}}"#,
                i % 50,
                i % 20,
                (i * 7) % 20,
                i % 100,
                i % 2 == 0,
                i % 5
            ))
        })
        .collect::<Result<Vec<Value>>>()?;
    let build = |mode| {
        let mut idx = GinIndex::new(mode);
        for (i, d) in docs.iter().enumerate() {
            idx.insert(i as DocId, d);
        }
        idx
    };
    let (ops, path_ops) = (build(GinMode::JsonbOps), build(GinMode::JsonbPathOps));
    let pattern = from_json(r#"{"tags":["t3"],"meta":{"tier":3}}"#)?;
    let seqscan = || -> Vec<DocId> {
        (0..docs.len() as DocId).filter(|&i| docs[i as usize].contains(&pattern)).collect()
    };
    let recheck = |idx: &GinIndex| -> Result<Vec<DocId>> {
        let mut hits = idx.contains_candidates(&pattern)?;
        hits.retain(|&id| docs[id as usize].contains(&pattern));
        Ok(hits)
    };
    let expected = seqscan();
    assert!(!expected.is_empty(), "the E4 pattern matches nothing");
    assert_eq!(recheck(&ops)?, expected, "jsonb_ops containment + recheck != seqscan");
    assert_eq!(recheck(&path_ops)?, expected, "jsonb_path_ops containment + recheck != seqscan");
    assert_eq!(ops.key_exists("tags")?.len(), docs.len(), "every document has tags");
    assert!(path_ops.key_exists("tags").is_err(), "jsonb_path_ops served key-exists");

    let mut t = table();
    let modes = [("jsonb_ops", &ops), ("jsonb_path_ops", &path_ops)];
    for (mode, idx) in modes {
        let size = format!("{} postings / {} items", idx.posting_count(), idx.item_count());
        t.row(&["index size".into(), mode.into(), size, "-".into()]);
    }
    for (mode, idx) in modes {
        let candidates = idx.contains_candidates(&pattern)?.len();
        timed(&mut t, "@> candidates", mode, candidates, || idx.contains_candidates(&pattern));
        timed(&mut t, "@> + recheck", mode, expected.len(), || recheck(idx));
    }
    timed(&mut t, "@>", "seqscan", expected.len(), seqscan);
    timed(&mut t, "key-exists ?", "jsonb_ops", docs.len(), || ops.key_exists("tags"));
    t.row(&["key-exists ?".into(), "jsonb_path_ops".into(), "unsupported".into(), "-".into()]);
    Ok(t)
}

/// E5 (slides 78–80): extendible hashing wins point lookups; only the
/// B+-tree serves a range, which a hash index answers by scan + filter.
fn e5_index_structures(scale: f64) -> Result<TextTable> {
    let n = sized(100_000, scale) as i64;
    let key = |i: i64| key_of(&Value::int(i));
    let btree = || {
        let mut t = BPlusTree::new();
        for i in 0..n {
            t.insert(key(i), i);
        }
        t
    };
    let hash = || {
        let mut h = ExtendibleHashMap::new();
        for i in 0..n {
            h.insert(key(i), i);
        }
        h
    };
    let (tree, map) = (btree(), hash());
    for i in 0..=n {
        assert_eq!(tree.get(&key(i)), map.get(&key(i)), "lookups of key {i} disagree");
    }
    let width = (n / 100).max(1);
    let range = |lo: i64| -> Vec<i64> {
        let (from, to) = (key(lo), key(lo + width));
        tree.range(Bound::Included(&from), Bound::Excluded(&to)).map(|(_, &v)| v).collect()
    };
    let scan = |lo: i64| -> Vec<i64> {
        let mut hits: Vec<i64> =
            map.iter().map(|(_, &v)| v).filter(|v| (lo..lo + width).contains(v)).collect();
        hits.sort_unstable();
        hits
    };
    for lo in [0, n / 2, n - width] {
        assert_eq!(range(lo), scan(lo), "range from {lo} disagrees");
    }

    let mut t = table();
    let mut i = 0;
    timed(&mut t, "point lookup", "B+-tree", 1, || {
        i = (i + 7919) % n;
        tree.get(&key(i)).copied()
    });
    timed(&mut t, "point lookup", "extendible hash", 1, || {
        i = (i + 7919) % n;
        map.get(&key(i)).copied()
    });
    timed(&mut t, &format!("insert {n} keys"), "B+-tree", n, || btree().len());
    timed(&mut t, &format!("insert {n} keys"), "extendible hash", n, || hash().len());
    let op = format!("{width}-key range");
    timed(&mut t, &op, "B+-tree range", width, || {
        i = (i + 997) % (n - width + 1);
        range(i)
    });
    timed(&mut t, &op, "hash scan + filter", width, || {
        i = (i + 997) % (n - width + 1);
        scan(i)
    });
    Ok(t)
}

/// E6 (Vertica flex tables, Sinew): promoting a virtual column to a real
/// one speeds a predicate up, more so when the path is nested.
fn e6_materialization(scale: f64) -> Result<TextTable> {
    let n = sized(50_000, scale);
    let flex = |materialized: bool| -> Result<FlexTable> {
        let mut t = FlexTable::new();
        for i in 0..n {
            t.load_json(&format!(
                r#"{{"name":"p{i}","price":{},"category":"c{}"}}"#,
                i % 500,
                i % 7
            ))?;
        }
        if materialized {
            t.materialize("price");
        }
        Ok(t)
    };
    let universal = |materialized: bool| -> Result<UniversalRelation> {
        let mut u = UniversalRelation::new();
        for i in 0..n {
            u.insert(from_json(&format!(
                r#"{{"id":{i},"meta":{{"pricing":{{"amount":{}}}}}}}"#,
                i % 500
            ))?);
        }
        if materialized {
            u.materialize("meta.pricing.amount")?;
        }
        Ok(u)
    };
    let (flex_virtual, flex_real) = (flex(false)?, flex(true)?);
    let (uni_virtual, uni_real) = (universal(false)?, universal(true)?);
    let target = Value::int((n as i64 / 2) % 500);
    let flex_hits = flex_virtual.select_eq("price", &target);
    let uni_hits = uni_virtual.select_eq("meta.pricing.amount", &target)?;
    assert!(!flex_hits.0.is_empty() && !flex_hits.1 && !uni_hits.1, "E6 virtual reads");
    assert_eq!(flex_real.select_eq("price", &target), (flex_hits.0.clone(), true));
    assert_eq!(uni_real.select_eq("meta.pricing.amount", &target)?, (uni_hits.0.clone(), true));

    let mut t = table();
    for (config, rows) in [("virtual", &flex_virtual), ("materialized", &flex_real)] {
        let op = "flex table, price == v";
        timed(&mut t, op, config, flex_hits.0.len(), || rows.select_eq("price", &target));
    }
    for (config, rows) in [("virtual", &uni_virtual), ("materialized", &uni_real)] {
        let op = "universal relation, meta.pricing.amount == v";
        timed(&mut t, op, config, uni_hits.0.len(), || {
            rows.select_eq("meta.pricing.amount", &target)
        });
    }
    Ok(t)
}

/// E7 (OctopusDB, slides 15–16) over the engine itself: the WAL and the
/// version store are the central log, a collection and its indexes are
/// storage views the commit hook maintains. A view should beat its
/// no-view route on reads and cost every commit that maintains it.
fn e7_log_and_views(scale: f64) -> Result<TextTable> {
    let (n, commits) = (sized(20_000, scale), sized(5_000, scale));
    let record = |i: usize| {
        Value::object([
            ("_key", Value::str(format!("r{i}"))),
            ("price", Value::int((i % 1000) as i64)),
            ("note", Value::str(format!("record {i} of group {}", i % 10))),
        ])
    };
    let db = Database::in_memory_logged();
    db.create_collection("plain")?;
    db.create_collection("viewed")?;
    db.create_index("viewed", "price")?;
    db.create_gin_index("viewed", GinMode::JsonbPathOps)?;
    db.create_fulltext_index("viewed_note", "viewed", "note")?;
    let (plain, viewed) = (db.world().catalog.collection("plain")?, db.world().catalog.collection("viewed")?);
    for coll in ["plain", "viewed"] {
        for start in (0..n).step_by(64) {
            db.transact(IsolationLevel::Snapshot, 0, |s| {
                (start..n.min(start + 64))
                    .try_for_each(|i| s.insert_document(coll, record(i)).map(drop))
            })?;
        }
    }

    // A point read without any view: replay the log, the last write wins.
    let wal = db.wal().expect("an in_memory_logged database keeps a log");
    let replay = |key: &str| -> Result<Option<Value>> {
        let (mut blocks, mut from, mut found) = (BlockAssembler::default(), 0, None);
        loop {
            let bytes = wal.read_log(from, Lsn::MAX)?;
            if bytes.is_empty() {
                break;
            }
            let at = from;
            from += bytes.len() as u64;
            for r in records(&bytes, at) {
                for w in blocks.push(r.record, r.next_lsn).map(|b| b.writes).unwrap_or_default() {
                    if w.domain == "doc/plain" && w.key == key.as_bytes() {
                        found = w.value;
                    }
                }
            }
        }
        found.map(|v| value_from_bytes(&v)).transpose()
    };
    let latest = |key: &str| db.mvcc().get_latest("doc/plain", key.as_bytes());
    for i in (0..n).step_by((n / 16).max(1)) {
        let (key, expected) = (format!("r{i}"), Some(record(i)));
        assert_eq!(replay(&key)?, expected, "WAL replay of {key}");
        assert_eq!(latest(&key)?, expected, "version store read of {key}");
        assert_eq!(plain.get(&key)?, expected, "collection read of {key}");
    }
    let (lo, hi) = (Value::int(100), Value::int(110));
    let (lo, hi) = (Bound::Included(&lo), Bound::Included(&hi));
    let sorted = |(mut docs, _): (Vec<Value>, bool)| {
        docs.sort();
        docs
    };
    let range = |c: &Collection| c.range("price", lo, hi, &Projection::ALL);
    let (scanned, indexed) = (range(&plain)?, range(&viewed)?);
    assert!(!scanned.1 && indexed.1, "only the viewed collection has a price index");
    let in_range = sorted(scanned);
    assert_eq!(in_range, sorted(indexed), "range by index != range by scan");

    let mut t = table();
    let mut i = 0;
    let mut probe = || {
        i = (i + 7919) % n;
        format!("r{i}")
    };
    timed(&mut t, "point read", "WAL replay (BlockAssembler)", 1, || replay(&probe()));
    timed(&mut t, "point read", "version store (get_latest)", 1, || latest(&probe()));
    timed(&mut t, "point read", "collection view (Collection::get)", 1, || plain.get(&probe()));
    let op = "range price 100..=110";
    timed(&mut t, op, "collection scan", in_range.len(), || range(&plain));
    timed(&mut t, op, "persistent index", in_range.len(), || range(&viewed));
    let (mut next, op) = (n, format!("{commits} Session commits, 1 doc each"));
    for (coll, config) in
        [("plain", "no secondary views"), ("viewed", "persistent + GIN + full-text")]
    {
        timed(&mut t, &op, config, commits, || {
            for _ in 0..commits {
                next += 1;
                db.transact(IsolationLevel::Snapshot, 0, |s| s.insert_document(coll, record(next)))
                    .expect("commit");
            }
        });
    }
    assert_eq!(plain.len() + viewed.len(), n + next, "the commit hook missed a commit");
    Ok(t)
}

/// Sorted payloads of path-index postings.
fn payloads<L, T: Copy + Ord>(postings: Vec<&(L, T)>) -> Vec<T> {
    let mut ids: Vec<T> = postings.into_iter().map(|(_, id)| *id).collect();
    ids.sort_unstable();
    ids
}

/// E8 (slide 81; Oracle XMLIndex, MarkLogic): a path index answers
/// document-wide path queries without touching the tree; navigation wins
/// when the subtree is already in hand.
fn e8_path_index(scale: f64) -> Result<TextTable> {
    let section = |s: usize| {
        let product = |p: usize| {
            Value::object([
                ("name", Value::str(format!("product-{s}-{p}"))),
                ("price", Value::int(((s * 50 + p) % 200) as i64)),
            ])
        };
        Value::object([("product", Value::Array((0..50).map(product).collect()))])
    };
    let sections = Value::Array((0..sized(20, scale)).map(section).collect());
    let tree = Tree::from_json(&Value::object([("section", sections)]));
    let index = tree.build_path_index();
    let root = tree.root();
    let (absolute, any_name) = (XPath::parse("/section/product/name")?, XPath::parse("//name")?);
    let relative = XPath::parse("product/name")?;
    let all_sections = XPath::parse("/section")?.select(&tree, root)?;
    let middle = all_sections[all_sections.len() / 2];
    let label = &tree.node(middle).label;
    let navigate = |xpath: &XPath, at| -> Result<Vec<_>> {
        let mut ids = xpath.select(&tree, at)?;
        ids.sort_unstable();
        Ok(ids)
    };
    let names = navigate(&absolute, root)?;
    assert_eq!(names.len(), all_sections.len() * 50);
    assert_eq!(payloads(index.lookup("/section/product/name")), names);
    assert_eq!(navigate(&any_name, root)?, names);
    assert_eq!(payloads(index.lookup_suffix("/name")), names);
    let in_subtree = navigate(&relative, middle)?;
    assert_eq!(in_subtree.len(), 50);
    assert_eq!(payloads(index.lookup_in_subtree("/section/product/name", label)), in_subtree);

    let mut t = table();
    let (n, op) = (names.len(), "/section/product/name");
    timed(&mut t, op, "navigation", n, || absolute.select(&tree, root));
    timed(&mut t, op, "path index", n, || index.lookup("/section/product/name"));
    timed(&mut t, "//name", "navigation", n, || any_name.select(&tree, root));
    timed(&mut t, "//name", "path index suffix lookup", n, || index.lookup_suffix("/name"));
    let op = "names in one section";
    timed(&mut t, op, "navigation from the section", 50, || relative.select(&tree, middle));
    timed(&mut t, op, "path index label-prefix filter", 50, || {
        index.lookup_in_subtree("/section/product/name", label)
    });
    Ok(t)
}

/// E9 (slide 35): each of DB2-RDF's four access paths turns its lookup
/// shape from a scan into a probe; a secondary (SP/OP) path beats
/// filtering its primary path's postings.
fn e9_rdf_access_paths(scale: f64) -> Result<TextTable> {
    let n = sized(100_000, scale);
    let people = (n / 10).max(1);
    let person = |i: usize| format!("person{}", i % people);
    let product = |i: usize| Value::str(format!("product{}", i % 500));
    let store = |paths| -> Result<TripleStore> {
        let mut s = TripleStore::new(paths);
        // Four triples per round, one per predicate, so a person has
        // every predicate and the BGP below has answers.
        for i in 0..n {
            let (round, subject) = (i / 4, person(i / 4));
            s.insert(match i % 4 {
                0 => Triple::new(&subject, "knows", person(round + 17)),
                1 => Triple::new(&subject, "creditLimit", Value::int((round % 100) as i64 * 100)),
                2 => Triple::new(&subject, "city", format!("city{}", round % 50)),
                _ => Triple::new(&subject, "ordered", product(round)),
            })?;
        }
        Ok(s)
    };
    let primary_only =
        AccessPaths { direct_secondary: false, reverse_secondary: false, ..AccessPaths::all() };
    let (all, primary, scan) =
        (store(AccessPaths::all())?, store(primary_only)?, store(AccessPaths::none())?);
    let paths =
        [("all four paths", &all), ("primary paths only", &primary), ("no paths (scan)", &scan)];
    for i in (0..people).step_by((people / 16).max(1)) {
        let (s, o) = (person(i), product(i));
        for (_, store) in &paths[..2] {
            assert_eq!(store.by_subject(&s), scan.by_subject(&s), "S-bound {s}");
            assert_eq!(
                store.by_subject_predicate(&s, "knows"),
                scan.by_subject_predicate(&s, "knows")
            );
            assert_eq!(
                store.by_object_predicate(&o, "ordered"),
                scan.by_object_predicate(&o, "ordered")
            );
        }
    }
    let bgp = SelectQuery::new(vec![
        TriplePattern::parse("?c", "creditLimit", "?limit"),
        TriplePattern::parse("?c", "knows", "?friend"),
        TriplePattern::parse("?friend", "ordered", "?product"),
    ])
    .filter("limit", CmpOp::Gt, Value::int(9000))
    .project(&["product"]);
    let joined = bgp.eval(&all)?;
    assert!(!joined.is_empty(), "the E9 BGP has no answers");
    assert_eq!(bgp.eval(&primary)?, joined, "the BGP join depends on the access path");

    let mut t = table();
    let mut i = 0;
    for (config, store) in paths {
        let hits = store.by_subject(&person(0)).len();
        timed(&mut t, "S-bound", config, hits, || {
            i += 7919;
            store.by_subject(&person(i))
        });
    }
    for (config, store) in paths {
        let hits = store.by_subject_predicate(&person(0), "knows").len();
        timed(&mut t, "SP-bound (knows)", config, hits, || {
            i += 7919;
            store.by_subject_predicate(&person(i), "knows")
        });
    }
    for (config, store) in paths {
        let hits = store.by_object_predicate(&product(0), "ordered").len();
        timed(&mut t, "OP-bound (ordered)", config, hits, || {
            i += 13;
            store.by_object_predicate(&product(i), "ordered")
        });
    }
    for (config, store) in &paths[..2] {
        timed(&mut t, "3-pattern BGP join", config, joined.len(), || bgp.eval(store));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_ablation_agrees_with_its_oracle_at_a_tiny_scale() {
        for (title, run) in super::ALL {
            let table = run(0.01).unwrap_or_else(|e| panic!("{title}: {e}"));
            assert!(table.render().lines().count() > 6, "{title} has no rows");
        }
    }
}
