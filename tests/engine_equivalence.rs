//! Property-based integration tests: different access paths through the
//! engine must agree — index scans vs full scans, hash joins vs nested
//! loops, projected vs whole document reads, early vs final duplicate
//! elimination, MMQL vs SQL, documents in vs documents out.

use proptest::prelude::*;

use mmdb::substrate::query::{exec, optimize, parse_query, plan, sql};
use mmdb::{Database, Value};
use mmdb_txn::IsolationLevel;

fn arb_doc() -> impl Strategy<Value = (String, i64, String)> {
    ("[a-z]{1,8}", -1000i64..1000, "[a-c]{1}")
}

/// A value for an indexed field from a small domain of every scalar
/// type, so that values collide within and across types: an int, the
/// same number as a float, a fraction, a string, a bool, NULL, or no
/// field at all.
fn arb_indexed() -> impl Strategy<Value = Option<Value>> {
    (0u8..7, -2i64..3).prop_map(|(kind, n)| match kind {
        0 => Some(Value::int(n)),
        1 => Some(Value::float(n as f64)),
        2 => Some(Value::float(n as f64 + 0.5)),
        3 => Some(Value::str(["", "a", "b"][n.rem_euclid(3) as usize])),
        4 => Some(Value::Bool(n > 0)),
        5 => Some(Value::Null),
        _ => None,
    })
}

/// A join key from a small domain, so that keys collide within and
/// across types: an int, the same number as a float, its digits as a
/// string, NULL, or no field at all.
fn arb_join_key() -> impl Strategy<Value = Option<Value>> {
    (0u8..5, 0i64..4).prop_map(|(kind, n)| match kind {
        0 => Some(Value::int(n)),
        1 => Some(Value::float(n as f64)),
        2 => Some(Value::str(n.to_string())),
        3 => Some(Value::Null),
        _ => None,
    })
}

fn load_join_side(db: &Database, name: &str, docs: &[(Option<Value>, i64)]) {
    db.create_collection(name).unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for (i, (k, v)) in docs.iter().enumerate() {
            let mut fields =
                vec![("_key", Value::str(format!("{name}{i:02}"))), ("v", Value::int(*v))];
            fields.extend(k.clone().map(|k| ("k", k)));
            s.insert_document(name, Value::object(fields))?;
        }
        Ok(())
    })
    .unwrap();
}

/// A field value of a random order: scalars, arrays and objects nested
/// three deep, over the names the projection templates navigate.
fn arb_field() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        (0i64..4).prop_map(Value::int),
        "[a-c]{0,2}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec(
                (prop::sample::select(vec!["price", "product_no", "orderlines"]), inner),
                0..4,
            )
            .prop_map(Value::object),
        ]
    })
}

/// An order's fields: any of four, each any shape (a missing
/// `orderlines`, a scalar one, lines that are arrays, …).
fn arb_order() -> impl Strategy<Value = Vec<(&'static str, Value)>> {
    let name = prop::sample::select(vec!["orderlines", "total", "customer_id", "status"]);
    prop::collection::vec((name, arb_field()), 0..5)
}

/// The same documents, each with a `note` of "good" or "bad", as the
/// `orders` collection (with a persistent index on `total` and a
/// full-text index on `note`) and as the vertices `v/o0`, `v/o1`, … of a
/// graph whose `e` edges lead from each to the next two. `v/o0` also has
/// an edge to itself and one to a vertex that does not exist.
fn load_orders(db: &Database, orders: &[Vec<(&'static str, Value)>]) {
    db.create_collection("orders").unwrap();
    db.create_graph("g").unwrap();
    db.create_vertex_collection("g", "v").unwrap();
    db.create_edge_collection("g", "e").unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for (i, fields) in orders.iter().enumerate() {
            let mut doc = Value::object(fields.iter().cloned());
            let obj = doc.as_object_mut()?;
            obj.insert("_key", Value::str(format!("o{i}")));
            obj.insert("note", Value::str(if i % 2 == 0 { "good" } else { "bad" }));
            s.insert_document("orders", doc.clone())?;
            s.add_vertex("g", "v", doc)?;
        }
        for i in 0..orders.len() {
            for j in [i + 1, i + 2].into_iter().filter(|&j| j < orders.len()) {
                s.add_edge("g", "e", &format!("v/o{i}"), &format!("v/o{j}"), Value::Object(Default::default()))?;
            }
        }
        s.add_edge("g", "e", "v/o0", "v/o0", Value::Object(Default::default())).map(drop)
    })
    .unwrap();
    // Written raw: the session's `add_edge` refuses a missing endpoint.
    let mut t = db.mvcc().begin(IsolationLevel::Snapshot);
    let dangling = r#"{"_key":"dangling","_from":"v/o0","_to":"v/missing"}"#;
    t.put("graph/g/e/e", b"dangling", mmdb::from_json(dangling).unwrap()).unwrap();
    t.commit().unwrap();
    db.create_index("orders", "total").unwrap();
    db.create_fulltext_index("note_text", "orders", "note").unwrap();
}

/// A person's `score` (nullable INT) and `note` (nullable TEXT).
fn arb_person() -> impl Strategy<Value = (Option<i64>, Option<&'static str>)> {
    let score = (0u8..4).prop_map(|n| n.checked_sub(1).map(i64::from));
    (score, prop::sample::select(vec![None, Some("a"), Some("bb"), Some("")]))
}

/// The table `people (id INT, name TEXT NOT NULL, score INT, note
/// TEXT)`, with a column index on `score`: person `i` is named `n<i>`.
fn load_people(db: &Database, people: &[(Option<i64>, Option<&'static str>)]) {
    use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
    let columns = vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("name", DataType::Text).not_null(),
        ColumnDef::new("score", DataType::Int),
        ColumnDef::new("note", DataType::Text),
    ];
    db.create_table("people", Schema::new(columns, "id").unwrap()).unwrap();
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for (i, (score, note)) in people.iter().enumerate() {
            s.insert_row(
                "people",
                Value::object([
                    ("id", Value::int(i as i64)),
                    ("name", Value::str(format!("n{i}"))),
                    ("score", score.map_or(Value::Null, Value::int)),
                    ("note", note.map_or(Value::Null, Value::str)),
                ]),
            )?;
        }
        Ok(())
    })
    .unwrap();
    db.create_index("people", "score").unwrap();
}

/// Queries whose answers depend on what a projected read keeps, each
/// with whether rule 6 should project a read in it. The whole-value
/// uses must stay whole; the navigations must find what they navigate.
const PROJECTION_TEMPLATES: &[(&str, bool)] = &[
    ("FOR o IN orders RETURN o", false),
    ("FOR o IN orders RETURN MERGE(o, {})", false),
    ("FOR o IN orders RETURN LENGTH(o)", false),
    ("FOR o IN orders FILTER o RETURN 1", false),
    ("FOR o IN orders SORT o RETURN 1", false),
    ("FOR o IN orders FILTER o == {_key: \"o0\", note: \"good\"} RETURN 1", false),
    ("FOR o IN orders COLLECT t = o.total INTO g RETURN [t, g]", false),
    ("FOR o IN orders LET n = (FOR o IN o.orderlines RETURN o) RETURN [o.total, n]", false),
    ("FOR o IN orders RETURN o.orderlines[1].price", true),
    ("FOR o IN orders RETURN o.orderlines[-1].price", true),
    ("FOR o IN orders RETURN o.orderlines[*].product_no", true),
    ("FOR o IN orders RETURN o.orderlines.price", true),
    ("FOR o IN orders RETURN LENGTH(o.orderlines)", true),
    ("FOR o IN orders FOR l IN o.orderlines RETURN [o._key, l.price]", true),
    ("FOR o IN orders LET ls = o.orderlines RETURN ls[0]", true),
    ("FOR o IN orders FOR l IN o.orderlines RETURN o._key", true),
    ("FOR o IN orders LET ls = o.orderlines FILTER ls != NULL RETURN o._key", true),
    ("FOR o IN orders FILTER o.total >= 1 SORT o._key RETURN [o._key, o.orderlines]", true),
    ("FOR c IN orders LET t = (FOR o IN orders FILTER o.customer_id == c.customer_id \
      RETURN o.total) RETURN [c._key, t]", true),
    ("FOR o IN orders COLLECT t = o.total AGGREGATE n = COUNT() RETURN [t, n]", true),
    ("FOR o IN FULLTEXT(\"note_text\", \"good\") SORT o._key RETURN [o._key, o.orderlines[0]]", true),
    ("LET o = DOC(\"orders\", \"missing\") RETURN [o == NULL, o != NULL, o.total]", true),
    ("LET o = DOC(\"orders\", \"o0\") RETURN [o == NULL, o.status]", true),
    // A hash join builds from every item of a LET-bound source.
    ("LET d = DOC(\"orders\", \"o0\") LET ls = d.orderlines FOR c IN orders \
      FOR l IN ls FILTER l.product_no == c.customer_id RETURN [c._key, ls[0].price]", true),
    ("FOR v IN 1..2 OUTBOUND \"v/o0\" e RETURN [v._id, v.total]", true),
    ("FOR v IN 1..2 OUTBOUND \"v/o0\" e RETURN [v._depth, v.orderlines[*].price]", true),
    ("FOR v IN 1..2 OUTBOUND \"v/o0\" e RETURN v", false),
    // A traversal that reads no stored field but `_key` fetches no vertex;
    // the self-loop's start and the dangling edge's target stay out.
    ("FOR v IN 0..1 OUTBOUND \"v/o0\" e RETURN v._key", true),
    ("FOR v IN 0..1 OUTBOUND \"v/o0\" e RETURN [v._id, v._key, v._depth]", true),
    ("FOR v IN 0..1 OUTBOUND \"v/o0\" e RETURN 1", true),
    ("FOR v IN 1..1 OUTBOUND \"v/o0\" e RETURN v._key", true),
    ("FOR v IN 1..1 OUTBOUND \"v/o0\" e RETURN [v._id, v._key, v._depth]", true),
    ("FOR v IN 1..1 OUTBOUND \"v/o0\" e RETURN 1", true),
    ("FOR v IN 1..2 ANY \"v/o1\" e RETURN v._key", true),
    ("FOR v IN 1..2 ANY \"v/o1\" e RETURN [v._id, v._key, v._depth]", true),
    ("FOR v IN 1..2 ANY \"v/o1\" e RETURN 1", true),
    // A table's rows keep the columns read; whole-row uses keep all.
    ("FOR p IN people RETURN p.name", true),
    ("FOR p IN people RETURN [p.id, p.score, p.nope]", true),
    ("FOR p IN people FILTER p.score != NULL RETURN [p.note, p.score]", true),
    ("FOR p IN people FILTER p != NULL RETURN 1", true),
    ("FOR p IN people RETURN p", false),
    ("FOR p IN people RETURN LENGTH(p)", false),
    ("FOR p IN people RETURN MERGE(p, {})", false),
    // An index scan over the column index, with a residual.
    ("FOR p IN people FILTER p.score >= 1 && p.note != \"a\" SORT p.id RETURN [p.id, p.note]", true),
    // A hash join built over the table.
    ("FOR o IN orders FOR p IN people FILTER p.id == o.customer_id RETURN [o._key, p.name]", true),
    // Scan filters that fail on some rows (a text or NULL divisor,
    // division by zero), one of them under several incoming rows: the
    // first error is the one the filter after the scan met first.
    ("FOR p IN people FILTER 10 / (p.score == NULL ? p.note : p.score) > 1 RETURN p.id", true),
    ("FOR x IN [1, 2] FOR p IN people FILTER 10 / (p.score - x) > 0 RETURN [x, p.id]", true),
];

/// A value that equals others of this domain under `==` without being
/// the same value: `1` and `1.0`, and one object with its keys in either
/// order; `TO_STRING` and `JSON_STRINGIFY` tell them apart.
fn arb_tag() -> impl Strategy<Value = Option<Value>> {
    let object = |keys: [&'static str; 2]| Value::object(keys.map(|k| (k, Value::int(k.len() as i64))));
    prop::sample::select(vec![
        Some(Value::int(1)),
        Some(Value::float(1.0)),
        Some(object(["a", "bb"])),
        Some(object(["bb", "a"])),
        None,
    ])
}

/// Queries whose rows fan in (several `orders` reach the same vertex over
/// `e`, several carts the same order), each with the `Dedup` rule 7
/// should put in its plan: the start of the line before it and its own
/// line.
const DEDUP_TEMPLATES: &[(&str, Option<(&str, &str)>)] = &[
    // The benchmark's Q2, with a SORT after the cut.
    (
        "FOR c IN orders FOR f IN 1..1 OUTBOUND CONCAT(\"v/\", c._key) e \
         LET o = DOC(\"orders\", KV_GET(\"cart\", f._key)) FILTER o != NULL SORT o.total \
         FOR l IN o.orderlines RETURN DISTINCT l.product_no",
        Some(("Traverse f", "Dedup ON (f)")),
    ),
    // The outer variable is read to the end.
    (
        "FOR c IN orders FOR f IN 1..1 OUTBOUND CONCAT(\"v/\", c._key) e \
         LET o = DOC(\"orders\", KV_GET(\"cart\", f._key)) RETURN DISTINCT [c._key, o.total]",
        None,
    ),
    // LIMIT and COUNT count the rows after the cut.
    (
        "FOR c IN orders FOR f IN 1..1 OUTBOUND CONCAT(\"v/\", c._key) e \
         LET o = DOC(\"orders\", KV_GET(\"cart\", f._key)) LIMIT 5 RETURN DISTINCT o.total",
        None,
    ),
    (
        "FOR c IN orders FOR f IN 1..1 OUTBOUND CONCAT(\"v/\", c._key) e \
         LET o = DOC(\"orders\", KV_GET(\"cart\", f._key)) \
         COLLECT t = o.total AGGREGATE n = COUNT() RETURN DISTINCT [t, n]",
        None,
    ),
    // A subquery after the cut reads the outer variable.
    (
        "FOR c IN orders FOR f IN 1..1 OUTBOUND CONCAT(\"v/\", c._key) e \
         LET s = (FOR x IN [c.status] RETURN x) RETURN DISTINCT [s, f.total]",
        None,
    ),
    // Equal under `==`, told apart downstream.
    (
        "FOR c IN orders FOR f IN 1..2 OUTBOUND CONCAT(\"v/\", c._key) e \
         LET t = f.tag RETURN DISTINCT [TO_STRING(t), JSON_STRINGIFY(t)]",
        Some(("Traverse f", "Dedup ON (f)")),
    ),
    (
        "FOR c IN orders FOR p IN [c.tag, c.total] RETURN DISTINCT JSON_STRINGIFY(p)",
        Some(("For p", "Dedup ON (p)")),
    ),
    // A LET ahead of every FOR is the same for all rows: not in the key.
    (
        "LET all = (FOR o IN orders RETURN o.tag) FOR c IN orders FOR t IN all \
         LET y = [t, all] RETURN DISTINCT JSON_STRINGIFY(y)",
        Some(("For t", "Dedup ON (t)")),
    ),
    // The last read of `c` makes the value the key is over.
    (
        "LET all = (FOR o IN orders RETURN o.tag) FOR c IN orders FOR t IN all \
         LET y = [t, all, c.tag == t] RETURN DISTINCT JSON_STRINGIFY(y)",
        Some(("Let y", "Dedup ON (y)")),
    ),
    // A subquery that reads the outer `c`, then binds a `c` of its own:
    // the outer one is read there, and dies after it.
    (
        "FOR c IN orders FOR f IN 1..1 OUTBOUND CONCAT(\"v/\", c._key) e \
         LET s = (FOR x IN [c.status] FOR c IN [x, f.tag] RETURN c) RETURN DISTINCT JSON_STRINGIFY(s)",
        Some(("└ Return", "Dedup ON (s)")),
    ),
    // A later LET rebinds `c`: the new `c` is read to the FILTER, and
    // only then are rows told apart by `f` alone.
    (
        "FOR c IN orders FOR f IN 1..1 OUTBOUND CONCAT(\"v/\", c._key) e \
         LET c = f.tag FILTER c != NULL RETURN DISTINCT JSON_STRINGIFY(f.total)",
        Some(("Filter", "Dedup ON (f)")),
    ),
    // Downstream work that can fail: the first error is the same one.
    (
        "FOR c IN orders FOR f IN 1..1 OUTBOUND CONCAT(\"v/\", c._key) e \
         LET x = f.total * 2 RETURN DISTINCT x",
        Some(("Traverse f", "Dedup ON (f)")),
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rule 6 is exact: a plan whose document reads decode only the
    /// paths the plan reads returns what the un-rewritten plan (every
    /// read whole) returns — the same rows in the same order, or the
    /// same error.
    #[test]
    fn projected_reads_equal_whole_reads(
        orders in prop::collection::vec(arb_order(), 1..8),
        people in prop::collection::vec(arb_person(), 0..6),
    ) {
        let db = Database::in_memory();
        load_orders(&db, &orders);
        load_people(&db, &people);
        let world = db.world();
        let sql_text = "SELECT o._key, o.total AS t FROM orders o WHERE o.status != NULL ORDER BY o._key";
        let parsed = PROJECTION_TEMPLATES
            .iter()
            .map(|&(text, projects)| (text, projects, parse_query(text).unwrap()))
            .chain([(sql_text, true, sql::parse_sql(sql_text).unwrap())]);
        for (text, projects, query) in parsed {
            let whole = plan::build_plan(&query).unwrap();
            let projected = optimize::optimize(whole.clone(), world);
            prop_assert_eq!(projected.explain().contains("project("), projects, "{}", projected.explain());
            let want = exec::execute_plan(world, &whole).map_err(|e| e.to_string());
            let got = exec::execute_plan(world, &projected).map_err(|e| e.to_string());
            prop_assert_eq!(got, want, "{}", text);
        }
    }

    /// Random values of every scalar type, NULL and a missing field
    /// among them; a random comparison, one- or two-sided, either way
    /// round: a read through a collection's persistent index and through
    /// a table's column index returns what the full scan returns.
    #[test]
    fn index_scan_equals_full_scan(
        prices in prop::collection::vec(arb_indexed(), 1..100),
        op in 0u8..7,
        flip in any::<bool>(),
        lo in arb_indexed(),
        hi in arb_indexed(),
    ) {
        let db = Database::in_memory();
        db.create_collection("d").unwrap();
        use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
        let columns = vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("price", DataType::Json)];
        db.create_table("t", Schema::new(columns, "id").unwrap()).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            for (i, price) in prices.iter().enumerate() {
                let mut doc = Value::object([("_key", Value::str(format!("k{i:03}")))]);
                let mut row = Value::object([("id", Value::int(i as i64))]);
                if let Some(price) = price {
                    doc.as_object_mut()?.insert("price", price.clone());
                    row.as_object_mut()?.insert("price", price.clone());
                }
                s.insert_document("d", doc)?;
                s.insert_row("t", row)?;
            }
            Ok(())
        }).unwrap();
        let literal = |v: &Option<Value>| match v {
            None | Some(Value::Null) => "null".to_string(),
            Some(Value::String(s)) => format!("\"{s}\""),
            Some(v) => v.to_string(),
        };
        let (lo, hi) = (literal(&lo), literal(&hi));
        let one_sided = |op: &str, mirror: &str| if flip { format!("{lo} {mirror} x.price") } else { format!("x.price {op} {lo}") };
        let filter = match op {
            0 => one_sided("<", ">"),
            1 => one_sided("<=", ">="),
            2 => one_sided(">", "<"),
            3 => one_sided(">=", "<="),
            4 => one_sided("==", "=="),
            5 => format!("x.price >= {lo} && x.price <= {hi}"),
            _ => format!("x.price > {lo} && x.price < {hi}"),
        };
        for (source, key) in [("d", "_key"), ("t", "id")] {
            let q = format!("FOR x IN {source} FILTER {filter} SORT x.{key} RETURN x.{key}");
            let unindexed = db.query(&q).unwrap();
            db.create_index(source, "price").unwrap();
            prop_assert!(db.explain(&q).unwrap().contains("IndexScan"), "{}", q);
            let indexed = db.query(&q).unwrap();
            prop_assert_eq!(unindexed, indexed, "{}", q);
        }
    }

    /// The SQL frontend and MMQL agree on equivalent filters/sorts.
    #[test]
    fn sql_equals_mmql(
        rows in prop::collection::vec((0i64..500, -100i64..100), 1..40),
        threshold in -100i64..100,
    ) {
        let db = Database::in_memory();
        use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
        db.create_table(
            "t",
            Schema::new(
                vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("v", DataType::Int)],
                "id",
            ).unwrap(),
        ).unwrap();
        let mut seen = std::collections::HashSet::new();
        let unique: Vec<_> = rows.iter().filter(|(id, _)| seen.insert(*id)).collect();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            for (id, v) in &unique {
                s.insert_row("t", Value::object([("id", Value::int(*id)), ("v", Value::int(*v))]))?;
            }
            Ok(())
        }).unwrap();
        let sql = db.query_sql(&format!("SELECT v FROM t WHERE v > {threshold} ORDER BY id")).unwrap();
        let mmql = db.query(&format!("FOR r IN t FILTER r.v > {threshold} SORT r.id RETURN r.v")).unwrap();
        prop_assert_eq!(sql, mmql);
    }

    /// Documents survive the full insert → WAL → commit-hook → query path.
    #[test]
    fn document_roundtrip_through_transactions(
        docs in prop::collection::vec(arb_doc(), 1..20),
    ) {
        let db = Database::in_memory();
        db.create_collection("c").unwrap();
        let mut keys = Vec::new();
        for (i, (name, price, _)) in docs.iter().enumerate() {
            let key = db.transact(IsolationLevel::Snapshot, 3, |s| {
                s.insert_document("c", Value::object([
                    ("_key", Value::str(format!("k{i}"))),
                    ("name", Value::str(name.clone())),
                    ("price", Value::int(*price)),
                ]))
            }).unwrap();
            keys.push(key);
        }
        for (i, (name, price, _)) in docs.iter().enumerate() {
            let doc = db.get_document("c", &keys[i]).unwrap().unwrap();
            prop_assert_eq!(doc.get_field("name"), &Value::str(name.clone()));
            prop_assert_eq!(doc.get_field("price"), &Value::int(*price));
        }
        let n = db.query("FOR x IN c RETURN 1").unwrap().len();
        prop_assert_eq!(n, docs.len());
    }

    /// COLLECT aggregates equal a reference computation.
    #[test]
    fn collect_sum_equals_reference(
        items in prop::collection::vec((0i64..5, -50i64..50), 1..50),
    ) {
        let db = Database::in_memory();
        db.create_collection("s").unwrap();
        let mut reference: std::collections::BTreeMap<i64, i64> = Default::default();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            for (grp, v) in &items {
                let doc = Value::object([("grp", Value::int(*grp)), ("v", Value::int(*v))]);
                s.insert_document("s", doc)?;
            }
            Ok(())
        }).unwrap();
        for (grp, v) in &items {
            *reference.entry(*grp).or_default() += v;
        }
        let rows = db.query(
            "FOR x IN s COLLECT g = x.grp AGGREGATE total = SUM(x.v) SORT g RETURN [g, total]"
        ).unwrap();
        let got: Vec<(i64, i64)> = rows.iter().map(|r| {
            (r.get_index(0).as_int().unwrap(), r.get_index(1).as_int().unwrap())
        }).collect();
        let want: Vec<(i64, i64)> = reference.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// The hash-join rewrite is exact: for every shape it fires on, the
    /// optimized plan returns what the plan as parsed (every FOR a nested
    /// loop) returns, row for row in the same order.
    #[test]
    fn hash_join_equals_nested_loop(
        left in prop::collection::vec((arb_join_key(), 0i64..3), 0..12),
        right in prop::collection::vec((arb_join_key(), 0i64..3), 0..16),
    ) {
        let db = Database::in_memory();
        load_join_side(&db, "l", &left);
        load_join_side(&db, "r", &right);
        let world = db.world();
        for residual in ["", " && b.v > a.v"] {
            let mmql = [
                format!("FOR a IN l LET m = (FOR b IN r FILTER b.k == a.k{residual} RETURN b._key) \
                         RETURN [a._key, m]"),
                format!("FOR a IN l FOR b IN r FILTER a.k == b.k{residual} RETURN [a._key, b._key]"),
                format!("LET rs = (FOR b IN r RETURN b) FOR a IN l \
                         LET m = (FOR b IN rs FILTER b.k == a.k{residual} RETURN b._key) \
                         RETURN [a._key, m]"),
            ];
            let where_clause = residual.replace(" &&", " WHERE");
            let sql_text =
                format!("SELECT a._key AS a, b._key AS b FROM l a JOIN r b ON b.k = a.k{where_clause}");
            let parsed = mmql
                .iter()
                .map(|text| (text, parse_query(text).unwrap()))
                .chain([(&sql_text, sql::parse_sql(&sql_text).unwrap())]);
            for (text, query) in parsed {
                let nested = plan::build_plan(&query).unwrap();
                let joined = optimize::optimize(nested.clone(), world);
                prop_assert!(joined.explain().contains("HashJoin"), "no join in {}", text);
                prop_assert!(!nested.explain().contains("HashJoin"));
                let want = exec::execute_plan(world, &nested).unwrap();
                let got = exec::execute_plan(world, &joined).unwrap();
                prop_assert_eq!(got, want, "{}", text);
            }
        }
    }

    /// Rule 7 is exact: dropping a row whose live bindings repeat an
    /// earlier row's leaves what a `RETURN DISTINCT` plan returns — the
    /// same rows in the same order, or the same error — as the plan as
    /// parsed, which deduplicates only its results.
    #[test]
    fn early_dedup_equals_the_plan_as_parsed(
        orders in prop::collection::vec((arb_order(), arb_tag(), 0usize..9), 1..8),
    ) {
        let db = Database::in_memory();
        let docs: Vec<_> = orders
            .iter()
            .map(|(fields, tag, _)| fields.iter().cloned().chain(tag.clone().map(|t| ("tag", t))).collect())
            .collect();
        load_orders(&db, &docs);
        db.create_bucket("cart").unwrap();
        // Each vertex's cart points at some order, or at none.
        for (i, (_, _, to)) in orders.iter().enumerate() {
            let to = to % (orders.len() + 1);
            if to < orders.len() {
                db.kv_put("cart", &format!("o{i}"), Value::str(format!("o{to}"))).unwrap();
            }
        }
        let world = db.world();
        let sql_text = "SELECT DISTINCT TO_STRING(o.status) AS s FROM orders c \
                        JOIN orders o ON o.customer_id = c.customer_id";
        let parsed = DEDUP_TEMPLATES
            .iter()
            .map(|&(text, dedup)| (text, dedup, parse_query(text).unwrap()))
            .chain([(sql_text, Some(("HashJoin o", "Dedup ON (o)")), sql::parse_sql(sql_text).unwrap())]);
        for (text, dedup, query) in parsed {
            let as_parsed = plan::build_plan(&query).unwrap();
            let optimized = optimize::optimize(as_parsed.clone(), world);
            let explain = optimized.explain();
            let lines: Vec<&str> = explain.lines().collect();
            let at: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].starts_with("Dedup")).collect();
            match dedup {
                None => prop_assert!(at.is_empty(), "{}", explain),
                Some((before, line)) => {
                    prop_assert_eq!(at.len(), 1, "{}", explain);
                    prop_assert_eq!(lines[at[0]], line, "{}", explain);
                    prop_assert!(lines[at[0] - 1].starts_with(before), "{}", explain);
                }
            }
            let want = exec::execute_plan(world, &as_parsed).map_err(|e| e.to_string());
            let got = exec::execute_plan(world, &optimized).map_err(|e| e.to_string());
            prop_assert_eq!(got, want, "{}", text);
        }
    }
}
