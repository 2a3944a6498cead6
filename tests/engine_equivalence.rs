//! Property-based integration tests: different access paths through the
//! engine must agree — index scans vs full scans, hash joins vs nested
//! loops, MMQL vs SQL, documents in vs documents out.

use proptest::prelude::*;

use mmdb::substrate::query::{exec, optimize, parse_query, plan, sql};
use mmdb::{Database, Value};

fn arb_doc() -> impl Strategy<Value = (String, i64, String)> {
    ("[a-z]{1,8}", -1000i64..1000, "[a-c]{1}")
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
    let coll = db.world().collection(name).unwrap();
    for (i, (k, v)) in docs.iter().enumerate() {
        let mut fields = vec![("_key", Value::str(format!("{name}{i:02}"))), ("v", Value::int(*v))];
        fields.extend(k.clone().map(|k| ("k", k)));
        coll.insert(Value::object(fields)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random documents, random range predicate: indexed and unindexed
    /// evaluation agree.
    #[test]
    fn index_scan_equals_full_scan(
        docs in prop::collection::vec(arb_doc(), 1..60),
        lo in -1000i64..1000,
        width in 0i64..500,
    ) {
        let db = Database::in_memory();
        db.create_collection("d").unwrap();
        let coll = db.world().collection("d").unwrap();
        for (i, (name, price, cat)) in docs.iter().enumerate() {
            coll.insert(Value::object([
                ("_key", Value::str(format!("k{i}"))),
                ("name", Value::str(name.clone())),
                ("price", Value::int(*price)),
                ("cat", Value::str(cat.clone())),
            ])).unwrap();
        }
        let hi = lo + width;
        let q = format!(
            "FOR x IN d FILTER x.price >= {lo} && x.price <= {hi} SORT x._key RETURN x._key"
        );
        let unindexed = db.query(&q).unwrap();
        coll.create_persistent_index("price").unwrap();
        let indexed = db.query(&q).unwrap();
        prop_assert_eq!(unindexed, indexed);
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
        let table = db.world().catalog.table("t").unwrap();
        let mut seen = std::collections::HashSet::new();
        for (id, v) in &rows {
            if seen.insert(*id) {
                table.insert(vec![Value::int(*id), Value::int(*v)]).unwrap();
            }
        }
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
            let key = db.transact(mmdb_txn::IsolationLevel::Snapshot, 3, |s| {
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
        let coll = db.world().collection("s").unwrap();
        let mut reference: std::collections::BTreeMap<i64, i64> = Default::default();
        for (grp, v) in &items {
            coll.insert(Value::object([("grp", Value::int(*grp)), ("v", Value::int(*v))])).unwrap();
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
}
