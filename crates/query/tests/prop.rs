//! Property tests for MMQL: language semantics against reference
//! computations in plain Rust.

use proptest::prelude::*;

use mmdb_query::{parse_query, run, World};
use mmdb_types::Value;

fn world_with(values: &[i64]) -> World {
    let w = World::in_memory();
    let c = w.catalog.create_collection("nums").unwrap();
    for (i, v) in values.iter().enumerate() {
        c.insert(Value::object([
            ("_key", Value::str(format!("k{i:04}"))),
            ("v", Value::int(*v)),
        ]))
        .unwrap();
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FILTER over a collection equals Rust's filter.
    #[test]
    fn filter_matches_reference(values in prop::collection::vec(-100i64..100, 0..50), t in -100i64..100) {
        let w = world_with(&values);
        let got = run(&w, &format!("FOR n IN nums FILTER n.v > {t} SORT n._key RETURN n.v")).unwrap();
        let want: Vec<Value> = values.iter().filter(|v| **v > t).map(|v| Value::int(*v)).collect();
        prop_assert_eq!(got, want);
    }

    /// SORT + LIMIT equals Rust's sort + slice (stable w.r.t. ties by the
    /// secondary key).
    #[test]
    fn sort_limit_matches_reference(
        values in prop::collection::vec(-50i64..50, 0..60),
        offset in 0usize..10,
        count in 0usize..20,
    ) {
        let w = world_with(&values);
        let got = run(&w, &format!(
            "FOR n IN nums SORT n.v DESC, n._key LIMIT {offset}, {count} RETURN n.v"
        )).unwrap();
        let mut decorated: Vec<(i64, usize)> = values.iter().copied().zip(0..).collect();
        decorated.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let want: Vec<Value> = decorated
            .into_iter()
            .skip(offset)
            .take(count)
            .map(|(v, _)| Value::int(v))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// RETURN DISTINCT deduplicates preserving first occurrence.
    #[test]
    fn distinct_matches_reference(values in prop::collection::vec(-10i64..10, 0..50)) {
        let w = World::in_memory();
        let list = values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",");
        let got = run(&w, &format!("FOR x IN [{list}] RETURN DISTINCT x")).unwrap();
        let mut seen = Vec::new();
        for v in &values {
            if !seen.contains(v) {
                seen.push(*v);
            }
        }
        let want: Vec<Value> = seen.into_iter().map(Value::int).collect();
        prop_assert_eq!(got, want);
    }

    /// COLLECT COUNT over groups equals a reference histogram.
    #[test]
    fn collect_count_matches_reference(values in prop::collection::vec(0i64..5, 1..60)) {
        let w = world_with(&values);
        let got = run(&w,
            "FOR n IN nums COLLECT g = n.v AGGREGATE c = COUNT() SORT g RETURN [g, c]"
        ).unwrap();
        let mut hist = std::collections::BTreeMap::new();
        for v in &values {
            *hist.entry(*v).or_insert(0i64) += 1;
        }
        let want: Vec<Value> = hist
            .into_iter()
            .map(|(g, c)| Value::array([Value::int(g), Value::int(c)]))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Arithmetic in RETURN equals Rust arithmetic (integer domain,
    /// division excluded to dodge divide-by-zero).
    #[test]
    fn arithmetic_matches_reference(a in -1000i64..1000, b in -1000i64..1000) {
        let w = World::in_memory();
        let got = run(&w, &format!("RETURN [{a} + {b}, {a} - {b}, {a} * {b}]")).unwrap();
        prop_assert_eq!(
            got,
            vec![Value::array([
                Value::int(a + b),
                Value::int(a - b),
                Value::int(a * b)
            ])]
        );
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(text in "\\PC{0,80}") {
        let _ = parse_query(&text);
    }

    /// Queries that parse either run or fail cleanly — never panic.
    #[test]
    fn fuzzed_small_queries_never_panic(
        field in "[a-c]{1}",
        op in prop::sample::select(vec![">", "<", "==", "!=", ">=", "<="]),
        k in -5i64..5,
    ) {
        let w = world_with(&[1, 2, 3]);
        let q = format!("FOR n IN nums FILTER n.{field} {op} {k} RETURN n.{field}");
        let _ = run(&w, &q);
    }
}
