//! Property-based tests for the open data model: JSON round-trips, codec
//! round-trips, projected decoding, and order preservation of the key
//! encoding.

use mmdb_types::codec::{decode_projected, key_of, value_from_bytes, value_to_bytes};
use mmdb_types::{from_json, to_json, to_json_pretty, Number, Path, PathStep, Projection, Value};
use proptest::prelude::*;

/// Strategy generating arbitrary mmdb values (bounded depth/size).
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::int),
        // Finite floats only; NaN is normalized to null at construction.
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::float),
        "[a-zA-Z0-9 _\\-\u{00e9}\u{4e16}]{0,12}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..6)
                .prop_map(Value::object),
        ]
    })
}

/// Field names of [`arb_doc`] and [`arb_projection`], few enough that a
/// projection meets them.
fn arb_name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["a", "b", "c", "d"])
}

/// Nested documents over [`arb_name`]s, with every scalar kind.
fn arb_doc() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-3i64..3).prop_map(Value::int),
        Just(Value::float(0.5)),
        "[a-c\u{00e9}]{0,3}".prop_map(Value::str),
        Just(Value::Bytes(vec![0, 255])),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec((arb_name(), inner), 0..5).prop_map(Value::object),
        ]
    })
}

/// Up to four paths of up to three steps: fields, indexes and `[*]`.
fn arb_projection() -> impl Strategy<Value = Projection> {
    let step = prop_oneof![
        arb_name().prop_map(|n| PathStep::Field(n.to_string())),
        (-2i64..3).prop_map(PathStep::Index),
        Just(PathStep::Wildcard),
    ];
    let path = prop::collection::vec(step, 0..4).prop_map(Path::from_steps);
    prop::collection::vec(path, 0..5).prop_map(Projection::of)
}

/// JSON-representable values (no bytes), for JSON round-trips.
fn arb_json_value() -> impl Strategy<Value = Value> {
    arb_value()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_roundtrip(v in arb_json_value()) {
        let text = to_json(&v);
        let back = from_json(&text).unwrap();
        prop_assert_eq!(&back, &v);
        let pretty = to_json_pretty(&v);
        prop_assert_eq!(from_json(&pretty).unwrap(), v);
    }

    #[test]
    fn codec_roundtrip(v in arb_value()) {
        let bytes = value_to_bytes(&v);
        prop_assert_eq!(value_from_bytes(&bytes).unwrap(), v);
    }

    /// A projected decode is the projection of the whole decode.
    #[test]
    fn decode_projected_equals_projecting_the_whole_value(v in arb_doc(), p in arb_projection()) {
        let bytes = value_to_bytes(&v);
        prop_assert_eq!(decode_projected(&bytes, &p).unwrap(), p.apply(&v));
        prop_assert_eq!(decode_projected(&bytes, &Projection::ALL).unwrap(), v);
    }

    /// On damaged bytes — a byte overwritten, the tail cut, a byte
    /// appended — a projected decode fails exactly when a whole one does,
    /// however much of the value it skips.
    #[test]
    fn decode_projected_gives_the_whole_decodes_verdict(
        v in arb_doc(),
        p in arb_projection(),
        damage in (0u8..3, any::<u64>(), any::<u8>()),
    ) {
        let mut bytes = value_to_bytes(&v);
        let (kind, at, byte) = damage;
        let at = (at % bytes.len() as u64) as usize;
        match kind {
            0 => bytes[at] = byte,
            1 => bytes.truncate(at),
            _ => bytes.push(byte),
        }
        let whole = value_from_bytes(&bytes);
        let projected = decode_projected(&bytes, &p);
        prop_assert_eq!(whole.is_ok(), projected.is_ok(), "damage {:?} on {}", damage, v);
        if let (Ok(whole), Ok(projected)) = (whole, projected) {
            prop_assert_eq!(projected, p.apply(&whole));
        }
    }

    /// The same, with the damage inside a value the projection skips:
    /// `{"k": 1, "s": v}` read for `k` only, one byte of `v` overwritten.
    #[test]
    fn damage_inside_a_skipped_value_fails_both_decodes(v in arb_doc(), at in any::<u64>(), byte in any::<u8>()) {
        let skipped = value_to_bytes(&v);
        let mut bytes = value_to_bytes(&Value::object([("k", Value::int(1)), ("s", v)]));
        let start = bytes.len() - skipped.len();
        bytes[start + (at % skipped.len() as u64) as usize] = byte;
        let keep = Projection::of([Path::parse("k").unwrap()]);
        prop_assert_eq!(value_from_bytes(&bytes).is_ok(), decode_projected(&bytes, &keep).is_ok());
    }

    #[test]
    fn key_encoding_preserves_total_order(a in arb_value(), b in arb_value()) {
        let (ka, kb) = (key_of(&a), key_of(&b));
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b), "keys disagree for {} vs {}", a, b);
    }

    #[test]
    fn value_order_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Eq consistency.
        prop_assert_eq!(a == b, a.cmp(&b) == std::cmp::Ordering::Equal);
        // Transitivity (spot form): sort and check pairwise.
        let mut v = [a, b, c];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
    }

    #[test]
    fn number_order_matches_math(a in any::<i64>(), b in any::<f64>().prop_filter("finite", |f| f.is_finite())) {
        let va = Value::Number(Number::Int(a));
        let vb = Value::Number(Number::Float(b));
        // Compare against exact math via i128/f64 widening where possible.
        if b.fract() == 0.0 && b.abs() < 9.0e18 {
            let bi = b as i64;
            prop_assert_eq!(va.cmp(&vb), (a as i128).cmp(&(bi as i128)));
        }
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,64}") {
        let _ = from_json(&s);
    }

    #[test]
    fn containment_is_reflexive(v in arb_value()) {
        prop_assert!(v.contains(&v) || matches!(v, Value::Array(_)));
        // Arrays: self-containment holds element-wise too.
        if let Value::Array(_) = v {
            prop_assert!(v.contains(&v));
        }
    }
}
