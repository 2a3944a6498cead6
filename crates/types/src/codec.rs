//! Binary codecs for [`Value`].
//!
//! Two encodings with different jobs:
//!
//! * [`encode_value`] / [`decode_value`] — a compact tagged encoding used by
//!   the storage engine to put any value in a page, WAL record or SSTable.
//!   [`decode_projected`] is the one decoder: it builds the parts of a
//!   value a [`Projection`] keeps and validates the rest;
//!   [`value_from_bytes`] is it with the whole value.
//! * [`encode_key`] — an **order-preserving** ("memcomparable") encoding:
//!   `encode_key(a) < encode_key(b)` (bytewise) iff `a < b` under the
//!   cross-model total order. B+-trees and SSTables compare raw bytes, so
//!   any value can serve as an index key without a custom comparator.

use crate::error::{Error, Result};
use crate::projection::{Node, Projection};
use crate::value::{Number, ObjectMap, Value};

// ---- tagged storage encoding ------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STRING: u8 = 0x05;
const TAG_BYTES: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// Encode a value into `out` using the compact storage encoding.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Number(Number::Int(i)) => {
            out.push(TAG_INT);
            put_varint(out, zigzag(*i));
        }
        Value::Number(Number::Float(f)) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        Value::String(s) => encode_str(s, out),
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            put_varint(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::Array(items) => {
            encode_array_header(items.len(), out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(obj) => {
            out.push(TAG_OBJECT);
            put_varint(out, obj.len() as u64);
            for (k, val) in obj.iter() {
                put_varint(out, k.len() as u64);
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

/// Encode the head of an array of `len` items into `out`: followed by
/// each item's [`encode_value`], the bytes of the whole array's, without
/// building the array.
pub fn encode_array_header(len: usize, out: &mut Vec<u8>) {
    out.push(TAG_ARRAY);
    put_varint(out, len as u64);
}

/// Encode a string value's text into `out`: the bytes of
/// `encode_value(&Value::str(s), out)`, without building the value.
pub fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.push(TAG_STRING);
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Encode a value to a fresh buffer.
pub fn value_to_bytes(v: &Value) -> Vec<u8> {
    let mut b = Vec::new();
    encode_value(v, &mut b);
    b
}

/// Split `len` bytes off the front of `buf`, advancing it.
fn take<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8]> {
    if buf.len() < len {
        return Err(corrupt());
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

/// Split a length-prefixed UTF-8 string off the front of `buf`, in place.
fn take_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    let len = get_varint(buf)? as usize;
    std::str::from_utf8(take(buf, len)?).map_err(|_| corrupt())
}

/// Decode one value from the front of `buf`, advancing it.
pub fn decode_value(buf: &mut &[u8]) -> Result<Value> {
    decode_node(buf, &Node::All)
}

/// Decode a value from a complete buffer, rejecting trailing bytes.
pub fn value_from_bytes(buf: &[u8]) -> Result<Value> {
    decode_projected(buf, &Projection::ALL)
}

/// Decode the parts of a complete buffer's value that `p` keeps
/// ([`Projection::apply`] of the whole value, without building the
/// rest). A skipped value is still walked and validated — tags, lengths,
/// UTF-8 of strings and names — and trailing bytes are rejected, so a
/// projected decode fails exactly when a whole one does.
pub fn decode_projected(mut buf: &[u8], p: &Projection) -> Result<Value> {
    let v = decode_node(&mut buf, &p.root)?;
    if !buf.is_empty() {
        return Err(Error::Storage("trailing bytes after value".into()));
    }
    Ok(v)
}

/// Decode a complete buffer that holds an array, item by item: an item
/// `keep` marks is decoded and handed to `item` with its position, any
/// other is walked and validated without being built, as
/// [`decode_projected`] skips a field. It fails where a whole decode
/// fails, and on a value that is not an array.
pub fn decode_items(mut buf: &[u8], keep: impl Fn(usize) -> bool, mut item: impl FnMut(usize, Value)) -> Result<()> {
    let Some((&TAG_ARRAY, rest)) = buf.split_first() else {
        return Err(Error::Storage("value is not an array".into()));
    };
    buf = rest;
    for i in 0..get_varint(&mut buf)? as usize {
        if keep(i) {
            item(i, decode_node(&mut buf, &Node::All)?);
        } else {
            skip_value(&mut buf)?;
        }
    }
    if !buf.is_empty() {
        return Err(Error::Storage("trailing bytes after value".into()));
    }
    Ok(())
}

fn corrupt() -> Error {
    Error::Storage("corrupt value encoding".into())
}

/// Decode one value from the front of `buf`, keeping what `node` keeps.
fn decode_node(buf: &mut &[u8], node: &Node) -> Result<Value> {
    let (&tag, rest) = buf.split_first().ok_or_else(corrupt)?;
    *buf = rest;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_INT => Value::Number(Number::Int(unzigzag(get_varint(buf)?))),
        TAG_FLOAT => {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(take(buf, 8)?);
            Value::Number(Number::Float(f64::from_bits(u64::from_be_bytes(raw))))
        }
        TAG_STRING => Value::str(take_str(buf)?),
        TAG_BYTES => {
            let len = get_varint(buf)? as usize;
            Value::Bytes(take(buf, len)?.to_vec())
        }
        // An array's elements get the node itself: field access maps
        // over arrays.
        TAG_ARRAY => {
            let n = get_varint(buf)? as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_node(buf, node)?);
            }
            Value::Array(items)
        }
        TAG_OBJECT => {
            let n = get_varint(buf)? as usize;
            let kept = match node {
                Node::All => n,
                Node::Fields(fields) => n.min(fields.len()),
            };
            let mut obj = ObjectMap::with_capacity(kept.min(1024));
            for _ in 0..n {
                // The name is read in place: a short one lives inline in
                // its `Key` and costs no allocation.
                let k = take_str(buf)?;
                match node.field(k) {
                    Some(child) => {
                        obj.insert(k, decode_node(buf, child)?);
                    }
                    None => skip_value(buf)?,
                }
            }
            Value::Object(obj)
        }
        _ => return Err(corrupt()),
    })
}

/// Walk past one value, validating it as [`decode_node`] would, without
/// building anything.
fn skip_value(buf: &mut &[u8]) -> Result<()> {
    let (&tag, rest) = buf.split_first().ok_or_else(corrupt)?;
    *buf = rest;
    match tag {
        TAG_NULL | TAG_FALSE | TAG_TRUE => {}
        TAG_INT => {
            get_varint(buf)?;
        }
        TAG_FLOAT => {
            take(buf, 8)?;
        }
        TAG_STRING => {
            take_str(buf)?;
        }
        TAG_BYTES => {
            let len = get_varint(buf)? as usize;
            take(buf, len)?;
        }
        TAG_ARRAY => {
            for _ in 0..get_varint(buf)? {
                skip_value(buf)?;
            }
        }
        TAG_OBJECT => {
            for _ in 0..get_varint(buf)? {
                take_str(buf)?;
                skip_value(buf)?;
            }
        }
        _ => return Err(corrupt()),
    }
    Ok(())
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = buf.split_first().filter(|_| shift < 64) else {
            return Err(Error::Storage("corrupt varint".into()));
        };
        *buf = rest;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---- order-preserving key encoding ------------------------------------------

// Type-bracket prefixes chosen so bytewise order matches Value::cmp's
// null < bool < number < string < bytes < array < object.
const K_NULL: u8 = 0x10;
const K_BOOL: u8 = 0x20;
const K_NUM: u8 = 0x30;
const K_STR: u8 = 0x40;
const K_BYTES: u8 = 0x50;
const K_ARRAY: u8 = 0x60;
const K_OBJECT: u8 = 0x70;
// Terminator/escape for variable-length segments inside composite keys.
const SEG_END: u8 = 0x00;
const SEG_ESC: u8 = 0x01;

/// Order-preserving encoding of a value.
///
/// Bytewise comparison of two encodings agrees with [`Value`]'s `Ord`.
/// Numbers are encoded via the classic IEEE-754 total-order bit trick on
/// the `f64` image, which matches `Value`'s numeric order (ints compare by
/// f64 image too, exact up to 2^53 — beyond that the f64 image *is* the
/// comparison `Value::cmp` performs for mixed types, and pure-int
/// comparisons in that range are handled with a tiebreak suffix).
pub fn encode_key(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(K_NULL),
        Value::Bool(b) => {
            out.push(K_BOOL);
            out.push(*b as u8);
        }
        Value::Number(n) => {
            out.push(K_NUM);
            let f = n.as_f64();
            let bits = f.to_bits();
            // Flip so that negative floats order before positive ones.
            let ordered = if bits & (1 << 63) != 0 { !bits } else { bits | (1 << 63) };
            out.extend_from_slice(&ordered.to_be_bytes());
            // Exact-integer tiebreak, mirroring Number::cmp, so distinct
            // large ints with equal f64 images stay distinct and ordered,
            // while Int(1) and Float(1.0) (equal values) share one key.
            let tie = number_tiebreak(n);
            out.extend_from_slice(&((tie as u128) ^ (1 << 127)).to_be_bytes());
        }
        Value::String(s) => {
            out.push(K_STR);
            escape_segment(s.as_bytes(), out);
        }
        Value::Bytes(b) => {
            out.push(K_BYTES);
            escape_segment(b, out);
        }
        Value::Array(items) => {
            out.push(K_ARRAY);
            for item in items {
                out.push(SEG_ESC); // element marker > SEG_END ⇒ prefix orders first
                encode_key(item, out);
            }
            out.push(SEG_END);
        }
        Value::Object(obj) => {
            out.push(K_OBJECT);
            let mut fields: Vec<(&str, &Value)> = obj.iter().collect();
            fields.sort_by_key(|(k, _)| *k);
            for (k, val) in fields {
                out.push(SEG_ESC);
                escape_segment(k.as_bytes(), out);
                encode_key(val, out);
            }
            out.push(SEG_END);
        }
    }
}

/// Encode a composite key (e.g. a multi-column index key). Each component
/// is terminated so that composite prefixes order correctly.
pub fn encode_composite_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 12);
    for v in values {
        encode_key(v, &mut out);
        out.push(SEG_END);
    }
    out
}

/// Convenience: order-preserving encoding of a single value.
pub fn key_of(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    encode_key(v, &mut out);
    out
}

fn number_tiebreak(n: &Number) -> i128 {
    n.exact_tiebreak()
}

fn escape_segment(bytes: &[u8], out: &mut Vec<u8>) {
    // 0x00 and 0x01 are escaped as 0x01 0xFF / 0x01 0xFE so the terminator
    // 0x00 can never appear inside a segment; escape keeps ordering because
    // 0x01 0xFE/0xFF sorts exactly where the original bytes did relative to
    // other content ≥ 0x02.
    for &b in bytes {
        match b {
            0x00 => out.extend_from_slice(&[SEG_ESC, 0xFE]),
            0x01 => out.extend_from_slice(&[SEG_ESC, 0xFF]),
            other => out.push(other),
        }
    }
    out.push(SEG_END);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::from_json;

    fn roundtrip(v: &Value) {
        let b = value_to_bytes(v);
        let back = value_from_bytes(&b).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn storage_roundtrips() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-1",
            "9223372036854775807",
            "-9223372036854775808",
            "3.25",
            "\"héllo 😀\"",
            "[]",
            "[1,[2,[3]]]",
            "{}",
            r#"{"order_no":"0c6df508","orderlines":[{"price":66},{"price":40}],"flag":true}"#,
        ] {
            roundtrip(&from_json(text).unwrap());
        }
        roundtrip(&Value::Bytes(vec![0, 1, 2, 255]));
    }

    #[test]
    fn objects_with_short_and_long_names_round_trip() {
        let long = "x".repeat(23);
        let nested = Value::object([
            ("", Value::Null),
            ("k", Value::int(1)),
            ("exactly_22_bytes_long_", Value::str("inline")),
            (long.as_str(), Value::object([("é".repeat(12), Value::array([Value::int(2)]))])),
        ]);
        roundtrip(&nested);
        let back = value_from_bytes(&value_to_bytes(&nested)).unwrap();
        let names: Vec<&str> = back.as_object().unwrap().keys().collect();
        assert_eq!(names, ["", "k", "exactly_22_bytes_long_", long.as_str()], "insertion order survives");
        // A name whose bytes are not UTF-8 is corruption, not a panic.
        let mut bad = value_to_bytes(&Value::object([("ab", Value::Null)]));
        let at = bad.iter().position(|&b| b == b'a').unwrap();
        bad[at] = 0xFF;
        assert!(value_from_bytes(&bad).is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        assert!(value_from_bytes(&[]).is_err());
        assert!(value_from_bytes(&[0xFF]).is_err());
        assert!(value_from_bytes(&[TAG_STRING, 5, b'a']).is_err());
        let mut good = value_to_bytes(&Value::int(3));
        good.push(0);
        assert!(value_from_bytes(&good).is_err());
    }

    #[test]
    fn decode_items_builds_the_kept_items_and_validates_the_rest() {
        let row = value_to_bytes(&Value::array([Value::int(1), Value::str("skipped"), Value::Null]));
        let mut got = Vec::new();
        decode_items(&row, |i| i != 1, |i, v| got.push((i, v))).unwrap();
        assert_eq!(got, [(0, Value::int(1)), (2, Value::Null)]);
        // A skipped item that is corrupt fails the decode, as it fails a
        // whole one; so do trailing bytes and a value that is no array.
        let bad_utf8 = [TAG_ARRAY, 2, TAG_INT, 2, TAG_STRING, 1, 0xFF];
        let mut trailing = row.clone();
        trailing.push(TAG_NULL);
        for bytes in [&bad_utf8[..], &trailing, &value_to_bytes(&Value::int(1))] {
            assert!(decode_items(bytes, |i| i == 0, |_, _| {}).is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn a_projected_decode_fails_where_a_whole_one_does() {
        let keep = Projection::of([crate::Path::parse("k").unwrap()]);
        // `{"k": 1, "s": <skipped>}`, encoded by hand.
        let object = |skipped: &[u8]| {
            let mut b = vec![TAG_OBJECT, 2, 1, b'k', TAG_INT, 2, 1, b's'];
            b.extend_from_slice(skipped);
            b
        };
        let good = object(&[TAG_ARRAY, 2, TAG_TRUE, TAG_STRING, 1, b'x']);
        assert_eq!(decode_projected(&good, &keep).unwrap(), Value::object([("k", Value::int(1))]));
        let mut trailing = good.clone();
        trailing.push(TAG_NULL);
        for (what, bytes) in [
            ("invalid UTF-8 in a skipped string", object(&[TAG_STRING, 2, b'a', 0xFF])),
            ("invalid UTF-8 in a skipped name", object(&[TAG_OBJECT, 1, 1, 0xFF, TAG_NULL])),
            ("a truncated skipped array", object(&[TAG_ARRAY, 3, TAG_TRUE, TAG_NULL])),
            ("an unknown tag inside a skipped value", object(&[TAG_ARRAY, 1, 0x09])),
            ("trailing bytes", trailing),
        ] {
            assert!(value_from_bytes(&bytes).is_err(), "{what}: whole");
            assert!(decode_projected(&bytes, &keep).is_err(), "{what}: projected");
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for i in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    fn assert_key_order(a: &Value, b: &Value) {
        let (ka, kb) = (key_of(a), key_of(b));
        assert_eq!(
            ka.cmp(&kb),
            a.cmp(b),
            "key order mismatch for {a} vs {b}"
        );
    }

    #[test]
    fn key_encoding_preserves_order() {
        let vals: Vec<Value> = [
            "null", "false", "true", "-100", "-1.5", "0", "0.5", "1", "1.0", "2", "100",
            "\"\"", "\"a\"", "\"ab\"", "\"b\"", "[]", "[1]", "[1,2]", "[2]",
            "{}", r#"{"a":1}"#, r#"{"a":2}"#, r#"{"b":1}"#,
        ]
        .iter()
        .map(|t| from_json(t).unwrap())
        .chain([Value::Bytes(vec![]), Value::Bytes(vec![0]), Value::Bytes(vec![0, 0]), Value::Bytes(vec![1])])
        .collect();
        for a in &vals {
            for b in &vals {
                assert_key_order(a, b);
            }
        }
    }

    #[test]
    fn key_encoding_handles_embedded_zero_bytes() {
        let a = Value::Bytes(vec![0x00]);
        let b = Value::Bytes(vec![0x00, 0x00]);
        let c = Value::Bytes(vec![0x01]);
        assert_key_order(&a, &b);
        assert_key_order(&b, &c);
        let s1 = Value::str("a\u{0000}b");
        let s2 = Value::str("a\u{0000}c");
        assert_key_order(&s1, &s2);
    }

    #[test]
    fn array_prefix_orders_before_extension() {
        let short = from_json("[1]").unwrap();
        let long = from_json("[1,0]").unwrap();
        assert!(short < long);
        assert_key_order(&short, &long);
    }

    #[test]
    fn large_int_keys_are_distinct_and_ordered() {
        let a = Value::int(i64::MAX - 1);
        let b = Value::int(i64::MAX);
        assert_ne!(key_of(&a), key_of(&b));
        assert!(key_of(&a) < key_of(&b));
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let k1 = encode_composite_key(&[Value::str("a"), Value::int(2)]);
        let k2 = encode_composite_key(&[Value::str("a"), Value::int(10)]);
        let k3 = encode_composite_key(&[Value::str("b"), Value::int(0)]);
        assert!(k1 < k2);
        assert!(k2 < k3);
        // Prefix of a composite orders before its extensions.
        let p = encode_composite_key(&[Value::str("a")]);
        assert!(p < k1);
    }
}
