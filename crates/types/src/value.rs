//! The unified [`Value`] type — one representation for all data models.
//!
//! Design notes:
//!
//! * Objects preserve **insertion order** (like ArangoDB and MongoDB do for
//!   documents) but compare and hash by sorted key so that semantically
//!   equal documents are equal regardless of construction order.
//! * Numbers keep the int/float distinction (`1` round-trips as an integer)
//!   but `1 == 1.0` and both sort identically, which is what JSON-oriented
//!   engines do in practice.
//! * There is a **total order** across *all* values (the "type bracket"
//!   order used by AsterixDB/ArangoDB: null < bool < number < string <
//!   bytes < array < object) so any value can be an index key or sort key.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::key::Key;

/// A JSON-style number that remembers whether it was an integer.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float. [`Value::float`] turns NaN into null; a NaN
    /// that arrives another way (decoded bytes, this variant built by
    /// hand) is one value ordered above every other number.
    Float(f64),
}

impl Number {
    /// The value as `f64`, exact for all floats and for integers up to 2^53.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `i64` if it is an integer or an integral float.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::Int(i) => Some(i),
            Number::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(f as i64),
            Number::Float(_) => None,
        }
    }

    /// True when the number was stored as an integer.
    pub fn is_int(&self) -> bool {
        matches!(self, Number::Int(_))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Number {}

impl PartialOrd for Number {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Number {
    /// Numbers order by their exact mathematical value. The f64 image
    /// decides almost every comparison; when two images tie (possible only
    /// for integral values near or above 2^53) the exact integer values
    /// break the tie, so e.g. `Int(i64::MAX - 1) < Int(i64::MAX)` even
    /// though both round to the same f64. This keeps the order total and
    /// transitive across mixed int/float operands. Every NaN is the same
    /// value and sorts above all other numbers.
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.as_f64(), other.as_f64());
        match a.partial_cmp(&b) {
            Some(Ordering::Equal) => self.exact_tiebreak().cmp(&other.exact_tiebreak()),
            Some(o) => o,
            None => a.is_nan().cmp(&b.is_nan()),
        }
    }
}

impl Number {
    /// Exact integer image used to break f64-image ties; see [`Ord`] impl.
    /// Ties only occur between integral values that fit comfortably in
    /// i128, so the saturating branch is unreachable in a tie.
    pub(crate) fn exact_tiebreak(&self) -> i128 {
        match *self {
            Number::Int(i) => i as i128,
            Number::Float(f) if f.fract() == 0.0 && f.abs() < 1.0e30 => f as i128,
            Number::Float(_) => 0,
        }
    }
}

impl Hash for Number {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash must agree with Eq: 1 == 1.0, so integral values (from either
        // variant) hash through the same exact-integer image used by `cmp`.
        let f = self.as_f64();
        if f.fract() == 0.0 && f.abs() < 1.0e30 {
            self.exact_tiebreak().hash(state)
        } else if f.is_nan() {
            // All NaN bit patterns are equal under `cmp`.
            f64::NAN.to_bits().hash(state)
        } else {
            f.to_bits().hash(state)
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::Int(i) => write!(f, "{i}"),
            Number::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1.0e15 {
                    // Keep float-ness visible in text form; below 2^53 the
                    // digits are exact.
                    write!(f, "{x:.1}")
                } else if x.fract() == 0.0 {
                    // Large integral float: exponent form keeps it parsing
                    // back as a float with the identical bit pattern
                    // (shortest-round-trip printing), instead of a bare
                    // digit string that would re-parse as a *different* i64.
                    write!(f, "{x:e}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

/// The unified multi-model value.
///
/// Tuples are arrays, documents are objects, graph vertices/edges are
/// objects with reserved `_key` / `_from` / `_to` fields, key/value payloads
/// are arbitrary values, RDF terms are strings, XML text nodes are strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// JSON null / SQL NULL / missing.
    Null,
    /// Boolean.
    Bool(bool),
    /// Numeric (integer or float).
    Number(Number),
    /// UTF-8 string, in a [`Key`]: 22 bytes or less inline, so a short
    /// string costs no allocation of its own.
    String(Key),
    /// Raw bytes (BLOBs; not expressible in JSON — serialized as base64-ish hex).
    Bytes(Vec<u8>),
    /// Ordered list of values.
    Array(Vec<Value>),
    /// Document / object. Insertion-ordered; equality is key-set based.
    Object(ObjectMap),
}

// Field names and string values are 24-byte `Key`s, the size of the
// `String` they share a slot with; a value must not grow past 32 bytes.
const _: () = assert!(std::mem::size_of::<Value>() == 32);

/// Insertion-ordered string-keyed map used for [`Value::Object`].
///
/// Lookup is linear for small objects (the overwhelmingly common case in
/// document workloads) — profiling typical UniBench documents (≤ 20 keys)
/// shows linear scans beat hashing at this size. Field names are
/// [`Key`]s, so a short name costs no allocation of its own.
#[derive(Debug, Clone, Default)]
pub struct ObjectMap {
    entries: Vec<(Key, Value)>,
}

impl ObjectMap {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty object with room for `n` fields.
    pub fn with_capacity(n: usize) -> Self {
        ObjectMap { entries: Vec::with_capacity(n) }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Get a field by name.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| **k == *key).map(|(_, v)| v)
    }

    /// Mutable access to a field by name.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| **k == *key)
            .map(|(_, v)| v)
    }

    /// Insert or overwrite a field, returning the previous value if any.
    pub fn insert(&mut self, key: impl Into<Key>, value: Value) -> Option<Value> {
        let key = key.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Remove a field, returning its value if it existed.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let pos = self.entries.iter().position(|(k, _)| **k == *key)?;
        Some(self.entries.remove(pos).1)
    }

    /// True when the field exists.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| **k == *key)
    }

    /// Iterate fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate field names in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Iterate values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// A canonical, key-sorted view used for comparison and hashing.
    fn sorted(&self) -> BTreeMap<&str, &Value> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v)).collect()
    }
}

impl PartialEq for ObjectMap {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.sorted() == other.sorted()
    }
}
impl Eq for ObjectMap {}

impl PartialOrd for ObjectMap {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ObjectMap {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sorted().cmp(&other.sorted())
    }
}
impl Hash for ObjectMap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for (k, v) in self.sorted() {
            k.hash(state);
            v.hash(state);
        }
    }
}

impl<K: Into<Key>> FromIterator<(K, Value)> for ObjectMap {
    fn from_iter<T: IntoIterator<Item = (K, Value)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut m = ObjectMap::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl IntoIterator for ObjectMap {
    type Item = (Key, Value);
    type IntoIter = std::vec::IntoIter<(Key, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl Value {
    /// Integer helper.
    pub fn int(i: i64) -> Value {
        Value::Number(Number::Int(i))
    }

    /// Float helper. NaN collapses to null — NaN has no place in a total
    /// order and JSON cannot express it anyway.
    pub fn float(f: f64) -> Value {
        if f.is_nan() {
            Value::Null
        } else {
            Value::Number(Number::Float(f))
        }
    }

    /// String helper; allocates only past 22 bytes (see [`Key`]).
    pub fn str(s: impl Into<Key>) -> Value {
        Value::String(s.into())
    }

    /// Object builder from pairs.
    pub fn object(pairs: impl IntoIterator<Item = (impl Into<Key>, Value)>) -> Value {
        Value::Object(pairs.into_iter().collect())
    }

    /// Array builder.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// Name of the value's type bracket, used in error messages and the
    /// `TYPENAME()` builtin.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Bytes(_) => "bytes",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Rank of the type bracket in the cross-type total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Number(_) => 2,
            Value::String(_) => 3,
            Value::Bytes(_) => 4,
            Value::Array(_) => 5,
            Value::Object(_) => 6,
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness used by FILTER: null/false/0/""/[]/{} are falsy, as in
    /// AQL. Everything else is truthy.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Number(n) => n.as_f64() != 0.0,
            Value::String(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::Array(a) => !a.is_empty(),
            Value::Object(o) => !o.is_empty(),
        }
    }

    /// Borrow as bool, or a type error.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::Type(format!("expected bool, got {}", other.type_name()))),
        }
    }

    /// Borrow as i64, accepting integral floats.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Number(n) => n
                .as_i64()
                .ok_or_else(|| Error::Type(format!("number {n} is not an integer"))),
            other => Err(Error::Type(format!("expected integer, got {}", other.type_name()))),
        }
    }

    /// Borrow as f64.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Number(n) => Ok(n.as_f64()),
            other => Err(Error::Type(format!("expected number, got {}", other.type_name()))),
        }
    }

    /// Borrow as &str.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(Error::Type(format!("expected string, got {}", other.type_name()))),
        }
    }

    /// Borrow as array slice.
    pub fn as_array(&self) -> Result<&[Value]> {
        match self {
            Value::Array(a) => Ok(a),
            other => Err(Error::Type(format!("expected array, got {}", other.type_name()))),
        }
    }

    /// Borrow as object.
    pub fn as_object(&self) -> Result<&ObjectMap> {
        match self {
            Value::Object(o) => Ok(o),
            other => Err(Error::Type(format!("expected object, got {}", other.type_name()))),
        }
    }

    /// Mutable object access.
    pub fn as_object_mut(&mut self) -> Result<&mut ObjectMap> {
        match self {
            Value::Object(o) => Ok(o),
            other => Err(Error::Type(format!("expected object, got {}", other.type_name()))),
        }
    }

    /// Field access that treats missing fields and non-objects as `Null`,
    /// the navigation semantics of every document query language surveyed
    /// by the tutorial (AQL, N1QL, JSON path SQL extensions).
    pub fn get_field(&self, name: &str) -> &Value {
        match self {
            Value::Object(o) => o.get(name).unwrap_or(&Value::Null),
            _ => &Value::Null,
        }
    }

    /// Index access with the same forgiving semantics; negative indexes
    /// count from the end (like AQL and JSONPath).
    pub fn get_index(&self, idx: i64) -> &Value {
        match self {
            Value::Array(a) => array_position(a.len(), idx).map_or(&Value::Null, |i| &a[i]),
            _ => &Value::Null,
        }
    }

    /// [`get_field`](Self::get_field) on a value the caller owns: the
    /// field is moved out instead of borrowed.
    pub fn into_field(self, name: &str) -> Value {
        match self {
            Value::Object(mut o) => o.remove(name).unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }

    /// [`get_index`](Self::get_index) on a value the caller owns.
    pub fn into_index(self, idx: i64) -> Value {
        match self {
            Value::Array(mut a) => {
                array_position(a.len(), idx).map_or(Value::Null, |i| a.swap_remove(i))
            }
            _ => Value::Null,
        }
    }

    /// Structural containment, PostgreSQL's `@>` operator on jsonb:
    /// `self @> needle` — every scalar in `needle` appears in `self` at the
    /// same (relative) place; arrays match any element; objects match by key.
    pub fn contains(&self, needle: &Value) -> bool {
        match (self, needle) {
            (Value::Object(hay), Value::Object(pat)) => pat
                .iter()
                .all(|(k, pv)| hay.get(k).is_some_and(|hv| hv.contains(pv))),
            (Value::Array(hay), Value::Array(pat)) => pat
                .iter()
                .all(|pv| hay.iter().any(|hv| hv.contains(pv))),
            // A scalar pattern matches inside an array (jsonb semantics).
            (Value::Array(hay), scalar) => hay.iter().any(|hv| hv == scalar),
            (a, b) => a == b,
        }
    }

    /// Recursively count nodes (objects, arrays, scalars) — used by storage
    /// accounting and tests.
    pub fn node_count(&self) -> usize {
        match self {
            Value::Array(a) => 1 + a.iter().map(Value::node_count).sum::<usize>(),
            Value::Object(o) => 1 + o.values().map(Value::node_count).sum::<usize>(),
            _ => 1,
        }
    }
}

/// Where `idx` lands in an array of `len` elements, counting from the end
/// when negative; `None` when it is out of range.
fn array_position(len: usize, idx: i64) -> Option<usize> {
    let i = if idx < 0 { len as i64 + idx } else { idx };
    usize::try_from(i).ok().filter(|&i| i < len)
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Number(a), Value::Number(b)) => a.cmp(b),
            (Value::String(a), Value::String(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => a.cmp(b),
            (Value::Object(a), Value::Object(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    /// Displays as compact JSON (bytes as hex string).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::json::to_json(self))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s.into())
    }
}
impl<V: Into<Value>> From<Vec<V>> for Value {
    fn from(v: Vec<V>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_preserves_insertion_order_but_compares_sorted() {
        let a = Value::object([("b", Value::int(2)), ("a", Value::int(1))]);
        let b = Value::object([("a", Value::int(1)), ("b", Value::int(2))]);
        assert_eq!(a, b);
        let keys: Vec<_> = a.as_object().unwrap().keys().collect();
        assert_eq!(keys, vec!["b", "a"]);
    }

    #[test]
    fn int_and_float_compare_equal() {
        assert_eq!(Value::int(1), Value::float(1.0));
        assert!(Value::int(1) < Value::float(1.5));
        assert!(Value::float(2.5) < Value::int(3));
    }

    #[test]
    fn cross_type_bracket_order() {
        let ordered = [Value::Null,
            Value::Bool(true),
            Value::int(-5),
            Value::str("a"),
            Value::Bytes(vec![1]),
            Value::array([Value::int(1)]),
            Value::object([("k", Value::int(1))])];
        for w in ordered.windows(2) {
            assert!(w[0] < w[1], "{} should sort before {}", w[0], w[1]);
        }
    }

    #[test]
    fn huge_ints_stay_ordered_despite_shared_f64_image() {
        // (i64::MAX - 1) and i64::MAX round to the same f64 — the exact
        // tiebreak must keep them distinct and correctly ordered.
        let a = Value::int(i64::MAX - 1);
        let b = Value::int(i64::MAX);
        assert_eq!((i64::MAX - 1) as f64, i64::MAX as f64);
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn nan_collapses_to_null() {
        assert!(Value::float(f64::NAN).is_null());
    }

    #[test]
    fn truthiness_matches_aql() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::int(0).is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(!Value::array([]).is_truthy());
        assert!(Value::int(-1).is_truthy());
        assert!(Value::str("x").is_truthy());
    }

    #[test]
    fn forgiving_navigation() {
        let doc = Value::object([("orders", Value::array([Value::int(7)]))]);
        assert_eq!(doc.get_field("orders").get_index(0), &Value::int(7));
        assert_eq!(doc.get_field("orders").get_index(-1), &Value::int(7));
        assert_eq!(doc.get_field("missing").get_index(3), &Value::Null);
        assert_eq!(Value::int(2).get_field("x"), &Value::Null);
    }

    #[test]
    fn containment_matches_jsonb_at_gt() {
        let doc = Value::object([
            ("tags", Value::array([Value::str("a"), Value::str("b")])),
            ("meta", Value::object([("x", Value::int(1)), ("y", Value::int(2))])),
        ]);
        assert!(doc.contains(&Value::object([("tags", Value::array([Value::str("b")]))])));
        assert!(doc.contains(&Value::object([("meta", Value::object([("y", Value::int(2))]))])));
        assert!(!doc.contains(&Value::object([("tags", Value::array([Value::str("z")]))])));
        assert!(!doc.contains(&Value::object([("meta", Value::object([("y", Value::int(3))]))])));
    }

    #[test]
    fn object_insert_overwrites_in_place() {
        let mut o = ObjectMap::new();
        o.insert("k", Value::int(1));
        let prev = o.insert("k", Value::int(2));
        assert_eq!(prev, Some(Value::int(1)));
        assert_eq!(o.len(), 1);
        assert_eq!(o.get("k"), Some(&Value::int(2)));
    }

    #[test]
    fn object_remove() {
        let mut o = ObjectMap::new();
        o.insert("a", Value::int(1));
        o.insert("b", Value::int(2));
        assert_eq!(o.remove("a"), Some(Value::int(1)));
        assert_eq!(o.remove("a"), None);
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn node_count_counts_recursively() {
        let v = Value::object([("a", Value::array([Value::int(1), Value::int(2)]))]);
        // object + array + 2 scalars
        assert_eq!(v.node_count(), 4);
    }

    #[test]
    fn where_a_field_name_is_stored_never_shows() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        let long = "a_field_name_longer_than_the_inline_limit";
        let short = "zip";
        assert!(!Key::new(long).is_inline() && Key::new(short).is_inline());
        // Built from owned `String`s in one order, decoded in another.
        let built = Value::object([(long.to_string(), Value::int(1)), (short.to_string(), Value::int(2))]);
        let decoded = crate::codec::value_from_bytes(&crate::codec::value_to_bytes(&Value::object([
            (short, Value::int(2)),
            (long, Value::int(1)),
        ])))
        .unwrap();
        assert_eq!(built, decoded);
        assert_eq!(h(&built), h(&decoded));
        assert_eq!(built.cmp(&decoded), Ordering::Equal);
        // The long name sorts first as text, whatever its storage.
        let only_long = Value::object([(long, Value::int(9))]);
        let only_short = Value::object([(short, Value::int(0))]);
        assert!(only_long < only_short);
        assert_ne!(h(&only_long), h(&only_short));
        assert_eq!(decoded.get_field(long), &Value::int(1));
    }

    #[test]
    fn where_a_string_value_is_stored_never_shows() {
        use crate::codec::{decode_projected, encode_value, value_to_bytes};
        use crate::{from_json, to_json, Path, Projection};
        use std::collections::HashMap;
        let ascii = |len: usize| "abcdefghijklmnopqrstuvwxyz0123456789".repeat(2)[..len].to_string();
        // 0/21/22/23/64 ASCII bytes; 21 ASCII + 'é' ends at 23 bytes, past
        // the inline limit, and 20 + 'é' at 22, inside it.
        let mut texts: Vec<String> = [0, 21, 22, 23, 64].into_iter().map(ascii).collect();
        texts.extend([format!("{}é", ascii(21)), format!("{}é", ascii(20))]);
        let only_s = Projection::of([Path::parse("s").unwrap()]);
        let mut seen: HashMap<Value, usize> = HashMap::new();
        for (i, text) in texts.iter().enumerate() {
            let (borrowed, owned) = (Value::str(text.as_str()), Value::from(text.clone()));
            let Value::String(key) = &borrowed else { unreachable!() };
            assert_eq!(key.is_inline(), text.len() <= 22, "{text:?}: {} bytes", text.len());
            assert_eq!(borrowed, owned, "{text:?}");
            assert_eq!(borrowed.cmp(&owned), Ordering::Equal, "{text:?}");
            assert_eq!(seen.insert(borrowed.clone(), i), None, "{text:?} is new");
            assert_eq!(seen.get(&owned), Some(&i), "{text:?} as the other build");

            let mut bytes = Vec::new();
            encode_value(&owned, &mut bytes);
            let mut before = vec![0x05, text.len() as u8];
            before.extend_from_slice(text.as_bytes());
            assert_eq!(bytes, before, "{text:?} encodes as a heap string did");
            assert_eq!(decode_projected(&bytes, &Projection::ALL).unwrap(), borrowed);
            let doc = value_to_bytes(&Value::object([("s", owned.clone()), ("n", Value::int(1))]));
            let projected = decode_projected(&doc, &only_s).unwrap();
            assert_eq!(projected, Value::object([("s", borrowed.clone())]));

            let json = to_json(&borrowed);
            assert_eq!(json, format!("\"{text}\""));
            assert_eq!(from_json(&json).unwrap(), owned);
        }
        // Values sort as their texts do, whichever side of the limit.
        let mut values: Vec<Value> = texts.iter().map(|t| Value::str(t.as_str())).collect();
        values.sort();
        texts.sort();
        assert_eq!(values, texts.into_iter().map(Value::from).collect::<Vec<_>>());
    }

    #[test]
    fn hash_agrees_with_eq_for_mixed_numbers() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::int(42)), h(&Value::float(42.0)));
    }

    #[test]
    fn number_eq_ord_and_hash_agree_on_edge_values() {
        use std::collections::hash_map::DefaultHasher;
        fn h(n: &Number) -> u64 {
            let mut s = DefaultHasher::new();
            n.hash(&mut s);
            s.finish()
        }
        let two53 = 1i64 << 53;
        let xs = [
            Number::Float(f64::NAN),
            Number::Float(-f64::NAN),
            Number::Float(0.0),
            Number::Float(-0.0),
            Number::Float(0.5),
            Number::Float(0.7),
            Number::Int(1),
            Number::Float(1.0),
            Number::Int(two53 + 1),
            Number::Float(two53 as f64),
        ];
        for a in &xs {
            assert_eq!(a.cmp(a), Ordering::Equal, "{a:?} is not equal to itself");
            for b in &xs {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(h(a), h(b), "{a:?} == {b:?} but their hashes differ");
                }
                for c in &xs {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?} is not transitive");
                    }
                    if a == b && b == c {
                        assert!(a == c, "{a:?} == {b:?} == {c:?} is not transitive");
                    }
                }
            }
        }
        assert_ne!(Number::Float(f64::NAN), Number::Float(0.5));
        assert_eq!(Number::Float(f64::NAN), Number::Float(-f64::NAN));
        assert!(Number::Float(f64::NAN) > Number::Float(f64::INFINITY));
        assert_ne!(Number::Int(two53 + 1), Number::Float(two53 as f64));
    }
}
