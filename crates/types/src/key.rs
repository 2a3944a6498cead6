//! [`Key`]: the engine's inline string — the name of an object field and
//! the text of a string value ([`Value::String`](crate::Value::String)).
//!
//! Field names are short — `_key`, `customer_id`, `orderlines` — and so
//! are most string values — a customer id, a vertex handle, a gender, a
//! date. A decoded document carries one name per field and often a string
//! per field, so a heap `String` each would be most of what reading a
//! document, or keeping it in memory, allocates. A `Key` is 24 bytes, the
//! size of a `String`: text of up to 22 bytes lives inline in it, longer
//! text in a `Box<str>`. It derefs to `&str`, and compares, orders and
//! hashes exactly as its text does, so where a string is stored (inline
//! or on the heap) is never observable.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Longest text stored inline.
const INLINE: usize = 22;

/// A field name or a string value's text; see the [module docs](self).
#[derive(Clone)]
pub struct Key(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the text.
    Inline { len: u8, bytes: [u8; INLINE] },
    /// Text longer than [`INLINE`] bytes.
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    /// A key holding a copy of `name`; allocates only past 22 bytes.
    pub fn new(name: &str) -> Key {
        if name.len() > INLINE {
            return Key(Repr::Heap(name.into()));
        }
        let mut bytes = [0u8; INLINE];
        bytes[..name.len()].copy_from_slice(name.as_bytes());
        Key(Repr::Inline { len: name.len() as u8, bytes })
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                // SAFETY: `Key::new` is the only place a `Repr::Inline` is
                // made, and it copies all of a `&str` of at most `INLINE`
                // bytes into `bytes[..len]`: those bytes are a whole
                // `str`, so they are valid UTF-8. Nothing mutates them
                // afterwards.
                unsafe { std::str::from_utf8_unchecked(&bytes[..*len as usize]) }
            }
            Repr::Heap(name) => name,
        }
    }

    /// True when the text lives inline.
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Deref for Key {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for Key {}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Key {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Key {
    fn from(name: &str) -> Key {
        Key::new(name)
    }
}

impl From<&String> for Key {
    fn from(name: &String) -> Key {
        Key::new(name)
    }
}

impl From<String> for Key {
    /// Long text keeps the string's buffer.
    fn from(name: String) -> Key {
        if name.len() > INLINE {
            Key(Repr::Heap(name.into_boxed_str()))
        } else {
            Key::new(&name)
        }
    }
}

impl From<Key> for String {
    /// Long text gives up its buffer: a decoded string moves out of a
    /// value without a copy.
    fn from(key: Key) -> String {
        match key.0 {
            Repr::Heap(text) => text.into_string(),
            inline => Key(inline).as_str().to_owned(),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn names_round_trip_on_both_sides_of_the_inline_limit() {
        for len in [0, 21, 22, 23, 64] {
            let name: String = "abcdefghijklmnopqrstuvwxyz0123456789".chars().cycle().take(len).collect();
            for key in [Key::new(&name), Key::from(name.clone())] {
                assert_eq!(key.as_str(), name, "{len} bytes");
                assert_eq!(key.is_inline(), len <= INLINE, "{len} bytes");
                assert_eq!(hash_of(&key), hash_of(name.as_str()));
                assert_eq!(String::from(key), name, "{len} bytes");
            }
        }
    }

    #[test]
    fn a_long_key_gives_its_buffer_to_the_string_it_becomes() {
        let key = Key::new(&"n".repeat(40));
        let text = key.as_str().as_ptr();
        let string = String::from(key);
        assert_eq!(string.as_ptr(), text);
    }

    #[test]
    fn a_multibyte_character_straddling_the_limit_goes_to_the_heap_whole() {
        // 21 ASCII bytes and a 2-byte 'é' end at exactly 23 bytes; 20 and
        // a 3-byte '€' end at 23 too; 20 and 'é' end at 22, inline.
        for (prefix, tail, inline) in [(21, "é", false), (20, "€", false), (20, "é", true)] {
            let name = format!("{}{tail}", "x".repeat(prefix));
            let key = Key::new(&name);
            assert_eq!(key.is_inline(), inline, "{name:?} is {} bytes", name.len());
            assert_eq!(&*key, name);
            assert!(key.ends_with(tail));
        }
    }

    #[test]
    fn order_and_equality_follow_the_text() {
        let short = Key::new("zz");
        let long = Key::new(&"a".repeat(40));
        assert!(long < short, "a heap name that sorts first sorts first");
        assert_eq!(Key::new("same"), Key::from("same".to_string()));
        assert_ne!(Key::new("same"), Key::new("sane"));
    }
}
