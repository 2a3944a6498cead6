//! Hand-written JSON reader and writer for [`Value`].
//!
//! The allowed dependency set contains no JSON crate, and the parser is in
//! any case part of the "open data model" substrate the tutorial calls for:
//! MarkLogic-style engines treat JSON text as just one *serialization* of
//! the unified tree model. This is a strict RFC 8259 parser with precise
//! error positions, plus a compact and a pretty writer.

use crate::error::{Error, Result};
use crate::value::{Number, Value};

/// Parse a JSON text into a [`Value`].
///
/// Rejects trailing garbage, unescaped control characters, and literal
/// NaN/Infinity (none of which are JSON).
pub fn from_json(text: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Serialize to compact JSON.
pub fn to_json(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Serialize to pretty-printed JSON with two-space indentation.
pub fn to_json_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        // Compute 1-based line/column for the current byte offset.
        let mut line = 1usize;
        let mut col = 1usize;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Error::Parse(format!("json: {msg} at line {line} column {col}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let v = match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::from(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }?;
        self.depth -= 1;
        Ok(v)
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect_byte(b'{')?;
        let mut obj = crate::value::ObjectMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(obj));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.parse_value()?;
            obj.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(obj)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect_byte(b'[')?;
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(arr));
        }
        loop {
            self.skip_ws();
            arr.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(arr)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{0008}'),
                    Some(b'f') => s.push('\u{000C}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Handle UTF-16 surrogate pairs.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("lone high surrogate"));
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            s.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?,
                            );
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.err("lone low surrogate"));
                        } else {
                            s.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(c) if c < 0x80 => s.push(c as char),
                Some(first) => {
                    // Multi-byte UTF-8: determine length from the lead byte
                    // and validate via str::from_utf8.
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8 lead byte")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 sequence"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0, or nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        #[expect(clippy::expect_used, reason = "the slice spans only the ASCII digits/sign/dot scanned above")]
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
            // Integer overflow: fall through to float like other engines do.
        }
        let f: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if f.is_finite() {
            Ok(Value::Number(Number::Float(f)))
        } else {
            Err(self.err("number out of range"))
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_string(out, s),
        Value::Bytes(b) => {
            // JSON has no binary type; encode as a tagged hex string so the
            // representation is unambiguous and round-trippable by convention.
            out.push_str("\"\\u0000hex:");
            for byte in b {
                out.push_str(&format!("{byte:02x}"));
            }
            out.push('"');
        }
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(obj) => {
            if obj.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in obj.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * level {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(text: &str) -> Value {
        from_json(text).unwrap()
    }

    #[test]
    fn parses_the_paper_order_document() {
        let doc = rt(r#"{"Order_no":"0c6df508",
            "Orderlines":[
              {"Product_no":"2724f","Product_Name":"Toy","Price":66},
              {"Product_no":"3424g","Product_Name":"Book","Price":40}]
        }"#);
        assert_eq!(doc.get_field("Order_no"), &Value::str("0c6df508"));
        assert_eq!(
            doc.get_field("Orderlines").get_index(1).get_field("Price"),
            &Value::int(40)
        );
    }

    #[test]
    fn scalars() {
        assert_eq!(rt("null"), Value::Null);
        assert_eq!(rt("true"), Value::Bool(true));
        assert_eq!(rt("false"), Value::Bool(false));
        assert_eq!(rt("42"), Value::int(42));
        assert_eq!(rt("-0"), Value::int(0));
        assert_eq!(rt("3.5"), Value::float(3.5));
        assert_eq!(rt("1e3"), Value::float(1000.0));
        assert_eq!(rt("\"hi\""), Value::str("hi"));
    }

    #[test]
    fn integer_preserved_through_roundtrip() {
        let v = rt("{\"a\":1,\"b\":1.0}");
        let text = to_json(&v);
        assert_eq!(text, "{\"a\":1,\"b\":1.0}");
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(rt(r#""a\nb""#), Value::str("a\nb"));
        assert_eq!(rt(r#""A""#), Value::str("A"));
        assert_eq!(rt(r#""😀""#), Value::str("😀"));
        assert_eq!(rt("\"héllo\""), Value::str("héllo"));
    }

    #[test]
    fn error_positions() {
        let e = from_json("{\n  \"a\": tru\n}").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        assert!(from_json("[1,2").is_err());
        assert!(from_json("[1,]").is_err());
        assert!(from_json("{\"a\" 1}").is_err());
        assert!(from_json("01").is_err());
        assert!(from_json("1 2").is_err());
        assert!(from_json("\"\u{0001}\"").is_err());
        assert!(from_json("nan").is_err());
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(300) + &"]".repeat(300);
        assert!(from_json(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(from_json(&ok).is_ok());
    }

    #[test]
    fn surrogate_errors() {
        assert!(from_json(r#""\uD800""#).is_err());
        assert!(from_json(r#""\uDC00""#).is_err());
        assert!(from_json(r#""\uD800A""#).is_err());
    }

    #[test]
    fn big_integer_falls_back_to_float() {
        let v = rt("123456789012345678901234567890");
        assert!(matches!(v, Value::Number(Number::Float(_))));
    }

    #[test]
    fn pretty_print_shape() {
        let v = rt(r#"{"a":[1,2]}"#);
        let p = to_json_pretty(&v);
        assert_eq!(p, "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn duplicate_keys_keep_last() {
        // RFC 8259 leaves this implementation-defined; we follow serde_json
        // and keep the last occurrence.
        let v = rt(r#"{"k":1,"k":2}"#);
        assert_eq!(v.get_field("k"), &Value::int(2));
        assert_eq!(v.as_object().unwrap().len(), 1);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let text = r#"{"name":"Oliver","scores":[88,67,73],"isActive":true,"affiliation":null}"#;
        let v = rt(text);
        assert_eq!(rt(&to_json(&v)), v);
        assert_eq!(rt(&to_json_pretty(&v)), v);
    }
}
