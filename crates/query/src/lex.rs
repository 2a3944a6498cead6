//! The MMQL lexer.

use mmdb_types::{Error, Result};

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (keywords are case-insensitive; the parser
    /// decides which identifiers are keywords in context).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (single or double quoted).
    Str(String),
    /// Punctuation / operator.
    Punct(&'static str),
}

impl Token {
    /// True when this is an identifier spelling keyword `kw` in any case.
    /// Identifiers are ASCII, so this compares without allocating.
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// A token with its source offset (for error messages).
#[derive(Debug, Clone)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset in the source.
    pub offset: usize,
}

const PUNCTS: &[&str] = &[
    "..", "==", "!=", "<=", ">=", "&&", "||", "[*]", "(", ")", "[", "]", "{", "}",
    ",", ".", ":", "=", "<", ">", "+", "-", "*", "/", "%", "!", "?",
];

/// Tokenize MMQL source text.
pub fn tokenize(text: &str) -> Result<Vec<Spanned>> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments: // to end of line.
        if text[i..].starts_with("//") {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Strings.
        if c == b'"' || c == b'\'' {
            let quote = c;
            let start = i;
            i += 1;
            let mut s = String::new();
            // Walks whole characters, so `i` stays on a character boundary.
            loop {
                let Some(ch) = text[i..].chars().next() else {
                    return Err(Error::Parse(format!(
                        "mmql: unterminated string starting at {start}"
                    )));
                };
                i += ch.len_utf8();
                if ch == char::from(quote) {
                    break;
                }
                if ch == '\\' {
                    // An escape takes the whole character after the backslash.
                    let Some(escaped) = text[i..].chars().next() else {
                        return Err(Error::Parse("mmql: dangling escape".into()));
                    };
                    i += escaped.len_utf8();
                    s.push(match escaped {
                        'n' => '\n',
                        't' => '\t',
                        other => other,
                    });
                    continue;
                }
                s.push(ch);
            }
            out.push(Spanned { token: Token::Str(s), offset: start });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let mut is_float = false;
            // A '.' starts a fraction only if followed by a digit ("1..2"
            // must lex as 1 .. 2).
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                is_float = true;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                is_float = true;
                i += 1;
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            let t = &text[start..i];
            let token = if is_float {
                Token::Float(t.parse().map_err(|_| Error::Parse(format!("mmql: bad number '{t}'")))?)
            } else {
                Token::Int(t.parse().map_err(|_| Error::Parse(format!("mmql: bad number '{t}'")))?)
            };
            out.push(Spanned { token, offset: start });
            continue;
        }
        // Identifiers.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push(Spanned {
                token: Token::Ident(text[start..i].to_string()),
                offset: start,
            });
            continue;
        }
        // Punctuation (longest match first).
        let mut matched = false;
        for p in PUNCTS {
            if text[i..].starts_with(p) {
                out.push(Spanned { token: Token::Punct(p), offset: i });
                i += p.len();
                matched = true;
                break;
            }
        }
        if !matched {
            return Err(Error::Parse(format!(
                "mmql: unexpected character '{}' at {i}",
                c as char
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn keywords_numbers_strings() {
        assert_eq!(
            toks("FOR c IN customers"),
            vec![
                Token::Ident("FOR".into()),
                Token::Ident("c".into()),
                Token::Ident("IN".into()),
                Token::Ident("customers".into())
            ]
        );
        assert_eq!(toks("42 3.5 1e3"), vec![Token::Int(42), Token::Float(3.5), Token::Float(1000.0)]);
        assert_eq!(toks(r#""dq" 'sq' "a\"b""#), vec![
            Token::Str("dq".into()),
            Token::Str("sq".into()),
            Token::Str("a\"b".into()),
        ]);
    }

    #[test]
    fn range_vs_float() {
        assert_eq!(toks("1..2"), vec![Token::Int(1), Token::Punct(".."), Token::Int(2)]);
        assert_eq!(toks("1.5"), vec![Token::Float(1.5)]);
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            toks("a == b != c <= d >= e && f || g"),
            vec![
                Token::Ident("a".into()),
                Token::Punct("=="),
                Token::Ident("b".into()),
                Token::Punct("!="),
                Token::Ident("c".into()),
                Token::Punct("<="),
                Token::Ident("d".into()),
                Token::Punct(">="),
                Token::Ident("e".into()),
                Token::Punct("&&"),
                Token::Ident("f".into()),
                Token::Punct("||"),
                Token::Ident("g".into()),
            ]
        );
        assert_eq!(toks("x[*].y"), vec![
            Token::Ident("x".into()),
            Token::Punct("[*]"),
            Token::Punct("."),
            Token::Ident("y".into()),
        ]);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(toks("a // rest is gone\n b"), vec![Token::Ident("a".into()), Token::Ident("b".into())]);
    }

    #[test]
    fn errors() {
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("@").is_err());
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(toks("\"héllo 😀\""), vec![Token::Str("héllo 😀".into())]);
    }

    #[test]
    fn an_escape_takes_the_whole_multibyte_character() {
        let ret = || Token::Ident("RETURN".into());
        assert_eq!(toks(r#"RETURN "\é""#), vec![ret(), Token::Str("é".into())]);
        assert_eq!(toks(r#"RETURN "a\€b""#), vec![ret(), Token::Str("a€b".into())]);
        assert_eq!(toks(r#"'\😀\'\\'"#), vec![Token::Str("😀'\\".into())]);
        assert!(tokenize(r#""\"#).is_err(), "a dangling escape is an error");
    }

    #[test]
    fn keywords_match_in_any_case() {
        let ident = |s: &str| Token::Ident(s.into());
        assert!(ident("return").is_keyword("RETURN"));
        assert!(ident("ReTuRn").is_keyword("RETURN"));
        assert!(!ident("returns").is_keyword("RETURN"));
        assert!(!Token::Str("RETURN".into()).is_keyword("RETURN"));
    }
}
