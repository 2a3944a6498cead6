//! A lightweight Rust lexer for invariant linting.
//!
//! Not a parser: a single character-level pass that classifies every
//! byte of a `.rs` file as code, comment, or literal, plus a second
//! pass that marks `#[cfg(test)]` / `#[test]` regions by brace
//! tracking. Rules then work on three synchronized views of each line:
//!
//! * `code`   — comments stripped, string literals intact (for rules
//!   that need literal contents, e.g. failpoint site names);
//! * `masked` — comments stripped *and* string/char contents blanked
//!   (for rules matching code tokens, so `".unwrap()"` inside a string
//!   never counts);
//! * `comment` — the comment text alone (for `// lint: allow(..)`
//!   pragmas).
//!
//! The lexer understands line and nested block comments, plain and raw
//! (byte) strings with arbitrary `#` fences, char and byte-char
//! literals, and tells lifetimes (`'a`) apart from char literals.

/// One source line in the three synchronized views.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code with comments stripped, string literals intact.
    pub code: String,
    /// Code with comments stripped and literal contents blanked.
    pub masked: String,
    /// Comment text on this line (line + block comments concatenated).
    pub comment: String,
    /// Inside a `#[cfg(test)]`- or `#[test]`-marked item's braces.
    pub in_test: bool,
}

/// A lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// The whole file's `masked` view joined with `\n`, plus a map from
    /// character offset to 0-based line index.
    pub fn masked_text(&self) -> (String, Vec<usize>) {
        Self::join(self.lines.iter().map(|l| l.masked.as_str()))
    }

    /// The whole file's `code` view joined with `\n`. The `code` and
    /// `masked` views are character-for-character aligned, so offsets
    /// from one index into the other.
    pub fn code_text(&self) -> (String, Vec<usize>) {
        Self::join(self.lines.iter().map(|l| l.code.as_str()))
    }

    fn join<'a>(lines: impl Iterator<Item = &'a str>) -> (String, Vec<usize>) {
        let mut text = String::new();
        let mut line_of = Vec::new();
        for (i, line) in lines.enumerate() {
            for _ in line.chars() {
                line_of.push(i);
            }
            line_of.push(i); // the newline
            text.push_str(line);
            text.push('\n');
        }
        (text, line_of)
    }
}

#[derive(PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    CharLit,
}

/// Lex `src` into synchronized per-line views.
pub fn analyze(path: &str, src: &str) -> SourceFile {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {
            lines.push(std::mem::take(&mut cur));
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let prev_ident = i > 0 && is_ident(chars[i - 1]);
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    cur.masked.push('"');
                    state = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw string r"..", r#".."#, byte string
                    // b"..", byte-raw br#".."#, or byte char b'x'.
                    let mut j = i;
                    if c == 'b' && (chars.get(j + 1) == Some(&'r') || chars.get(j + 1) == Some(&'"') || chars.get(j + 1) == Some(&'\'')) {
                        if chars.get(j + 1) == Some(&'\'') {
                            // byte char literal b'x'
                            cur.code.push('b');
                            cur.masked.push('b');
                            cur.code.push('\'');
                            cur.masked.push('\'');
                            state = State::CharLit;
                            i += 2;
                            continue;
                        }
                        if chars.get(j + 1) == Some(&'"') {
                            cur.code.push_str("b\"");
                            cur.masked.push_str("b\"");
                            state = State::Str;
                            i += 2;
                            continue;
                        }
                        j += 1; // br...
                    }
                    // Here chars[j] is 'r' (raw prefix candidate).
                    let mut hashes = 0usize;
                    let mut k = j + 1;
                    while chars.get(k) == Some(&'#') {
                        hashes += 1;
                        k += 1;
                    }
                    if chars.get(k) == Some(&'"') {
                        for &ch in &chars[i..=k] {
                            cur.code.push(ch);
                            cur.masked.push(ch);
                        }
                        state = State::RawStr(hashes);
                        i = k + 1;
                    } else {
                        // r#ident raw identifier or plain code.
                        cur.code.push(c);
                        cur.masked.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Lifetime or char literal?
                    let next = chars.get(i + 1);
                    let is_char = match next {
                        Some('\\') => true,
                        Some(&n) => chars.get(i + 2) == Some(&'\'') && n != '\'',
                        None => false,
                    };
                    cur.code.push('\'');
                    cur.masked.push('\'');
                    i += 1;
                    if is_char {
                        state = State::CharLit;
                    }
                } else {
                    cur.code.push(c);
                    cur.masked.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    if depth == 1 {
                        state = State::Code;
                        // Keep views aligned where a block comment sat
                        // mid-line, so token scans don't glue tokens.
                        cur.code.push(' ');
                        cur.masked.push(' ');
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    cur.code.push(c);
                    cur.masked.push(' ');
                    if let Some(&n) = chars.get(i + 1) {
                        if n != '\n' {
                            cur.code.push(n);
                            cur.masked.push(' ');
                            i += 1;
                        }
                    }
                    i += 1;
                } else if c == '"' {
                    cur.code.push('"');
                    cur.masked.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    cur.code.push(c);
                    cur.masked.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if chars.get(i + 1 + h) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        cur.code.push('"');
                        cur.masked.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                            cur.masked.push('#');
                        }
                        state = State::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                cur.code.push(c);
                cur.masked.push(' ');
                i += 1;
            }
            State::CharLit => {
                // Char contents are blanked in BOTH views: a `'"'`
                // literal must not open a string in the `code` view.
                if c == '\\' {
                    cur.code.push(' ');
                    cur.masked.push(' ');
                    if chars.get(i + 1).is_some() {
                        cur.code.push(' ');
                        cur.masked.push(' ');
                        i += 1;
                    }
                    i += 1;
                } else if c == '\'' {
                    cur.code.push('\'');
                    cur.masked.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    cur.masked.push(' ');
                    i += 1;
                }
            }
        }
    }
    flush_line!();

    mark_test_regions(&mut lines);
    SourceFile { path: path.to_string(), lines }
}

pub fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Mark lines covered by `#[cfg(test)]` / `#[test]` items.
///
/// Brace-tracks the masked view: an attribute whose content names
/// `test` arms the *next* `{ ... }` opened at the same depth (skipping
/// intervening attributes); a `;` at that depth first (e.g.
/// `#[cfg(test)] use foo;`) disarms it. Regions nest with modules.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i32 = 0;
    // Depths at which an armed test region's braces close.
    let mut test_close: Vec<i32> = Vec::new();
    let mut armed: Option<i32> = None;

    for line in lines.iter_mut() {
        let mut touched = !test_close.is_empty();
        let chars: Vec<char> = line.masked.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c == '#' && chars.get(i + 1) == Some(&'[') {
                // Read the attribute (brackets nest: #[cfg(any(a, b))]).
                let mut level = 0i32;
                let mut j = i + 1;
                let mut content = String::new();
                while j < chars.len() {
                    match chars[j] {
                        '[' => level += 1,
                        ']' => {
                            level -= 1;
                            if level == 0 {
                                break;
                            }
                        }
                        ch => content.push(ch),
                    }
                    j += 1;
                }
                if attr_names_test(&content) {
                    armed = Some(depth);
                }
                i = j + 1;
                continue;
            }
            match c {
                '{' => {
                    if armed == Some(depth) {
                        test_close.push(depth);
                        armed = None;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_close.last() == Some(&depth) {
                        test_close.pop();
                    }
                }
                ';' if armed == Some(depth) => {
                    armed = None;
                }
                _ => {}
            }
            touched |= !test_close.is_empty();
            i += 1;
        }
        line.in_test = touched;
    }
}

/// An attribute body (`cfg(test)`, `test`, `cfg(all(test, unix))`...)
/// that gates the following item on test builds.
fn attr_names_test(content: &str) -> bool {
    let t = content.trim();
    if t == "test" || t == "tokio::test" {
        return true;
    }
    if !t.starts_with("cfg") {
        return false;
    }
    // `test` as a standalone word inside the cfg predicate.
    let bytes: Vec<char> = t.chars().collect();
    let word: Vec<char> = "test".chars().collect();
    let mut i = 0;
    while i + word.len() <= bytes.len() {
        if bytes[i..i + word.len()] == word[..] {
            let before_ok = i == 0 || !is_ident(bytes[i - 1]);
            let after = bytes.get(i + word.len());
            let after_ok = after.is_none_or(|&c| !is_ident(c) && c != '-');
            if before_ok && after_ok {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Collect the string literals appearing in a `code` view line.
pub fn string_literals(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '"' {
            let mut lit = String::new();
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' && i + 1 < chars.len() {
                    lit.push(chars[i + 1]);
                    i += 2;
                } else {
                    lit.push(chars[i]);
                    i += 1;
                }
            }
            out.push(lit);
        }
        i += 1;
    }
    out
}

/// Does `haystack` contain `needle` starting at a non-identifier
/// boundary? (So `panic!` does not match `dont_panic!`.)
pub fn contains_token(haystack: &str, needle: &str) -> bool {
    find_token(haystack, needle, 0).is_some()
}

/// Find `needle` with identifier-boundary checks on whichever of its
/// ends are identifier characters (so `panic!` does not match
/// `dont_panic!` and `let` does not match `letter`, while `.lock()`
/// matches right after a receiver). Search starts at char index `from`.
pub fn find_token(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    let h: Vec<char> = haystack.chars().collect();
    let n: Vec<char> = needle.chars().collect();
    if n.is_empty() || h.len() < n.len() {
        return None;
    }
    let head_is_ident = is_ident(n[0]);
    let tail_is_ident = is_ident(n[n.len() - 1]);
    let mut i = from;
    while i + n.len() <= h.len() {
        if h[i..i + n.len()] == n[..] {
            let before_ok = !head_is_ident || i == 0 || !is_ident(h[i - 1]);
            let after_ok =
                !tail_is_ident || h.get(i + n.len()).is_none_or(|&c| !is_ident(c));
            if before_ok && after_ok {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_separated() {
        let content = "a // not a comment";
        let f = analyze("t.rs", &format!("let x = \"{content}\"; // real\n"));
        assert_eq!(f.lines[0].code, format!("let x = \"{content}\"; "));
        let blanks = " ".repeat(content.len());
        assert_eq!(f.lines[0].masked, format!("let x = \"{blanks}\"; "));
        assert_eq!(f.lines[0].comment, " real");
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let f = analyze("t.rs", "fn f<'a>(s: &'a str) { let r = r#\"un\"wrap()\"#; }\n");
        assert!(f.lines[0].masked.contains("'a"));
        assert!(!f.lines[0].masked.contains("wrap"));
        assert!(f.lines[0].code.contains("un\"wrap()"));
    }

    #[test]
    fn char_literals_are_masked() {
        let f = analyze("t.rs", "let c = '\"'; let d = b'x'; let s = \"ok\";\n");
        assert_eq!(string_literals(&f.lines[0].code), vec!["ok".to_string()]);
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = analyze("t.rs", "a /* one /* two */ still */ b\n/* open\nstill comment\n*/ code\n");
        let words: Vec<&str> = f.lines[0].code.split_whitespace().collect();
        assert_eq!(words, vec!["a", "b"]);
        assert_eq!(f.lines[2].code, "");
        assert!(f.lines[3].code.contains("code"));
    }

    #[test]
    fn cfg_test_regions_cover_modules_and_fns() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() { x.unwrap(); }\n}\nfn live2() {}\n#[test]\nfn t() { y.unwrap(); }\nfn live3() {}\n";
        let f = analyze("t.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
        assert!(f.lines[7].in_test);
        assert!(!f.lines[8].in_test);
    }

    #[test]
    fn cfg_test_on_braceless_item_disarms() {
        let f = analyze("t.rs", "#[cfg(test)]\nuse foo::bar;\nfn live() { x.unwrap(); }\n");
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn token_boundaries() {
        assert!(contains_token("panic!(\"x\")", "panic!"));
        assert!(!contains_token("dont_panic!(\"x\")", "panic!"));
        assert!(contains_token("core::panic!()", "panic!"));
    }

    #[test]
    fn multiline_string_stays_masked() {
        let f = analyze("t.rs", "let s = \"line one\nunwrap() inside\";\nx.unwrap();\n");
        assert!(!f.lines[1].masked.contains("unwrap"));
        assert!(f.lines[2].masked.contains(".unwrap()"));
    }
}
