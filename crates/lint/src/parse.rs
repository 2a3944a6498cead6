//! Item-level parsing on top of the lexer: every `fn` in the scanned
//! set becomes a [`FnItem`] with the stream of events the `blocking`
//! rule walks — the calls it names and the locks it acquires, each
//! tagged with its line.
//!
//! This is deliberately not a Rust parser. It reuses the lexer's
//! masked per-line view (strings blanked, comments stripped) and a
//! brace/paren scanner, which is enough to name an acquisition's
//! receiver and find call sites by `ident(` / `.ident(` shape. What it
//! cannot see (dyn dispatch, macro-generated functions, closures run by
//! a callee) is listed in KNOWN_ISSUES.md.

use crate::lex::{is_ident, SourceFile};

/// One parsed function item.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name (associated functions collide across impl
    /// blocks; resolution treats same-named fns as one candidate set).
    pub name: String,
    /// Index of the containing file in the scanned slice.
    pub file: usize,
    /// 0-based first and last body lines (inclusive).
    pub first_line: usize,
    pub last_line: usize,
    /// Ordered event stream (line, then column order within a line).
    pub events: Vec<Event>,
}

/// One analysis-relevant event inside a function body.
#[derive(Debug)]
pub enum Event {
    /// A lock acquisition: `recv.lock()` / `.read()` / `.write()`.
    Acquire {
        /// Last path segment of the receiver (`versions` for
        /// `self.store.versions.write()`).
        lock: String,
        /// 0-based line.
        line: usize,
    },
    /// A call to a named function or method that may resolve into the
    /// workspace call graph.
    Call { name: String, line: usize },
}

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Keywords and constructors that look like calls but are not.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "else", "move", "in", "as",
    "ref", "mut", "pub", "use", "where", "impl", "unsafe", "dyn", "box", "Some", "None", "Ok",
    "Err", "Box", "Vec", "String", "assert", "debug_assert",
];

/// Parse every production `fn` in the scanned files. Test-path files
/// and `#[cfg(test)]` regions are skipped so the call graph only
/// contains production code.
pub fn parse_items(files: &[SourceFile]) -> Vec<FnItem> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if crate::rules::is_test_path(&file.path) {
            continue;
        }
        let (text, line_of) = file.masked_text();
        let chars: Vec<char> = text.chars().collect();
        for (name, kw, open, close) in find_fn_items(&chars) {
            let sig_line = line_of[kw];
            let first_line = line_of[open];
            let last_line = line_of[close.min(chars.len() - 1)];
            if file.lines[sig_line].in_test || file.lines[first_line].in_test {
                continue;
            }
            let events = scan_body(file, first_line, last_line);
            out.push(FnItem { name, file: fi, first_line, last_line, events });
        }
    }
    out
}

/// Every `fn` item in the masked text: (name, keyword pos, body open
/// brace pos, body close brace pos). Bodyless signatures (traits,
/// externs) are skipped.
fn find_fn_items(chars: &[char]) -> Vec<(String, usize, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < chars.len() {
        if chars[i] == 'f'
            && chars[i + 1] == 'n'
            && (i == 0 || !is_ident(chars[i - 1]))
            && chars.get(i + 2).is_some_and(|&c| !is_ident(c))
        {
            // The name: first identifier after `fn`.
            let mut n = i + 2;
            while n < chars.len() && chars[n].is_whitespace() {
                n += 1;
            }
            let name_start = n;
            while n < chars.len() && is_ident(chars[n]) {
                n += 1;
            }
            let name: String = chars[name_start..n].iter().collect();
            // The body `{` at bracket depth 0, or `;` (no body).
            let mut depth = 0i32;
            let mut k = n;
            let mut open = None;
            while k < chars.len() {
                match chars[k] {
                    '(' | '[' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '{' if depth == 0 => {
                        open = Some(k);
                        break;
                    }
                    ';' if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if let (Some(open), false) = (open, name.is_empty()) {
                let mut level = 0i32;
                let mut close = open;
                for (off, &c) in chars[open..].iter().enumerate() {
                    match c {
                        '{' => level += 1,
                        '}' => {
                            level -= 1;
                            if level == 0 {
                                close = open + off;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                out.push((name, i, open, close));
                // Continue inside the body so nested fns are found too.
                i = open + 1;
                continue;
            }
            i = k.max(i + 2);
            continue;
        }
        i += 1;
    }
    out
}

/// Scan one body's lines into an event stream.
fn scan_body(file: &SourceFile, first_line: usize, last_line: usize) -> Vec<Event> {
    let mut events = Vec::new();
    for idx in first_line..=last_line {
        let line = &file.lines[idx];
        if line.in_test {
            continue;
        }
        let lchars: Vec<char> = line.masked.chars().collect();
        let mut k = 0usize;
        while k < lchars.len() {
            let c = lchars[k];
            if !is_ident(c) || (k > 0 && is_ident(lchars[k - 1])) || c.is_ascii_digit() {
                k += 1;
                continue;
            }
            let start = k;
            while k < lchars.len() && is_ident(lchars[k]) {
                k += 1;
            }
            let ident: String = lchars[start..k].iter().collect();
            if lchars.get(k) != Some(&'(') {
                continue;
            }
            // `recv.lock()` / `.read()` / `.write()` with an empty
            // argument list is an acquisition, not a call.
            if start > 0
                && lchars[start - 1] == '.'
                && ACQUIRE_METHODS.contains(&ident.as_str())
                && lchars.get(k + 1) == Some(&')')
            {
                // An acquisition on an unnameable receiver (a call
                // chain's result) cannot be matched against
                // `[blocking] contended`.
                if let Some(lock) = receiver_name(&lchars, start - 1) {
                    events.push(Event::Acquire { lock, line: idx });
                }
                k += 2;
                continue;
            }
            if NOT_CALLS.contains(&ident.as_str()) {
                continue;
            }
            // `fn name(` is a declaration, not a call.
            let prev_word_is_fn = {
                let mut p = start;
                while p > 0 && lchars[p - 1].is_whitespace() {
                    p -= 1;
                }
                p >= 2 && lchars[p - 2] == 'f' && lchars[p - 1] == 'n'
                    && (p == 2 || !is_ident(lchars[p - 3]))
            };
            if prev_word_is_fn {
                continue;
            }
            events.push(Event::Call { name: ident, line: idx });
        }
    }
    events
}

/// The identifier immediately left of the acquisition's dot: the lock's
/// field name (`versions` for `self.store.versions.write()`).
fn receiver_name(chars: &[char], dot_at: usize) -> Option<String> {
    let mut start = dot_at;
    while start > 0 && is_ident(chars[start - 1]) {
        start -= 1;
    }
    (start < dot_at).then(|| chars[start..dot_at].iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::analyze;

    fn items(src: &str) -> Vec<FnItem> {
        let file = analyze("crates/x/src/lib.rs", src);
        parse_items(&[file])
    }

    #[test]
    fn fn_names_and_bodies_are_extracted() {
        let its = items("fn alpha() { work(); }\nimpl T { pub fn beta(&self) -> u32 { 1 } }\n");
        let names: Vec<&str> = its.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
    }

    #[test]
    fn acquires_and_calls_stream_in_order() {
        let its = items(
            "fn f(&self) {\n    let g = self.store.a.lock();\n    self.helper();\n    drop(g);\n}\n",
        );
        assert_eq!(its.len(), 1);
        let seen: Vec<String> = its[0]
            .events
            .iter()
            .map(|e| match e {
                Event::Acquire { lock, line } => format!("acquire {lock}@{line}"),
                Event::Call { name, line } => format!("call {name}@{line}"),
            })
            .collect();
        assert_eq!(seen, ["acquire a@1", "call helper@2", "call drop@3"]);
    }

    #[test]
    fn acquisitions_with_arguments_are_calls_not_acquires() {
        let its = items("fn f(&self) { self.io.read(buf); }\n");
        assert!(matches!(&its[0].events[0], Event::Call { name, .. } if name == "read"));
    }
}
