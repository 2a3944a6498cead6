//! `lint.toml` — the linter's declarative configuration.
//!
//! A deliberately tiny TOML subset parser (zero dependencies): bare
//! tables `[name]`, string values, and string arrays (single- or
//! multi-line). That is everything the config needs; anything else in
//! the file is a hard error so typos cannot silently disable a rule.

use std::collections::BTreeMap;

/// Parsed `lint.toml`.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Path prefixes never scanned (fixtures, build output).
    pub skip: Vec<String>,
    /// Path prefixes exempt from the no-panic rule (vendored shims,
    /// benchmark harness — not engine code).
    pub no_panic_exempt: Vec<String>,
    /// Path prefixes exempt from the failpoint-roster rule (the
    /// failpoint framework itself).
    pub failpoints_exempt: Vec<String>,
    /// Files where `Ordering::Relaxed` is allowed without a pragma
    /// (designated counter modules).
    pub relaxed_allowed: Vec<String>,
    /// Files whose loops must call `cancel::tick()` (executors).
    pub tick_files: Vec<String>,
}

impl Config {
    /// Parse `lint.toml` text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut sections: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
        let mut current: Option<String> = None;
        let mut pending_key: Option<(String, Vec<String>)> = None;

        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some((key, mut items)) = pending_key.take() {
                // Continuation of a multi-line array.
                let (more, done) = parse_array_items(&line)?;
                items.extend(more);
                if done {
                    insert_value(&mut sections, &current, &key, items, lineno)?;
                } else {
                    pending_key = Some((key, items));
                }
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                return Err(format!("lint.toml:{}: unknown array-of-tables [[{}]]", lineno + 1, name.trim()));
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                current = Some(name.trim().to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{}: expected `key = value`", lineno + 1));
            };
            let key = key.trim().to_string();
            let value = value.trim();
            if let Some(open) = value.strip_prefix('[') {
                let (items, done) = parse_array_items(open)?;
                if done {
                    insert_value(&mut sections, &current, &key, items, lineno)?;
                } else {
                    pending_key = Some((key, items));
                }
            } else {
                let s = parse_string(value)
                    .ok_or_else(|| format!("lint.toml:{}: expected a quoted string", lineno + 1))?;
                insert_value(&mut sections, &current, &key, vec![s], lineno)?;
            }
        }
        if pending_key.is_some() {
            return Err("lint.toml: unterminated array".to_string());
        }

        let get = |section: &str, key: &str| -> Vec<String> {
            sections.get(section).and_then(|s| s.get(key)).cloned().unwrap_or_default()
        };
        Ok(Config {
            skip: get("scan", "skip"),
            no_panic_exempt: get("no_panic", "exempt"),
            failpoints_exempt: get("failpoints", "exempt"),
            relaxed_allowed: get("relaxed", "allowed"),
            tick_files: get("executor_tick", "files"),
        })
    }
}

fn insert_value(
    sections: &mut BTreeMap<String, BTreeMap<String, Vec<String>>>,
    current: &Option<String>,
    key: &str,
    items: Vec<String>,
    lineno: usize,
) -> Result<(), String> {
    let section = current
        .clone()
        .ok_or_else(|| format!("lint.toml:{}: key `{key}` outside a [section]", lineno + 1))?;
    sections.entry(section).or_default().insert(key.to_string(), items);
    Ok(())
}

/// Parse items after an opening `[`; returns (items, closed?).
fn parse_array_items(rest: &str) -> Result<(Vec<String>, bool), String> {
    let mut items = Vec::new();
    let mut s = rest.trim();
    loop {
        s = s.trim_start_matches(',').trim();
        if s.is_empty() {
            return Ok((items, false));
        }
        if let Some(after) = s.strip_prefix(']') {
            if !after.trim().is_empty() {
                return Err(format!("lint.toml: trailing content after `]`: `{after}`"));
            }
            return Ok((items, true));
        }
        if !s.starts_with('"') {
            return Err(format!("lint.toml: array items must be quoted strings, got `{s}`"));
        }
        let end = s[1..]
            .find('"')
            .ok_or_else(|| format!("lint.toml: unterminated string in `{s}`"))?;
        items.push(s[1..1 + end].to_string());
        s = &s[end + 2..];
    }
}

fn parse_string(v: &str) -> Option<String> {
    let v = v.trim();
    let inner = v.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains('"') {
        return None;
    }
    Some(inner.to_string())
}

/// Strip a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::parse(
            r#"
# comment
[scan]
skip = ["target", "crates/lint/fixtures"]

[no_panic]
exempt = [
    "shims/",   # vendored
    "crates/bench/",
]

[relaxed]
allowed = ["crates/server/src/metrics.rs"]

[executor_tick]
files = ["crates/query/src/exec.rs"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.skip, vec!["target", "crates/lint/fixtures"]);
        assert_eq!(cfg.no_panic_exempt, vec!["shims/", "crates/bench/"]);
        assert_eq!(cfg.relaxed_allowed, vec!["crates/server/src/metrics.rs"]);
        assert_eq!(cfg.tick_files, vec!["crates/query/src/exec.rs"]);
    }

    #[test]
    fn rejects_unknown_shapes() {
        assert!(Config::parse("[scan]\nskip = 3\n").is_err());
        assert!(Config::parse("key = \"x\"\n").is_err());
        assert!(Config::parse("[[lock_order]]\nouter = \"a\"\ninner = \"b\"\n").is_err());
    }
}
