//! `mmdb-lint` — scan the workspace for invariant violations.
//!
//! ```text
//! cargo run --release -p mmdb-lint            # from the repo root
//! cargo run --release -p mmdb-lint -- --root /path/to/repo
//! cargo run --release -p mmdb-lint -- --format json
//! cargo run --release -p mmdb-lint -- --explain tick
//! ```
//!
//! Prints `file:line: rule: message` per violation and exits nonzero if
//! there is one.
//! Configuration lives in `<root>/lint.toml`; see DESIGN.md "Static
//! analysis" for the rule catalogue and the pragma grammar.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = PathBuf::from(p),
                    None => usage("--root needs a path"),
                }
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => json = true,
                    Some("text") => json = false,
                    _ => usage("--format needs `json` or `text`"),
                }
            }
            "--explain" => {
                i += 1;
                let Some(rule) = args.get(i) else { usage("--explain needs a rule name") };
                match mmdb_lint::rules::explain(rule) {
                    Some(text) => {
                        println!("{text}");
                        return;
                    }
                    None => usage(&format!(
                        "unknown rule '{rule}' (known: {})",
                        mmdb_lint::rules::RULE_NAMES.join(", ")
                    )),
                }
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
        i += 1;
    }

    let started = Instant::now();
    let diags = match mmdb_lint::scan_root(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("mmdb-lint: {e}");
            std::process::exit(2);
        }
    };
    let files = mmdb_lint::count_rs_files(&root).unwrap_or(0);
    let by_rule = count_by_rule(&diags);

    if json {
        println!("{}", render_json(files, &diags, &by_rule));
    } else {
        for d in &diags {
            println!("{d}");
        }
    }

    // Per-rule summary table, on stderr so it never pollutes the report.
    let elapsed = started.elapsed();
    if diags.is_empty() {
        eprintln!("mmdb-lint: {files} files clean in {elapsed:.2?}");
    } else {
        eprintln!("mmdb-lint: rule        errors");
        for (rule, n) in &by_rule {
            eprintln!("mmdb-lint: {rule:<12}{n:>6}");
        }
        eprintln!("mmdb-lint: {} error(s) across {files} files in {elapsed:.2?}", diags.len());
        std::process::exit(1);
    }
}

fn count_by_rule(diags: &[mmdb_lint::Diagnostic]) -> BTreeMap<&'static str, usize> {
    let mut by_rule = BTreeMap::new();
    for d in diags {
        *by_rule.entry(d.rule).or_default() += 1;
    }
    by_rule
}

/// Hand-rolled JSON (the workspace takes no dependencies): a stable
/// shape for CI to archive and summarize.
fn render_json(
    files: usize,
    diags: &[mmdb_lint::Diagnostic],
    by_rule: &BTreeMap<&'static str, usize>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"files\": {files},\n  \"violations\": ["));
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"msg\": {}}}",
            json_str(&d.path),
            d.line,
            json_str(d.rule),
            json_str(&d.msg),
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"summary\": {");
    for (i, (rule, n)) in by_rule.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {{\"errors\": {n}}}", json_str(rule)));
    }
    if !by_rule.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: mmdb-lint [--root PATH] [--format json|text] [--explain RULE]");
    std::process::exit(2);
}
