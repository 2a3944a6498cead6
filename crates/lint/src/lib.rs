//! # mmdb-lint — the workspace invariant linter
//!
//! Clippy sees one crate at a time and knows nothing about mmdb's
//! hand-maintained cross-cutting invariants: failpoint rosters that
//! must mirror every `fail_point!` literal, executor loops that must
//! stay cancellable, relaxed atomics that are only sound in counter
//! modules, and a no-panic discipline on durability paths. `mmdb-lint`
//! walks every `.rs` file in the workspace with its own lightweight
//! lexer (string-, comment-, and `#[cfg(test)]`-aware); every rule is
//! lexical. See [`rules`] for the rule catalogue and `lint.toml` for the
//! per-rule configuration. Lock order and "the connection reader never
//! waits" are not checked here: debug builds check them where locks are
//! taken and where threads wait (`mmdb_types::lock_rank`, DESIGN.md
//! "Lock hierarchy").
//!
//! Suppression is pragma-only and always carries a reason:
//!
//! ```text
//! let n = known_good.len().checked_sub(1).unwrap(); // lint: allow(panic, len >= 1 checked above)
//! ```
//!
//! The binary (`cargo run -p mmdb-lint`) exits nonzero on any
//! unsuppressed violation; `scripts/ci.sh` runs it after clippy.

pub mod config;
pub mod lex;
pub mod rules;

pub use config::Config;
pub use rules::Diagnostic;

use std::path::{Path, PathBuf};

/// Lint in-memory sources (used by the fixture tests): `(path, text)`
/// pairs with workspace-relative paths.
pub fn scan_sources(sources: &[(&str, &str)], cfg: &Config) -> Vec<Diagnostic> {
    let files: Vec<lex::SourceFile> =
        sources.iter().map(|(p, s)| lex::analyze(p, s)).collect();
    rules::check_files(&files, cfg)
}

/// Lint a workspace on disk: loads `<root>/lint.toml`, walks every
/// `.rs` file under the root (minus skips), runs every rule.
pub fn scan_root(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let cfg_path = root.join("lint.toml");
    let cfg_text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&cfg_text)?;

    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, root, &cfg, &mut paths)?;
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = relative_path(root, path);
        files.push(lex::analyze(&rel, &text));
    }
    Ok(rules::check_files(&files, &cfg))
}

/// The number of `.rs` files `scan_root` would lint (for reporting).
pub fn count_rs_files(root: &Path) -> Result<usize, String> {
    let cfg_text = std::fs::read_to_string(root.join("lint.toml"))
        .map_err(|e| format!("cannot read lint.toml: {e}"))?;
    let cfg = Config::parse(&cfg_text)?;
    let mut paths = Vec::new();
    collect_rs_files(root, root, &cfg, &mut paths)?;
    Ok(paths.len())
}

fn relative_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read dir entry: {e}"))?;
        let path = entry.path();
        let rel = relative_path(root, &path);
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if cfg.skip.iter().any(|s| rel == *s || rel.starts_with(&format!("{s}/"))) {
            continue;
        }
        let kind = entry
            .file_type()
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?;
        if kind.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
