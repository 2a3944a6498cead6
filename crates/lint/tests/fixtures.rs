//! Fixture-corpus tests: every rule has at least one passing, one
//! failing, and (where suppression applies) one pragma-suppressed
//! fixture under `crates/lint/fixtures/`. The fixtures are excluded
//! from the workspace scan by `lint.toml` (`[scan] skip`); here each
//! one is linted in isolation under a synthetic workspace-relative
//! path so crate attribution and per-rule path config behave exactly
//! as they do on the real tree.

use mmdb_lint::{scan_sources, Config, Diagnostic};

/// The config the fixtures are written against (mirrors the shape of
/// the real `lint.toml`, with fixture-sized contents).
fn cfg() -> Config {
    Config::parse(
        r#"
[no_panic]
exempt = ["shims/"]

[relaxed]
allowed = ["crates/engine/src/metrics.rs"]

[executor_tick]
files = ["crates/engine/src/exec.rs"]
"#,
    )
    .expect("fixture config parses")
}

/// Lint one fixture under the given synthetic path.
fn lint(path: &str, text: &str) -> Vec<Diagnostic> {
    scan_sources(&[(path, text)], &cfg())
}

fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---- panic -----------------------------------------------------------------

#[test]
fn panic_pass() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/panic/pass.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn panic_fail() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/panic/fail.rs"));
    assert_eq!(rules(&d), ["panic", "panic", "panic"], "{d:?}");
}

#[test]
fn panic_suppressed() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/panic/suppressed.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn panic_ignores_test_paths_and_exempt_prefixes() {
    let text = include_str!("../fixtures/panic/fail.rs");
    assert!(lint("crates/engine/tests/it.rs", text).is_empty());
    assert!(lint("shims/parking_lot/src/lib.rs", text).is_empty());
}

// ---- failpoint -------------------------------------------------------------

#[test]
fn failpoint_pass() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/failpoint/pass.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn failpoint_fail_unrostered() {
    let d = lint(
        "crates/engine/src/lib.rs",
        include_str!("../fixtures/failpoint/fail_unrostered.rs"),
    );
    assert_eq!(rules(&d), ["failpoint"], "{d:?}");
    assert!(d[0].msg.contains("engine.compact"), "{d:?}");
    assert!(d[0].msg.contains("not in"), "{d:?}");
}

#[test]
fn failpoint_fail_stale_roster_entry() {
    let d = lint(
        "crates/engine/src/lib.rs",
        include_str!("../fixtures/failpoint/fail_stale.rs"),
    );
    assert_eq!(rules(&d), ["failpoint"], "{d:?}");
    assert!(d[0].msg.contains("engine.gone"), "{d:?}");
}

#[test]
fn failpoint_suppressed() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/failpoint/suppressed.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn failpoint_roster_and_use_may_live_in_different_files_of_one_crate() {
    let roster = "pub const FAILPOINT_SITES: &[&str] = &[\"engine.flush\"];\n";
    let caller = "pub fn f() { mmdb_fault::fail_point!(\"engine.flush\"); }\n";
    let d = scan_sources(
        &[("crates/engine/src/lib.rs", roster), ("crates/engine/src/flush.rs", caller)],
        &cfg(),
    );
    assert!(d.is_empty(), "{d:?}");
    // The same pair split across *crates* fails both ways.
    let d = scan_sources(
        &[("crates/engine/src/lib.rs", roster), ("crates/other/src/lib.rs", caller)],
        &cfg(),
    );
    assert_eq!(rules(&d), ["failpoint", "failpoint"], "{d:?}");
}

// ---- relaxed ---------------------------------------------------------------

#[test]
fn relaxed_pass_in_designated_module() {
    let d = lint("crates/engine/src/metrics.rs", include_str!("../fixtures/relaxed/pass.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn relaxed_fail_elsewhere() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/relaxed/fail.rs"));
    assert_eq!(rules(&d), ["relaxed"], "{d:?}");
}

#[test]
fn relaxed_suppressed() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/relaxed/suppressed.rs"));
    assert!(d.is_empty(), "{d:?}");
}

// ---- tick ------------------------------------------------------------------

#[test]
fn tick_pass() {
    let d = lint("crates/engine/src/exec.rs", include_str!("../fixtures/tick/pass.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn tick_fail() {
    let d = lint("crates/engine/src/exec.rs", include_str!("../fixtures/tick/fail.rs"));
    assert_eq!(rules(&d), ["tick"], "{d:?}");
}

#[test]
fn tick_suppressed() {
    let d = lint("crates/engine/src/exec.rs", include_str!("../fixtures/tick/suppressed.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn tick_rule_only_applies_to_configured_files() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/tick/fail.rs"));
    assert!(d.is_empty(), "{d:?}");
}

// ---- failpoint test coverage -----------------------------------------------

#[test]
fn failpoint_coverage_gates_on_test_files_in_the_scan() {
    let engine = include_str!("../fixtures/failpoint/pass.rs");
    // Without test files in the scan, coverage is unknowable: quiet.
    let d = scan_sources(&[("crates/engine/src/lib.rs", engine)], &cfg());
    assert!(d.is_empty(), "{d:?}");
    // With a test file that never references the site: flagged.
    let d = scan_sources(
        &[
            ("crates/engine/src/lib.rs", engine),
            ("crates/engine/tests/torture.rs", "#[test]\nfn smoke() {}\n"),
        ],
        &cfg(),
    );
    assert_eq!(rules(&d), ["failpoint", "failpoint"], "{d:?}");
    assert!(d.iter().all(|x| x.msg.contains("never exercised")), "{d:?}");
    // A test chaining the crate's roster covers every site.
    let d = scan_sources(
        &[
            ("crates/engine/src/lib.rs", engine),
            (
                "crates/engine/tests/torture.rs",
                "#[test]\nfn kill_all() { for s in engine::FAILPOINT_SITES { arm(s); } }\n",
            ),
        ],
        &cfg(),
    );
    assert!(d.is_empty(), "{d:?}");
}

// ---- pragma ----------------------------------------------------------------

#[test]
fn pragma_pass() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/pragma/pass.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn pragma_fail() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/pragma/fail.rs"));
    // The typo'd rule, the reasonless pragma and the retired `blocking`
    // rule are violations, and none suppresses its unwrap (diagnostics
    // sort by rule per line).
    assert_eq!(rules(&d), ["panic", "pragma", "panic", "pragma", "panic", "pragma"], "{d:?}");
    assert!(d[5].msg.contains("unknown rule 'blocking'"), "{d:?}");
}

#[test]
fn pragma_unused_is_flagged() {
    let d = lint("crates/engine/src/lib.rs", include_str!("../fixtures/pragma/unused_fail.rs"));
    assert_eq!(rules(&d), ["pragma"], "{d:?}");
    assert!(d[0].msg.contains("unused pragma"), "{d:?}");
}
