//! The workspace must lint clean: the seed tree plus every change that
//! lands rides behind `mmdb-lint` with zero unsuppressed violations.
//! This test is the in-tree mirror of the `scripts/ci.sh` lint step.

#[test]
fn workspace_has_no_unsuppressed_violations() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = mmdb_lint::scan_root(&root).expect("workspace scan");
    assert!(
        diags.is_empty(),
        "unsuppressed lint violations:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}
