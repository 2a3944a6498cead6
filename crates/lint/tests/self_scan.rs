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

/// The server runs cheap requests on a connection's reader thread
/// (`run_inline` in `crates/server/src/conn.rs`). The `blocking` rule
/// covers that thread — `conn_reader` is a hot context — but the sites
/// it would flag on the commit path already carry pragmas for the lane
/// executor's sake, and name-based call resolution cannot tell
/// `Session::kv_put` from the auto-committing `Database::kv_put`. So the
/// dispatcher's own body is pinned here: it names no call into the
/// commit, DDL, admin or query paths and holds no blocking operation.
#[test]
fn the_inline_dispatcher_names_no_call_that_can_wait() {
    use mmdb_lint::parse::{parse_items, Event};

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let cfg = mmdb_lint::Config::parse(&cfg).expect("lint.toml parses");
    assert!(cfg.hot_fns.iter().any(|f| f == "conn_reader"), "conn_reader must stay a hot context");

    let path = "crates/server/src/conn.rs";
    let text = std::fs::read_to_string(root.join(path)).expect("conn.rs");
    let file = mmdb_lint::lex::analyze(path, &text);
    let items = parse_items(std::slice::from_ref(&file));
    let inline: Vec<_> = items.iter().filter(|i| i.name == "run_inline").collect();
    assert_eq!(inline.len(), 1, "exactly one `run_inline` in {path}");
    let reader = items.iter().find(|i| i.name == "conn_reader").expect("conn_reader");
    let calls = |item: &mmdb_lint::parse::FnItem| -> Vec<String> {
        item.events
            .iter()
            .filter_map(|ev| match ev {
                Event::Call { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect()
    };
    assert!(calls(reader).iter().any(|c| c == "run_inline"), "the reader dispatches through it");

    const CAN_WAIT: [&str; 9] = [
        "commit",
        "transact",
        "checkpoint",
        "quiesce_commits",
        "apply_ddl",
        "run_admin",
        "run_stateless",
        "run_session_request",
        "serve_stream",
    ];
    for call in calls(inline[0]) {
        assert!(!CAN_WAIT.contains(&call.as_str()), "run_inline calls `{call}`, which can wait");
    }
    for idx in inline[0].first_line..=inline[0].last_line {
        let line = &file.lines[idx].masked;
        for op in &cfg.blocking_ops {
            assert!(!line.contains(op.as_str()), "{path}:{}: `{op}` in run_inline", idx + 1);
        }
    }
}
