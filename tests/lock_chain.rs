//! DESIGN.md's lock chain is the rank table. The witness in
//! `shims/parking_lot` enforces `crates/types/src/lock_rank.rs`; the
//! chain under DESIGN.md "Lock hierarchy" is what a reader learns the
//! order from. No compiler sees a doc, so this source scan keeps the two
//! in step: a rank added to or removed from the table fails here until
//! the chain says the same.

use std::path::Path;

/// Every `Rank::new(level, "name")` in the rank table, sorted by level.
fn ranks(table: &str) -> Vec<(u32, String)> {
    let mut ranks: Vec<(u32, String)> = table
        .split("Rank::new(")
        .skip(1)
        .map(|rest| {
            let (level, rest) = rest.split_once(',').unwrap();
            let name = rest.split('"').nth(1).unwrap();
            (level.trim().parse().unwrap(), name.to_string())
        })
        .collect();
    ranks.sort();
    ranks
}

/// The names in the first fenced block under DESIGN.md's "Lock
/// hierarchy" heading, in the order it lists them; the closing
/// `(every other lock: a leaf)` is not a rank.
fn chain(design: &str) -> Vec<String> {
    let section = design.split("\n## Lock hierarchy\n").nth(1).unwrap();
    let block = section.split("```").nth(1).unwrap();
    block
        .split(['→', '\n'])
        .map(str::trim)
        .filter(|name| !name.is_empty() && !name.starts_with('('))
        .map(String::from)
        .collect()
}

#[test]
fn design_lists_every_lock_rank_in_rank_order() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = std::fs::read_to_string(root.join("crates/types/src/lock_rank.rs")).unwrap();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let ranks = ranks(&table);
    assert!(ranks.len() >= 2, "no ranks read from the table: {ranks:?}");
    let levels: Vec<u32> = ranks.iter().map(|(level, _)| *level).collect();
    assert!(levels.windows(2).all(|w| w[0] < w[1]), "two ranks share a level: {ranks:?}");
    let names: Vec<String> = ranks.into_iter().map(|(_, name)| name).collect();
    assert_eq!(
        chain(&design),
        names,
        "DESIGN.md \"Lock hierarchy\" must list crates/types/src/lock_rank.rs's ranks, lowest first"
    );
}
