//! The workspace call graph: a symbol table over every parsed
//! [`FnItem`](crate::parse::FnItem) and name-based call resolution.
//!
//! Resolution is deliberately conservative about *std-shaped* names:
//! a call like `versions.get(&key)` must not resolve to some
//! `Transaction::get` elsewhere in the workspace just because the
//! method name collides with a collection method. [`OPAQUE_METHODS`]
//! lists the names that are never resolved; everything else resolves
//! to the union of all same-named workspace functions (an
//! over-approximation: the `blocking` rule may reach too much, never
//! too little of what the name-based view can see).

use std::collections::BTreeMap;

use crate::parse::{Event, FnItem};

/// Method/function names that are never resolved into the call graph:
/// std collection, iterator, IO, string, and sync-primitive vocabulary
/// whose workspace homonyms would create wildly false call edges.
pub const OPAQUE_METHODS: &[&str] = &[
    // Option/Result and construction
    "new", "default", "clone", "from", "into", "parse", "expect", "unwrap", "unwrap_or",
    "unwrap_or_else", "unwrap_or_default", "ok", "err", "ok_or", "ok_or_else", "map", "map_err",
    "and_then", "or_else", "take", "replace", "as_ref", "as_mut", "as_deref", "as_str",
    "as_bytes", "as_slice", "to_string", "to_vec", "to_owned", "is_some", "is_none", "is_ok",
    "is_err", "is_some_and", "is_none_or", "is_ok_and", "then", "then_some", "cloned", "copied",
    // collections
    "len", "is_empty", "push", "pop", "insert", "remove", "get", "get_mut", "contains",
    "contains_key", "clear", "extend", "append", "drain", "entry", "or_insert", "or_default",
    "keys", "values", "values_mut", "iter", "iter_mut", "into_iter", "first", "last", "split_off",
    "retain", "truncate", "reserve", "range", "swap", "swap_remove", "binary_search", "sort",
    "sort_by", "sort_by_key", "dedup", "push_back", "push_front", "pop_front", "pop_back",
    // iterators
    "next", "filter", "filter_map", "flat_map", "flatten", "collect", "fold", "any", "all",
    "find", "position", "rposition", "count", "sum", "min", "max", "rev", "zip", "chain",
    "enumerate", "skip", "skip_while", "take_while", "peekable", "peek", "chunks", "windows",
    "by_ref", "max_by_key", "min_by_key", "max_by", "min_by", "last_mut", "first_mut", "nth",
    // strings
    "trim", "trim_start", "trim_end", "split", "splitn", "split_once", "rsplit", "starts_with",
    "ends_with", "to_lowercase", "to_uppercase", "chars", "bytes", "lines", "join", "repeat",
    "char_indices", "strip_prefix", "strip_suffix", "trim_start_matches", "trim_end_matches",
    // IO / fs / net
    "read_exact", "write_all", "read_to_end", "read_to_string", "flush", "sync", "sync_all",
    "sync_data", "seek", "set_len", "metadata", "open", "create", "accept", "connect",
    "shutdown", "set_nodelay", "set_read_timeout", "set_write_timeout", "peer_addr",
    "local_addr", "try_clone",
    // generic CRUD/reporting vocabulary: defined in 3+ crates each
    // (kv, lsm, heap, table, triple, ...), so a name-based union would
    // attribute every store's acquisitions to every caller
    "scan", "search", "stats", "put", "delete",
    // sync primitives (the acquisition patterns themselves are events,
    // and `Condvar::wait`, channel ops, atomics are std, not workspace)
    "lock", "read", "write", "try_lock", "try_read", "try_write", "wait", "wait_for",
    "wait_while", "notify_one", "notify_all", "load", "store", "fetch_add", "fetch_sub",
    "fetch_max", "fetch_min", "compare_exchange", "swap_val", "send", "recv", "try_recv",
    "spawn", "join", "park", "unpark", "sleep",
    // misc std vocabulary
    "fmt", "eq", "ne", "cmp", "partial_cmp", "hash", "drop", "abs", "pow", "checked_sub",
    "checked_add", "saturating_sub", "saturating_add", "wrapping_add", "min_val", "elapsed",
    "duration_since", "as_millis", "as_micros", "as_secs", "as_nanos", "from_secs",
    "from_millis", "from_micros", "now", "id", "name", "to_le_bytes", "from_le_bytes",
    "to_be_bytes", "from_be_bytes", "leading_zeros", "trailing_zeros",
];

/// The symbol table: fn name → indices into the parsed item slice.
pub struct CallGraph {
    symbols: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Build the table over every parsed item.
    pub fn build(items: &[FnItem]) -> CallGraph {
        let mut symbols: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            symbols.entry(item.name.clone()).or_default().push(i);
        }
        CallGraph { symbols }
    }

    /// Resolve a call by name: the union of all same-named workspace
    /// fns, or nothing for opaque (std-shaped) and unknown names.
    pub fn resolve(&self, name: &str) -> &[usize] {
        if OPAQUE_METHODS.contains(&name) {
            return &[];
        }
        self.symbols.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All item indices whose fn name is `name` (used to seed hot
    /// contexts; ignores the opaque list).
    pub fn named(&self, name: &str) -> &[usize] {
        self.symbols.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The callee item-index sets for each call event of `item`,
    /// deduplicated, in stream order.
    pub fn callees_of(&self, item: &FnItem) -> Vec<usize> {
        let mut out = Vec::new();
        for ev in &item.events {
            if let Event::Call { name, .. } = ev {
                for &idx in self.resolve(name) {
                    if !out.contains(&idx) {
                        out.push(idx);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::analyze;
    use crate::parse::parse_items;

    #[test]
    fn std_shaped_names_do_not_resolve() {
        let file = analyze(
            "crates/x/src/lib.rs",
            "fn get(&self) { self.a.lock(); }\nfn fetch(&self) { self.b.lock(); }\n",
        );
        let items = parse_items(&[file]);
        let graph = CallGraph::build(&items);
        assert!(graph.resolve("get").is_empty(), "std-shaped `get` must stay opaque");
        assert_eq!(graph.resolve("fetch").len(), 1);
        assert!(graph.resolve("nonexistent").is_empty());
    }
}
