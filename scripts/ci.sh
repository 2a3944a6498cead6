#!/usr/bin/env sh
# Tier-1 gate for mmdb (see ROADMAP.md "Tier-1 verify").
#
# Run from the repository root:
#   scripts/ci.sh
#
# Everything must pass before a PR lands: a warning-free release build,
# the full test suite of every workspace crate (unit + integration +
# property + doc tests, with lock order and "the connection reader never
# waits" checked as they run), clippy with warnings promoted to errors
# (which is where the engine's panic discipline is enforced), and the
# benchmark of record still building and running against the engine's
# public items. DESIGN.md "Checks and where they run" maps each
# invariant to the step that checks it.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# Every member's suites, not just the root package's: crate-level tests
# gate a PR too, and so do tests/relaxed_atomics.rs, the source scan
# behind the `Ordering::Relaxed` policy, and tests/lock_chain.rs, which
# holds DESIGN.md's lock chain to the rank table. These are debug
# builds, so every suite here and every --features failpoints suite
# below runs with both witnesses armed (shims/parking_lot, DESIGN.md
# "Lock hierarchy"): a lock taken out of rank order panics (rank
# witness), and so does a park, a lock held across an fsync or an fsync
# on a server connection's reader thread (hot-thread witness).
# This one pass is also where the suites that must hold in a *default*
# build run, so none of them is repeated below: the pipelining suites
# (tests/pipeline.rs, tests/wire_path.rs: out-of-order completion,
# backpressure, legacy frames, the reader's inline path); mmdb-fault's
# own tests (failpoints stay a no-op when the feature is off); the query
# cancellation scaffolding, whose deadline checks ride the same feature
# and must run as free no-ops; and the checkpoint unit tests of
# mmdb-core and mmdb-storage, which rewrite the log's prefix as its
# fold (the ckpt.* sites ride the feature too: a default build must
# checkpoint with the failpoint scaffolding compiled out).
cargo test -q --workspace

echo "==> both witnesses compile out of release builds"
# The one test that only exists without debug assertions: Mutex/RwLock/
# Condvar are the size of std's, the hot mark and the wait permit are
# zero-sized, and an inversion or a hot thread's wait goes unnoticed.
cargo test -q --release -p parking_lot

echo "==> cargo clippy --workspace --all-targets -- -D warnings (panic discipline + its #[expect]s)"
# Every engine crate root turns on clippy's unwrap_used / expect_used /
# panic / unreachable / todo and allow_attributes(_without_reason) outside
# cfg(test); -D warnings makes a new panic path, an #[allow], a reasonless
# #[expect] or a stale one (unfulfilled_lint_expectations) an error.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps (doc links resolve)"
# A doc comment that links to an item which is gone, renamed or private
# fails here instead of rotting: rustdoc's broken- and private-link lints
# are warnings, promoted to errors.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> torture suites (--features failpoints)"
# Crash recovery at every rostered site, request lifecycle (a panicking
# pooled request among it), replication failover, the group-commit
# torture & property suite and checkpoints; plus the durability suite,
# because the one fold (wal::Fold, fed by the one chunked reader that
# Wal::recover and a checkpoint's image share) and the logged catalog
# (live = log reopen = checkpoint reopen = replica) must stay clean with
# the failpoint scaffolding compiled in, as every torture suite's reopen
# relies on them.
cargo test -q --features failpoints \
  --test crash_recovery --test durability --test lifecycle_torture \
  --test replication --test group_commit --test checkpoint

echo "==> ordered apply and checkpoint races, optimized build, and mmdb-txn's failpoint unit tests"
# The ordered-apply test and the checkpoint race ran above with the lock
# witness armed; the optimized build is where their commits race tightly
# enough to show a hook run out of commit order, a commit returning
# before its hooks, or an append landing in the old log file after a
# checkpoint's rename (four writers and a tailing replica beside a
# checkpoint loop, after which the replica's log must be its primary's
# byte for byte), and a file-backed replica restarts and resumes from its
# own log while the primary commits. The mvcc unit tests run again with failpoints
# compiled in, on one thread because failpoints are process-global: a
# failed or crashed log step must allocate no commit timestamp.
cargo test -q --release --features failpoints --test group_commit \
  concurrent_writers_read_their_own_commits_from_every_model_view
cargo test -q --release --features failpoints --test checkpoint \
  checkpoints_in_a_loop_beside_four_writers_and_a_replica_lose_nothing
cargo test -q --release --features failpoints --test replication \
  a_file_backed_replica_of_a_checkpointed_primary_resumes_after_a_restart
cargo test -q -p mmdb-txn --features failpoints --lib -- --test-threads=1

echo "==> mmdb-fault's registry tests (--features failpoints)"
# The workspace pass above builds mmdb-fault without the feature, where
# only the no-op checks exist; the registry's own unit tests (spec
# grammar, hit counts, actions, the macro forms) and tests/env.rs
# (MMDB_FAILPOINTS arms sites on first use) compile only with it.
cargo test -q -p mmdb-fault --features failpoints

echo "==> the read path's and a wire point read's allocation budgets, the version store's and the fold's footprints and mmdb-types, optimized build"
# tests/query_allocs.rs ran in the debug pass above; this is the
# optimized build, the one the benchmark of record measures. It counts
# allocator calls per examined row for a scan, Q2, Q4 as a hash join,
# Q5's traversal, a filtered table scan and a rated `FULLTEXT` read
# (1.10, 3.34, 3.85, 4.81, 1.51 and 2.11; before table scans were
# projected and filtered in place: 1.14, 3.71, 3.98, 4.84, 2.19 and
# 2.17; with heap strings: 1.92, 5.45, 4.55 and 7.21; before projected
# document reads: 9.19, 8.42, 13.68 and 9.53; `FULLTEXT` 2.83 while its
# hits named documents by a cloned `_key`), with budgets that fail if a
# whole document or row decode, a copied document, field name, string
# value, bound name, lookup key, record, edge handle or hit key comes
# back. It also counts what a traced run (the path every served query
# takes) allocates beyond an untraced one, over 24 and 48 outer rows:
# 48 and 48 calls for Q4 as a hash join, 68 and 68 for Q4-grouped's
# join over `totals` (71 / 95 and 92 / 116 while a profile formatted an
# access path per operator evaluation), and fails if the extra grows
# with the rows. tests/version_bytes.rs holds the
# version store to its footprint: live heap per committed new-order
# write (163.4 bytes with the log's bytes kept once; 315.8 with decoded
# versions), under a budget of 170. tests/fold_heap.rs holds reopening
# and checkpointing a log to its state, not its history: the peak extra
# heap of each at eight generations of 20 000 documents over one
# generation (1.00 and 1.00; 2.61 and 6.31 when recovery read the whole
# file and both collected every committed write before folding), under
# a bound of 1.5. tests/wire_allocs.rs counts a point
# read over the wire: the request's encode, the server's reply into a
# warm buffer and the reply's decode (5, 2 and 11 calls; 15, 19 and 20
# when each message went through a `Value` tree), with the reply's
# decode held to its tree alone, so a clone out of it fails. mmdb-types
# runs again optimized because its inline `Key` reads names and string
# values with `from_utf8_unchecked`, and the optimized build is where a
# wrong `unsafe` would show.
cargo test -q --release --test query_allocs
cargo test -q --release --test version_bytes
cargo test -q --release --test fold_heap
cargo test -q --release --test wire_allocs
cargo test -q --release -p mmdb-types

echo "==> cargo clippy --features failpoints (torture suites + feature-gated #[expect]s)"
# The only clippy pass that compiles mmdb-fault's registry, so the only
# one that sees (and checks) its two feature-gated #[expect]s.
cargo clippy -p mmdb --all-targets --features failpoints -- -D warnings

echo "==> examples run end to end"
# `cargo test` and clippy only compile examples/; this runs each one, so
# an example whose writes or answers break fails here.
for example in quickstart ecommerce unified_query model_evolution polyglot_vs_multimodel; do
  cargo run -q --release --example "$example" > /dev/null
done

echo "==> unibench smoke run (tiny scale factor)"
# Not a performance gate — proves the bench binary builds, generates
# data, and completes every workload end to end: A, B, C (including the
# concurrent writers at 1, 8 and 64, which drive the group-commit
# sequencer), recovery, and the E4–E9 ablations, each of which asserts
# that its configurations agree before it times them.
cargo run -q --release -p mmdb-bench --bin unibench -- --scale 0.05 --workload all --seed 21

echo "==> workload P pipelining smoke (reduced: 200 idle, 8 hot)"
# Also not a performance gate — proves the pipelined server end to end:
# idle connections parked by the re-exec'd holder child and hot
# connections at depth 1 vs 32. The full run (10k idle, 100 hot) is
# `unibench --workload p`; EXPERIMENTS.md records its numbers.
cargo run -q --release -p mmdb-bench --bin unibench -- --scale 0.05 --workload p \
  --idle-conns 200 --hot-conns 8 --pipeline-ops 200 --seed 21

echo "==> benchmark of record: unit tests + quick smoke (benchmark/, a package of its own)"
# Not a performance gate either. The harness compiles against public
# items of the engine (parse_query / build_plan / optimize / execute_plan,
# Database::query_traced_with, ExecStats, World::access, ...) and checks
# every answer against an oracle: a PR that breaks one of those seams, or
# an answer, fails here instead of at the benchmark gate. `run --quick`
# is every workload, untraced and traced, one second each (< 1 min).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
  run --quick --out target/bench-quick.json > target/bench-quick.txt

echo "==> tier-1 gate passed"
