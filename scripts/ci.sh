#!/usr/bin/env sh
# Tier-1 gate for mmdb (see ROADMAP.md "Tier-1 verify").
#
# Run from the repository root:
#   scripts/ci.sh
#
# Everything must pass before a PR lands: a warning-free release build,
# the full test suite of every workspace crate (unit + integration +
# property + doc tests, with lock order and "the connection reader never
# waits" checked as they run), clippy
# with warnings promoted to errors, and the benchmark of record still
# building and running against the engine's public items.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# Every member's suites, not just the root package's: crate-level tests
# such as crates/lint/tests/self_scan.rs gate a PR too. These are debug
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
# and must run as free no-ops; and the checkpoint/snapshot unit tests of
# mmdb-core and mmdb-storage (the ckpt.* sites ride it too: a default
# build must checkpoint with the failpoint scaffolding compiled out).
cargo test -q --workspace

echo "==> both witnesses compile out of release builds"
# The one test that only exists without debug assertions: Mutex/RwLock/
# Condvar are the size of std's, the hot mark and the wait permit are
# zero-sized, and an inversion or a hot thread's wait goes unnoticed.
cargo test -q --release -p parking_lot

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> mmdb-lint (workspace invariant rules; see DESIGN.md 'Static analysis')"
# JSON report archived for attribution; the per-rule summary table goes
# to stderr. The binary exits nonzero on any finding: since PR 16 there
# is no warning severity, so the report's per-rule summary has lost its
# `warnings` field and its violations their constant `severity`.
mkdir -p target
cargo run -q --release -p mmdb-lint -- --format json > target/lint-report.json

echo "==> crash-recovery torture suite (--features failpoints)"
cargo test -q --features failpoints --test crash_recovery

echo "==> request-lifecycle torture suite (--features failpoints)"
cargo test -q --features failpoints --test lifecycle_torture

echo "==> replication failover torture suite (--features failpoints)"
cargo test -q --features failpoints --test replication

echo "==> group-commit torture & property suite (--features failpoints)"
cargo test -q --features failpoints --test group_commit

echo "==> checkpoint torture suite (--features failpoints)"
cargo test -q --features failpoints --test checkpoint

echo "==> the evaluator's allocation budget, optimized build"
# tests/query_allocs.rs (referring to a bound document must not copy it)
# ran in the debug pass above; this is the optimized build, the one the
# benchmark of record measures.
cargo test -q --release --test query_allocs

echo "==> cargo clippy --features failpoints (lints the torture suite)"
cargo clippy -p mmdb --all-targets --features failpoints -- -D warnings

echo "==> unibench smoke run (tiny scale factor)"
# Not a performance gate — just proves the bench binary builds, generates
# data, and completes every workload end to end.
cargo run -q --release -p mmdb-bench --bin unibench -- --scale 0.05 --workload all --seed 21

echo "==> workload C multi-writer smoke (group commit, 1 vs 8 writers)"
# Also not a performance gate — proves the concurrent write path drives
# the group-commit sequencer end to end and emits its BENCH lines.
cargo run -q --release -p mmdb-bench --bin unibench -- --scale 0.05 --workload c --writers 1,8 --seed 21

echo "==> workload P pipelining smoke (reduced: 200 idle, 8 hot)"
# Also not a performance gate — proves the pipelined server end to end:
# idle connections parked by the re-exec'd holder child, hot connections
# at depth 1 vs 32, and the BENCH rows. The full run (10k idle, 100 hot)
# is `unibench --workload p`; EXPERIMENTS.md records its numbers.
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
