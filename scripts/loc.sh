#!/usr/bin/env sh
# Line counts for the tree, as ROADMAP anchors and CHANGES entries quote
# them.
#
# Run from anywhere:
#   scripts/loc.sh            # whole tree, then non-test lines per crate and per file
#   scripts/loc.sh FILE...    # whole tree, then non-test lines of just these files
#
# The whole-tree count is every line of every file under crates, shims,
# tests, src and examples. A source file's non-test lines are its lines
# up to (not including) its first `#[cfg(test)]` line; only the `src`
# directories of the crates, the shims and the root package count, so
# integration tests, benches and examples are left out.
set -eu

cd "$(dirname "$0")/.."

tree=$(find crates shims tests src examples -type f -print0 | xargs -0 cat | wc -l)
echo "whole tree: $tree lines (crates shims tests src examples)"

# Non-test lines of each file given on stdin, one path a line, printed
# as "count path".
non_test() {
    while IFS= read -r f; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%d %s\n", n, FILENAME }' "$f"
    done
}

if [ "$#" -gt 0 ]; then
    for f in "$@"; do echo "$f"; done | non_test |
        awk '{ total += $1; printf "%7d  %s\n", $1, $2 } END { printf "%7d  total\n", total }'
    exit 0
fi

counts=$(find crates/*/src shims/*/src src -name '*.rs' | sort | non_test)

echo
echo "non-test lines per crate:"
echo "$counts" | awk '{
    split($2, p, "/")
    crate = (p[1] == "src") ? "mmdb (src)" : p[1] "/" p[2]
    per[crate] += $1
    total += $1
} END {
    for (c in per) printf "%7d  %s\n", per[c], c
    printf "%7d  total\n", total
}' | sort -k2 | awk '$2 != "total"; $2 == "total" { t = $0 } END { print t }'

echo
echo "non-test lines per file:"
echo "$counts" | awk '{ printf "%7d  %s\n", $1, $2 }'
