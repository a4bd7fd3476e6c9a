#!/usr/bin/env sh
# Prints the workspace's non-test Rust line count: every `.rs` file under
# `crates`, `src` and `examples`, outside `tests/` directories, counted up
# to (not including) its first `#[cfg(test)]` line. Run from anywhere:
#   scripts/loc.sh
# This is the figure the CHANGES entries quote; it is not a verify gate.
set -eu

cd "$(dirname "$0")/.."

find crates src examples -name '*.rs' -not -path '*/tests/*' -print |
    LC_ALL=C sort |
    xargs awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    '
