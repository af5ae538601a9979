#!/usr/bin/env bash
# Print the line counts CHANGES.md and ROADMAP.md quote: each crate's shipped
# lines, the shipped lines of the files ROADMAP budgets (`src/main.rs` and
# `server.rs`, item 8; the algorithm registry `algo.rs`, item 23), then the
# workspace `.rs` total under `crates src tests examples`.
# A crate's shipped lines are those of every `.rs` file under its `src/`, each
# counted up to its first `#[cfg(test)]` at column 0. A test-only module file
# (one whose `mod` declaration sits under a column-0 `#[cfg(test)]`, with or
# without a `#[path]` attribute) is not shipped and not counted. The root
# package is `src`. A single file is counted the same way.
# Usage: scripts/lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The files the `mod` declarations under `#[cfg(test)]` in `$@` point to.
test_only_modules() {
    awk '
        FNR == 1 { armed = 0 }
        /^#\[cfg\(test\)\]/ { armed = 1; path = ""; next }
        armed && /^#\[path *= *"[^"]*"\]/ {
            match($0, /"[^"]*"/); path = substr($0, RSTART + 1, RLENGTH - 2); next
        }
        armed && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
            name = $0; sub(/^(pub(\([a-z]+\))? )?mod /, "", name); sub(/;.*/, "", name)
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
            stem = FILENAME; sub(/.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (path != "") print dir "/" path
            else if (stem == "mod" || stem == "lib" || stem == "main") {
                print dir "/" name ".rs"; print dir "/" name "/mod.rs"
            } else { print dir "/" stem "/" name ".rs"; print dir "/" stem "/" name "/mod.rs" }
        }
        { armed = 0 }
    ' "$@"
}

shipped() {
    local files excluded
    files=$(find "$1" -name '*.rs' | sort)
    # shellcheck disable=SC2086
    excluded=$(test_only_modules $files)
    # shellcheck disable=SC2086
    grep -vxF -e "${excluded:-/}" <<<"$files" | tr '\n' '\0' |
        xargs -0 awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

for src in crates/*/src src src/main.rs crates/serve/src/server.rs crates/collectives/src/algo.rs; do
    printf '%-30s %6d\n' "${src%/src}" "$(shipped "$src")"
done
printf '%-30s %6d\n' "workspace .rs" \
    "$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"
