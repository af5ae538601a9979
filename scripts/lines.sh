#!/usr/bin/env bash
# Print the line counts CHANGES.md and ROADMAP.md quote: each crate's shipped
# lines, then the workspace `.rs` total under `crates src tests examples`.
# A crate's shipped lines are those of every `.rs` file under its `src/`, each
# counted up to its first `#[cfg(test)]` at column 0 (a test-only module file
# declared from elsewhere counts whole). The root package is `src`.
# Usage: scripts/lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

shipped() {
    find "$1" -name '*.rs' -print0 |
        xargs -0 awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

for src in crates/*/src src; do
    printf '%-18s %6d\n' "${src%/src}" "$(shipped "$src")"
done
printf '%-18s %6d\n' "workspace .rs" \
    "$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"
