#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, lints-as-errors, the
# repo's own static-analysis pass (pml-lint: any violation fails, there is
# no list of tolerated sites; its determinism scope covers the virtual-time
# executor and the measurement sweep that feed datagen), release build, the
# static artifact/schedule/cost lanes, the test suite (and the vendored
# serde_json's own, which holds its streaming reader and writer to its tree
# parser and printer), the fig01/fig02
# reproduction of EXPERIMENTS.json, the obs-determinism and serve smoke
# lanes, and a quick run of the frozen benchmark. CI
# (.github/workflows/ci.yml) runs exactly this script, so a clean local run
# means a green check.
#
# The nightly-only dynamic-analysis lane is separate (see the workflow):
#   cargo xtask miri    # Miri on mlcore + collectives unit tests
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo xtask lint"
cargo xtask lint

if cargo deny --version >/dev/null 2>&1; then
    echo "==> cargo deny check"
    cargo deny check bans licenses sources
else
    echo "==> cargo deny: not installed, skipping (CI runs it)"
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo xtask verify-artifacts"
cargo xtask verify-artifacts

echo "==> cargo xtask verify-schedules"
cargo xtask verify-schedules

echo "==> cargo xtask verify-costs"
cargo xtask verify-costs

echo "==> cargo test -q"
cargo test -q

echo "==> vendored serde_json tests (the model artifact's reader and writer)"
(cd vendor/serde_json && cargo test --offline -q)

echo "==> experiments lane (fig01, fig02: all virtual time, no dataset, no model)"
# Their EXPERIMENTS.json entries must come out as committed; the runner keeps
# every other entry, so the file is compared whole, up to `wall_clock`.
deterministic() { sed '/^  "wall_clock": {/,$d' "$1"; }
committed=$(mktemp)
cp EXPERIMENTS.json "$committed"
cargo run --release -q -p pml-bench -- fig01 fig02 >/dev/null
diff <(deterministic "$committed") <(deterministic EXPERIMENTS.json) >&2 || {
    echo "ci: fig01/fig02 no longer reproduce EXPERIMENTS.json (diff above)" >&2
    exit 1
}
rm -f "$committed"

echo "==> obs-determinism lane"
./scripts/obs_determinism.sh

echo "==> serve smoke lane"
./scripts/serve_smoke.sh

echo "==> benchmark lane (quick sweep, harness unit tests, frozen files untouched)"
benchmark/run.sh --quick
(cd benchmark && cargo test --offline -q)
[[ -z "$(git status --porcelain benchmark/)" ]] || {
    echo "ci: the run changed files under benchmark/:" >&2
    git status --porcelain benchmark/ >&2
    exit 1
}

echo "CI gate passed."
