#!/usr/bin/env bash
# Build the benchmark (release, offline) and run all four workloads once.
#
#   benchmark/run.sh            one sweep at the committed run length
#   benchmark/run.sh --quick    smoke sweep, done in about 15 s
#
# For one workload, another seed, the traced run or --repeat, call the
# binary directly (README.md).
set -euo pipefail
cd "$(dirname "$0")"

seconds=12
case "${1:-}" in
    "") ;;
    --quick) seconds=0.25 ;;
    *) echo "usage: $0 [--quick]" >&2; exit 2 ;;
esac

cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/pml-benchmark"
for workload in pretrain deploy_cold serve_select serve_predict; do
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0
    echo
done
