#!/usr/bin/env bash
# Appends this checkout's numbers to BENCH_history.jsonl as one line: every
# workload of the repo's benchmark (benchmark/README.md) run once for the
# end-to-end metrics (--trace 0) and once for the per-layer ledger
# (--trace 1), ≈ 2 min in all; the binary's last-line `metrics` objects are
# copied unchanged. A rev ending in `+` had uncommitted changes on top.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
workloads=(pretrain deploy_cold serve_select serve_predict)

# `record <rev> <date> <machine> <last line>...`: one history line from the
# eight runs' last lines, a --trace 0 / --trace 1 pair per workload.
record() {
    local rev=$1 date=$2 machine=$3 sep='' w e2e layers
    shift 3
    printf '{"rev":"%s","date":"%s","machine":%s,"workloads":{' "$rev" "$date" "$machine"
    for w in "${workloads[@]}"; do
        e2e=${1#*\"metrics\":} layers=${2#*\"metrics\":}
        printf '%s"%s":{"end_to_end":%s,"per_layer":%s}' "$sep" "$w" "${e2e%\}}" "${layers%\}}"
        sep=,
        shift 2
    done
    printf '}}\n'
}
[[ "${BASH_SOURCE[0]}" == "$0" ]] || return 0 # sourced: tests/bench_history.rs calls record

rev=$(git rev-parse --short HEAD)
git diff --quiet HEAD || rev+=+
cpu=$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | tr -d '"\\' | xargs)
machine="{\"cpu\":\"$cpu\",\"nproc\":$(nproc),\"kernel\":\"$(uname -r)\"}"
(cd benchmark && cargo build --release --offline --quiet)
lines=()
for w in "${workloads[@]}"; do
    for trace in 0 1; do
        lines+=("$(cd benchmark && "${CARGO_TARGET_DIR:-target}/release/pml-benchmark" \
            --workload "$w" --seed 1 --seconds 12 --trace "$trace" | tail -n 1)")
    done
done
record "$rev" "$(date -u +%FT%TZ)" "$machine" "${lines[@]}" >>BENCH_history.jsonl
echo "appended $rev to BENCH_history.jsonl"
