#!/usr/bin/env bash
# Records the perf points for this checkout:
#
# - BENCH_train_infer.json — the criterion benches covering forest
#   fitting (a 40-tree histogram-binned fit at dataset-zoo scale) and
#   batched inference, parsed from the ns/iter lines.
# - BENCH_serve.json — serving-path latency/throughput: loadgen drives
#   100k concurrent requests through a running `pml-mpi serve` daemon
#   and records p50/p99/p999 round-trip latency plus requests/sec.
#
# `scripts/bench.sh --schedcost [BASE_REV]` does none of that: it prints
# the `schedcost_extraction` criterion bench (cold schedule generation and
# polynomial extraction per allgather/alltoall algorithm, worlds 64 and
# 250) as a table and writes no file. With BASE_REV the same bench file is
# also built inside a `git archive` copy of that revision, and the table
# gains before / after / ratio columns — the table for a PR description.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--schedcost" ]]; then
    run_bench() { # <checkout dir> <target dir>
        (cd "$1" && CARGO_TARGET_DIR="$2" cargo bench --offline -p pml-bench \
            --bench schedcost_extraction 2>/dev/null) |
            awk '/ns\/iter/ { gsub(/,/, "", $2); print $1, $2 }'
    }
    after=$(mktemp)
    trap 'rm -rf "$after" "${base_dir:-}" "${before:-}"' EXIT
    run_bench . "${CARGO_TARGET_DIR:-target}" > "$after"
    if [[ -z "${2:-}" ]]; then
        awk '{ printf "%-56s %12.3f ms\n", $1, $2 / 1e6 }' "$after"
        exit 0
    fi
    base_dir=$(mktemp -d)
    before=$(mktemp)
    git archive "$2" | tar -x -C "$base_dir"
    # The base may predate the bench: it only uses API both sides have.
    cp crates/bench/benches/schedcost_extraction.rs "$base_dir/crates/bench/benches/"
    cp crates/bench/Cargo.toml "$base_dir/crates/bench/Cargo.toml"
    run_bench "$base_dir" "$base_dir/target" > "$before"
    printf '%-56s %12s %12s %7s\n' "bench (ms)" "$2" "$(git rev-parse --short HEAD)+" ratio
    awk 'NR == FNR { b[$1] = $2; next }
         ($1 in b) { printf "%-56s %12.3f %12.3f %6.2fx\n", $1, b[$1] / 1e6, $2 / 1e6, b[$1] / $2 }' \
        "$before" "$after"
    exit 0
fi

out=BENCH_train_infer.json
stamp=$(date -u +%FT%TZ)
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# Uncommitted changes measured: the point is of HEAD plus a diff.
git diff --quiet HEAD 2>/dev/null || rev="$rev+"

{
    cargo bench -p pml-bench --bench training 2>&1
    cargo bench -p pml-bench --bench inference 2>&1
} | grep -E "ns/iter" | awk -v stamp="$stamp" -v rev="$rev" '
  {
    id = $1
    ns = $2
    gsub(/,/, "", ns)
    ids[++n] = id
    vals[id] = ns
  }
  END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", stamp
    printf "  \"rev\": \"%s\",\n", rev
    printf "  \"benches_ns_per_iter\": {\n"
    for (i = 1; i <= n; i++)
      printf "    \"%s\": %s%s\n", ids[i], vals[ids[i]], (i < n ? "," : "")
    printf "  }\n"
    printf "}\n"
  }
' > "$out"

# Stage-level timings: merge the pml-obs metrics document from a traced
# tuning-table run in as "stage_metrics", so the perf point records where
# the pipeline spends its time, not just the headline ratios.
metrics=$(mktemp)
cargo build --release --bin pml-mpi >/dev/null 2>&1
if target/release/pml-mpi table RI alltoall \
    --out /dev/null --metrics-out "$metrics" >/dev/null 2>&1 && [[ -s "$metrics" ]]; then
    head -n -1 "$out" > "$out.tmp"
    {
        printf '  ,"stage_metrics":\n'
        cat "$metrics"
        printf '}\n'
    } >> "$out.tmp"
    mv "$out.tmp" "$out"
else
    echo "warning: stage metrics unavailable, writing benches only" >&2
fi
rm -f "$metrics"

# Analytic-fallback configuration: merge the pml-costparams document
# (selector tier + fitted α/β/γ per cluster) in as "analytic_fallback",
# so the perf point records which cost model the Analytic tier would
# answer with at this checkout. A small world keeps this fast — the
# fitted parameters depend only on the cluster specs, not on the grid.
params=$(mktemp)
if target/release/pml-mpi verify --costs --max-world 4 \
    --params-out "$params" >/dev/null 2>&1 && [[ -s "$params" ]]; then
    head -n -1 "$out" > "$out.tmp"
    {
        printf '  ,"analytic_fallback":\n'
        cat "$params"
        printf '}\n'
    } >> "$out.tmp"
    mv "$out.tmp" "$out"
else
    echo "warning: analytic-fallback params unavailable, omitting" >&2
fi
rm -f "$params"

echo "wrote $out"
cat "$out"

# Serving-path perf point: boot the daemon on a tiny hand-written table
# artifact (real table generation re-runs the micro-benchmarks — minutes,
# not seconds) and hammer it with loadgen. The loadgen CLI itself writes
# the JSON document, including the percentile ladder.
serve_out=BENCH_serve.json
work=$(mktemp -d)
serve_pid=""
serve_cleanup() {
    [[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap serve_cleanup EXIT
mkdir -p "$work/art"
cat > "$work/art/bench_alltoall.json" <<'EOF'
{
  "cluster": "bench",
  "collective": "Alltoall",
  "entries": [
    {"nodes": 2, "ppn": 4, "msg_size": 1024, "algorithm": {"Alltoall": "Bruck"}},
    {"nodes": 2, "ppn": 4, "msg_size": 65536, "algorithm": {"Alltoall": "Pairwise"}},
    {"nodes": 2, "ppn": 8, "msg_size": 1024, "algorithm": {"Alltoall": "Bruck"}},
    {"nodes": 2, "ppn": 8, "msg_size": 65536, "algorithm": {"Alltoall": "Pairwise"}},
    {"nodes": 4, "ppn": 4, "msg_size": 1024, "algorithm": {"Alltoall": "Bruck"}},
    {"nodes": 4, "ppn": 4, "msg_size": 65536, "algorithm": {"Alltoall": "Pairwise"}},
    {"nodes": 4, "ppn": 8, "msg_size": 1024, "algorithm": {"Alltoall": "Bruck"}},
    {"nodes": 4, "ppn": 8, "msg_size": 65536, "algorithm": {"Alltoall": "Pairwise"}}
  ]
}
EOF
sock="$work/pml.sock"
target/release/pml-mpi serve --socket "$sock" --model "$work/art" \
    >"$work/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [[ -S "$sock" ]] && break
    sleep 0.05
done
if [[ -S "$sock" ]]; then
    target/release/pml-mpi loadgen --socket "$sock" \
        --requests 100000 --threads 8 --seed 42 \
        --date "$stamp" --rev "$rev" --out "$serve_out"
    kill -TERM "$serve_pid" && wait "$serve_pid"
    serve_pid=""
    echo "wrote $serve_out"
    cat "$serve_out"
else
    sed 's/^/bench: daemon: /' "$work/serve.log" >&2
    echo "warning: serve daemon never bound, skipping $serve_out" >&2
fi
