#!/usr/bin/env bash
# Serve-lane smoke test: boots `pml-mpi serve` against a tiny hand-written
# tuning-table artifact and the committed allgather model fixture, drives
# the pml-serve/v1 protocol end to end through `pml-mpi client` — good
# `select` and `predict` frames, a malformed frame, a truncated frame, a
# frame nested 200 deep, an unknown cluster, a job of 65536 x 65536 ranks
# (the daemon must answer with typed errors, never drop the connection) — fires a short loadgen burst,
# round-trips the `watch` op
# (stage ladder, SLO burn, quality monitor), kills a `watch` client whose
# next tick is ten minutes away and asserts that the daemon is back to its
# idle thread count within 1 s, then SIGTERMs the daemon while an endless
# `watch` waits a minute for its next tick and an idle client holds a
# connection, and asserts a clean shutdown within 5 s: exit code 0, the
# socket file removed, and the `watch` and the idle client ended within 1 s
# of the daemon.
# Any mismatch exits nonzero. ci.sh runs this lane on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=target/release/pml-mpi
[[ -x "$bin" ]] || cargo build --release --bin pml-mpi

work=$(mktemp -d)
sock="$work/pml.sock"
cleanup() {
    # The daemon, the `watch` and the idle client's `sleep` (the client
    # ends with its stdin), whichever are still running.
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    [[ -s "$work/serve.log" ]] && sed 's/^/serve_smoke: daemon: /' "$work/serve.log" >&2
    exit 1
}

# `ends_within <pid> <seconds>`: whether the process exits within that long.
ends_within() {
    for _ in $(seq 1 $(($2 * 20))); do
        kill -0 "$1" 2>/dev/null || return 0
        sleep 0.05
    done
    return 1
}

# `expect <desc> <needle> <actual>`: substring assertion with context.
expect() {
    case "$3" in
        *"$2"*) ;;
        *) fail "$1: expected to contain '$2', got: $3" ;;
    esac
}

# A minimal but verifier-complete artifact: a full 2x2x2 grid for
# Alltoall on a synthetic "smoke" cluster. Hand-written because real
# table generation re-runs the micro-benchmarks (minutes, not seconds).
mkdir -p "$work/art"
cat > "$work/art/smoke_alltoall.json" <<'EOF'
{
  "cluster": "smoke",
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
"$bin" verify "$work/art/smoke_alltoall.json" >/dev/null || fail "smoke artifact rejected by verifier"
# A small committed allgather model (15 trees), so `predict` runs through the
# batcher and the forest.
mkdir -p "$work/art/models"
cp tests/fixtures/model_v1_allgather.json "$work/art/models/"

echo "==> starting daemon"
"$bin" serve --socket "$sock" --model "$work/art" \
    --slo slo.json --quality-sample 1 --quality-cluster RI \
    >"$work/serve.log" 2>&1 &
pid=$!
for _ in $(seq 1 100); do
    [[ -S "$sock" ]] && break
    kill -0 "$pid" 2>/dev/null || fail "daemon died before binding"
    sleep 0.05
done
[[ -S "$sock" ]] || fail "socket never appeared at $sock"

echo "==> protocol round-trip"
# A frame nested 200 deep: a typed `parse` error, never recursion, and the
# ping after it on the same connection is still answered.
deep="{\"v\":\"pml-serve/v1\",\"id\":10,\"op\":\"ping\",\"x\":$(printf '[%.0s' {1..200})$(printf ']%.0s' {1..200})}"
replies=$(printf '%s\n' \
    '{"v":"pml-serve/v1","id":1,"op":"ping"}' \
    '{"v":"pml-serve/v1","id":2,"op":"select","collective":"alltoall","nodes":2,"ppn":4,"msg_size":1024}' \
    '{"v":"pml-serve/v1","id":3,"op":"select","collective":"alltoall","nodes":4,"ppn":8,"msg_size":65536}' \
    '{bad json' \
    '{"v":"pml-serve/v1","id":5,"op":"sel' \
    '{"v":"pml-serve/v1","id":6,"op":"frobnicate"}' \
    '{"v":"pml-serve/v1","id":7,"op":"predict","cluster":"Frontera","collective":"allgather","nodes":4,"ppn":16,"msg_size":4096}' \
    '{"v":"pml-serve/v1","id":8,"op":"predict","cluster":"Atlantis","collective":"allgather","nodes":4,"ppn":16,"msg_size":4096}' \
    '{"v":"pml-serve/v1","id":9,"op":"stats"}' \
    "$deep" \
    '{"v":"pml-serve/v1","id":11,"op":"ping"}' \
    '{"v":"pml-serve/v1","id":12,"op":"select","collective":"alltoall","nodes":65536,"ppn":65536,"msg_size":1024}' \
    '{"v":"pml-serve/v1","id":13,"op":"ping"}' \
    | "$bin" client --socket "$sock")
mapfile -t r <<< "$replies"
[[ ${#r[@]} -eq 13 ]] || fail "expected 13 replies, got ${#r[@]}: $replies"
expect "ping reply"            '"pong":true'        "${r[0]}"
expect "exact small select"    '"algorithm":"bruck"' "${r[1]}"
expect "exact small select"    '"depth":0'           "${r[1]}"
expect "exact large select"    '"algorithm":"pairwise"' "${r[2]}"
expect "malformed frame"       '"ok":false'          "${r[3]}"
expect "malformed frame"       '"kind":"parse"'      "${r[3]}"
expect "truncated frame"       '"kind":"parse"'      "${r[4]}"
expect "unknown op"            '"kind":"op"'         "${r[5]}"
expect "unknown op echoes id"  '"id":6'              "${r[5]}"
expect "model predict"         '"ok":true'           "${r[6]}"
expect "model predict"         '"algorithm":'        "${r[6]}"
expect "model predict echoes id" '"id":7'            "${r[6]}"
expect "unknown-cluster predict" '"kind":"unsupported"' "${r[7]}"
expect "unknown-cluster predict echoes id" '"id":8'  "${r[7]}"
expect "stats after errors"    '"ok":true'           "${r[8]}"
expect "stats counts requests" '"requests":'         "${r[8]}"
expect "stats lists tables"    '"tables":'           "${r[8]}"
expect "stats lists models"    '"models":["allgather"]' "${r[8]}"
expect "deeply nested frame"   '"kind":"parse"'      "${r[9]}"
expect "ping after deep frame" '"pong":true'         "${r[10]}"
expect "ping after deep frame" '"id":11'             "${r[10]}"
expect "world above u32::MAX"  '"kind":"field"'      "${r[11]}"
expect "world above u32::MAX echoes id" '"id":12'    "${r[11]}"
expect "ping after big world"  '"pong":true'         "${r[12]}"
expect "ping after big world"  '"id":13'             "${r[12]}"

echo "==> loadgen burst"
"$bin" loadgen --socket "$sock" --requests 2000 --threads 4 \
    --out "$work/bench.json" >/dev/null 2>&1 \
    || fail "loadgen reported bad replies or could not connect"
expect "loadgen output" '"p99":' "$(cat "$work/bench.json")"

echo "==> watch round-trip (raw frame)"
watch_raw=$("$bin" watch --socket "$sock" --count 1 --interval-ms 0 --raw) \
    || fail "watch --raw could not round-trip"
expect "watch raw seq"     '"seq":1'    "$watch_raw"
expect "watch raw stages"  '"window"'   "$watch_raw"
expect "watch raw slo"     '"slo"'      "$watch_raw"
expect "watch raw quality" '"quality"'  "$watch_raw"

echo "==> watch round-trip (rendered tick)"
watch_out=$("$bin" watch --socket "$sock" --count 1 --interval-ms 0) \
    || fail "watch could not round-trip"
expect "watch tick header"   'tick 1:'          "$watch_out"
expect "watch stage ladder"  'p99'              "$watch_out"
expect "watch total stage"   'total'            "$watch_out"
expect "watch select stage"  'select'           "$watch_out"
expect "watch slo burn"      'slo: p99 target'  "$watch_out"
expect "watch quality line"  'quality: 1-in-1'  "$watch_out"

# `threads`: the daemon's thread count; `settled_threads`: the same, once two
# readings 100 ms apart agree.
threads() { awk '/^Threads:/ { print $2 }' "/proc/$pid/status"; }
settled_threads() {
    local now next
    now=$(threads)
    while sleep 0.1; next=$(threads); [[ $next != "$now" ]]; do now=$next; done
    echo "$now"
}

# `start_watch <interval-ms> <log>`: an endless `watch` whose first tick is
# out; sets `watch_pid`.
start_watch() {
    "$bin" watch --socket "$sock" --interval-ms "$1" >"$2" 2>&1 &
    watch_pid=$!
    for _ in $(seq 1 100); do
        grep -q "tick 1:" "$2" && return 0
        sleep 0.05
    done
    fail "endless watch printed no first tick"
}

echo "==> a killed watch client leaves no daemon thread behind"
idle=$(settled_threads)
start_watch 600000 "$work/abandoned.log"
[[ $(threads) -gt $idle ]] || fail "no connection thread for the watch (idle $idle)"
kill -KILL "$watch_pid"
wait "$watch_pid" 2>/dev/null || true
for _ in $(seq 1 20); do
    [[ $(threads) -eq $idle ]] && break
    sleep 0.05
done
[[ $(threads) -eq $idle ]] || fail "daemon has $(threads) threads 1 s after the watch client died (idle $idle)"

echo "==> clean shutdown on SIGTERM, a minute before the next watch tick"
start_watch 60000 "$work/watch.log"
sleep 60 | "$bin" client --socket "$sock" >/dev/null 2>&1 &
client_pid=$!
kill -TERM "$pid"
ends_within "$pid" 5 || fail "daemon still running 5 s after SIGTERM"
rc=0
wait "$pid" || rc=$?
[[ $rc -eq 0 ]] || fail "daemon exited $rc on SIGTERM (want 0)"
[[ -S "$sock" ]] && fail "socket file survived shutdown"
ends_within "$watch_pid" 1 || fail "watch still running after the daemon exited"
ends_within "$client_pid" 1 || fail "idle client still running 1 s after the daemon exited"
wait "$watch_pid" || fail "watch exited nonzero when the daemon stopped: $(cat "$work/watch.log")"
grep -q "clean shutdown" "$work/serve.log" || fail "daemon log missing clean-shutdown line"

echo "serve smoke lane passed."
