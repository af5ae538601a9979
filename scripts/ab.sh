#!/usr/bin/env bash
# A/B the repo's benchmark: this checkout (uncommitted changes included)
# against <parent-rev>, the way a claimed gain has to be shown (ROADMAP's
# measurement limit: this host drifts 15–25 % for minutes at a time, so
# single runs mislead).
#
#   scripts/ab.sh <parent-rev> [workload…]       all four workloads by default
#   PAIRS=10 scripts/ab.sh HEAD~1 deploy_cold    ten pairs instead of five
#
# The parent's committed files are unpacked beside the build outputs in a
# temporary directory (under $TMPDIR; removed on exit), both sides are built
# from their own checkout into their own target directory, and each workload
# is run PAIRS times on each side at --seed 1 --seconds 12 --trace 0, the two
# sides taking turns and swapping who goes first every pair. Per end-to-end
# metric it prints both medians, change ÷ parent, in how many pairs the
# change read better, and whether the move is inside the bound
# BENCHMARK.json fixes; `top1_acc`, `mean_slowdown` and the artifact digests
# must instead be equal in every run. Every run's reading is printed too.
# Exit 1 on a failed op, a failed run or a quality/digest mismatch; a
# timing outside its bound is reported, not judged (the driver judges).
#
# The summary is also appended to BENCH_history.jsonl as one paired line,
# {"kind":"ab","parent","change","date","machine","pairs","workloads"}: per
# workload, each end-to-end metric's two medians and the change's wins,
# the failed ops of both sides and whether every artifact digest agreed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
source scripts/bench.sh # checkout_rev, machine_json

# `summarize <pairs> <record-file> <parent> <change> <date> <machine>`: the
# readings (see `readings` below) on stdin; prints the table, writes the
# paired history line to <record-file>, and exits 1 on a quality or digest
# mismatch or a failed op.
summarize() {
    # BENCHMARK.json's end_to_end block gives each metric's direction and bound.
    awk -v pairs="$1" -v record="$2" -v parent="$3" -v change="$4" -v date="$5" -v machine="$6" '
        function median(w, side, m,    n, i, j, t, v) {
            n = 0
            for (i = 1; i <= pairs; i++) if ((w, side, i, m) in val) v[++n] = val[w, side, i, m] + 0
            for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            return n == 0 ? 0 : (n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2)
        }
        FNR == NR {
            if ($0 ~ /"per_layer"/) contract = 0
            if ($0 ~ /"end_to_end"/) contract = 1
            if (!contract) next
            if (match($0, /"name": "[^"]*"/)) { name = substr($0, RSTART + 9, RLENGTH - 10); metrics[++n_metrics] = name }
            if (match($0, /"better": "[^"]*"/)) better[name] = substr($0, RSTART + 11, RLENGTH - 12)
            if (match($0, /"bound": [0-9.]*/)) bound[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
            next
        }
        { val[$1, $2, $3, $4] = $5; if (!($1 in seen)) { seen[$1]; order[++n_workloads] = $1 } }
        END {
            bad = 0
            rec = sprintf("{\"kind\":\"ab\",\"parent\":\"%s\",\"change\":\"%s\",\"date\":\"%s\",\"machine\":%s,\"pairs\":%d,\"workloads\":{", parent, change, date, machine, pairs)
            for (k = 1; k <= n_workloads; k++) {
                w = order[k]
                rec = rec sprintf("%s\"%s\":{\"end_to_end\":{", k > 1 ? "," : "", w)
                printf "\n%s\n  %-15s %14s %14s %8s %6s  %s\n", w, "metric", "parent p50", "change p50", "c/p", "wins", "verdict"
                for (j = 1; j <= n_metrics; j++) {
                    m = metrics[j]
                    p = median(w, "parent", m); c = median(w, "change", m)
                    wins = 0; equal = 1
                    for (i = 1; i <= pairs; i++) {
                        a = val[w, "parent", i, m]; b = val[w, "change", i, m]
                        if (a != b || a != val[w, "parent", 1, m]) equal = 0
                        if (better[m] == "lower" ? b + 0 < a + 0 : b + 0 > a + 0) wins++
                    }
                    rec = rec sprintf("%s\"%s\":{\"parent\":%.10g,\"change\":%.10g,\"wins\":%d}", j > 1 ? "," : "", m, p, c, wins)
                    if (m == "top1_acc" || m == "mean_slowdown") {
                        verdict = equal ? "equal in every run" : "DIFFERS"
                        if (!equal) bad = 1
                        printf "  %-15s %14.6g %14.6g %8s %6s  %s\n", m, p, c, "", "", verdict
                        continue
                    } else {
                        worse = p == 0 ? 0 : (better[m] == "lower" ? c / p - 1 : 1 - c / p)
                        verdict = sprintf("%s bound %g (%+.1f %%)", worse > bound[m] ? "OUTSIDE" : "inside", bound[m], 100 * (p == 0 ? 0 : c / p - 1))
                    }
                    printf "  %-15s %14.6g %14.6g %8.3f %3d/%-2d  %s\n", m, p, c, p == 0 ? 0 : c / p, wins, pairs, verdict
                }
                fnv = val[w, "parent", 1, "fnv"]; same = 1; failed = 0
                for (i = 1; i <= pairs; i++) {
                    if (val[w, "parent", i, "fnv"] != fnv || val[w, "change", i, "fnv"] != fnv) same = 0
                    failed += val[w, "parent", i, "failed"] + val[w, "change", i, "failed"]
                    if (val[w, "parent", i, "failed"] == "" || val[w, "change", i, "failed"] == "") failed++
                }
                printf "  %-15s %s\n", "artifact_fnv", same ? "equal in every run " fnv : "DIFFERS"
                printf "  %-15s %d\n", "failed ops", failed
                rec = rec sprintf("},\"failed\":%d,\"fnv_equal\":%s}", failed, same ? "true" : "false")
                if (!same || failed) bad = 1
                for (j = 1; j <= n_metrics; j++) {
                    m = metrics[j]
                    if (m == "top1_acc" || m == "mean_slowdown") continue
                    printf "  %s by pair, parent/change:", m
                    for (i = 1; i <= pairs; i++) printf " %.6g/%.6g", val[w, "parent", i, m], val[w, "change", i, m]
                    printf "\n"
                }
            }
            print rec "}}" >record
            exit bad
        }
    ' BENCHMARK.json -
}
[[ "${BASH_SOURCE[0]}" == "$0" ]] || return 0 # sourced: tests/bench_history.rs calls summarize

[[ $# -ge 1 ]] || {
    echo "usage: [PAIRS=5] $0 <parent-rev> [workload…]" >&2
    exit 2
}
parent=$(git rev-parse --verify --short "$1^{commit}")
change=$(checkout_rev)
shift
workloads=("$@")
[[ ${#workloads[@]} -gt 0 ]] || workloads=(pretrain deploy_cold serve_select serve_predict)
pairs=${PAIRS:-5}

work=$(mktemp -d "${TMPDIR:-/tmp}/pml-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/runs"
git archive "$parent" | tar -x -C "$work/parent"

declare -A root=([parent]="$work/parent" [change]="$PWD")
for side in parent change; do
    echo "building $side (${root[$side]})" >&2
    (cd "${root[$side]}" && CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

status=0
for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        order=(parent change)
        ((i % 2)) || order=(change parent)
        for side in "${order[@]}"; do
            echo "$w pair $i/$pairs: $side" >&2
            (cd "${root[$side]}" && "$work/target-$side/release/pml-benchmark" \
                --workload "$w" --seed 1 --seconds 12 --trace 0) \
                >"$work/runs/$w.$side.$i" || {
                echo "ab: $w pair $i: the $side run exited $?" >&2
                status=1
            }
        done
    done
done

# One line per run: `<workload> <side> <pair> failed <n>`, `… fnv <digests>`,
# and `… <metric> <value>` for each end-to-end metric.
readings() {
    local w side i last digests
    for w in "${workloads[@]}"; do
        for side in parent change; do
            for ((i = 1; i <= pairs; i++)); do
                last=$(tail -n 1 "$work/runs/$w.$side.$i")
                echo "$w $side $i failed $(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$last")"
                digests=$(sed -n 's/^note: artifact_fnv=//p' "$work/runs/$w.$side.$i" | tr -d ' ')
                echo "$w $side $i fnv ${digests:-none}"
                grep -o '"[a-z0-9_]*":{"value":[^,]*' <<<"$last" |
                    sed "s/^\"\(.*\)\":{\"value\":/$w $side $i \1 /"
            done
        done
    done
}

echo "A/B parent $parent vs $change," \
    "$pairs pair(s) a workload, --seed 1 --seconds 12 --trace 0"
readings | summarize "$pairs" "$work/record" "$parent" "$change" "$(date -u +%FT%TZ)" \
    "$(machine_json)" || status=1
cat "$work/record" >>BENCH_history.jsonl
echo "appended the paired summary to BENCH_history.jsonl" >&2
exit "$status"
