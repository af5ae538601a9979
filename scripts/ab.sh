#!/usr/bin/env bash
# A/B the repo's benchmark: this checkout (uncommitted changes included)
# against <parent-rev>, the way a claimed gain has to be shown (ROADMAP's
# measurement limit: this host drifts 15–25 % for minutes at a time, so
# single runs mislead).
#
#   scripts/ab.sh <parent-rev> [workload…]       all four workloads by default
#   PAIRS=10 scripts/ab.sh HEAD~1 deploy_cold    ten pairs instead of five
#   TRACE_PAIRS=0 scripts/ab.sh HEAD~1           no traced pairs
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
# Then each workload is run TRACE_PAIRS more times a side (default 3), the
# same way but at --trace 1, and each per-layer ledger row's two medians and
# the change's wins are printed (rows both sides read as 0 are left out of
# the table). Exit 1 on a failed op, a failed run or a quality/digest
# mismatch; a timing outside its bound is reported, not judged.
#
# Each timing's change ÷ parent ratio is also taken pair by pair, and its
# median printed with the sign-test interval (no normality assumed: at ten
# pairs the 2nd and 9th smallest ratios, 97.9 % coverage). A claimed gain is
# shown when the whole interval lies on its side of the target, and
# unresolved otherwise.
#
# The summary is also appended to BENCH_history.jsonl as one paired line,
# {"kind":"ab","parent","change","date","machine","pairs",["trace_pairs",]
# "workloads"}: per workload, each end-to-end metric's two medians, the
# change's wins and the per-pair ratios (`ratios`, in pair order), with
# TRACE_PAIRS above 0 the medians and wins for every declared ledger
# row under `per_layer`, the failed ops of both sides (traced runs
# included) and whether every artifact digest agreed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
source scripts/bench.sh # checkout_rev, machine_json

# `summarize <pairs> <trace-pairs> <record-file> <parent> <change> <date>
# <machine>`: the readings (see `readings` below) on stdin; prints the
# tables, writes the paired history line to <record-file>, and exits 1 on a
# quality or digest mismatch or a failed op.
summarize() {
    # BENCHMARK.json gives each metric's and ledger row's direction, and
    # each end-to-end metric's bound.
    awk -v pairs="$1" -v tpairs="$2" -v record="$3" -v parent="$4" -v change="$5" -v date="$6" -v machine="$7" '
        # Median of one side of a metric over runs <prefix>1 … <prefix><n>.
        function median(w, side, m, prefix, n,    k, i, j, t, v) {
            k = 0
            for (i = 1; i <= n; i++) if ((w, side, prefix i, m) in val) v[++k] = val[w, side, prefix i, m] + 0
            for (i = 2; i <= k; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            return k == 0 ? 0 : (k % 2 ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2)
        }
        # The sign-test interval of the median of r[1..n] (sorted): the
        # k-th smallest and k-th largest, k the largest whose two-sided
        # coverage 1 − 2·P(Bin(n, ½) < k) is still ≥ 95 % (k = 2 at ten
        # pairs: 97.9 %), else the extremes. No normality assumed.
        function sign_interval(r, n,    k, c, tail, nx) {
            k = 1; c = 1; tail = 2 ^ -n
            while (k + 1 <= n / 2) {
                c = c * (n - k + 1) / k
                nx = tail + c * 2 ^ -n
                if (1 - 2 * nx < 0.95) break
                tail = nx; k++
            }
            iv_lo = r[k]; iv_hi = r[n + 1 - k]; iv_cover = n > 1 ? 1 - 2 * tail : 0
            iv_mid = n % 2 ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2
        }
        # Runs <prefix>1 … <prefix><n> in which the change read better.
        function wins(w, m, prefix, n,    i, a, b, k) {
            k = 0
            for (i = 1; i <= n; i++) {
                a = val[w, "parent", prefix i, m]; b = val[w, "change", prefix i, m]
                if (better[m] == "lower" ? b + 0 < a + 0 : b + 0 > a + 0) k++
            }
            return k
        }
        FNR == NR {
            if ($0 ~ /"end_to_end"/) section = "e2e"
            if ($0 ~ /"per_layer"/) section = "layer"
            if (section == "" || !match($0, /"(name|better|bound)": /)) next
            if (match($0, /"name": "[^"]*"/)) {
                name = substr($0, RSTART + 9, RLENGTH - 10)
                if (section == "e2e") metrics[++n_metrics] = name
                else layers[++n_layers] = name
            }
            if (match($0, /"better": "[^"]*"/)) better[name] = substr($0, RSTART + 11, RLENGTH - 12)
            if (match($0, /"bound": [0-9.]*/)) bound[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
            next
        }
        NF < 5 { next }
        { val[$1, $2, $3, $4] = $5; if (!($1 in seen)) { seen[$1]; order[++n_workloads] = $1 } }
        END {
            bad = 0
            rec = sprintf("{\"kind\":\"ab\",\"parent\":\"%s\",\"change\":\"%s\",\"date\":\"%s\",\"machine\":%s,\"pairs\":%d,", parent, change, date, machine, pairs)
            if (tpairs > 0) rec = rec sprintf("\"trace_pairs\":%d,", tpairs)
            rec = rec "\"workloads\":{"
            for (k = 1; k <= n_workloads; k++) {
                w = order[k]
                rec = rec sprintf("%s\"%s\":{\"end_to_end\":{", k > 1 ? "," : "", w)
                printf "\n%s\n  %-15s %14s %14s %8s %6s  %-34s %s\n", w, "metric", "parent p50", "change p50", "c/p", "wins", "pair ratio p50 [sign-test interval]", "verdict"
                for (j = 1; j <= n_metrics; j++) {
                    m = metrics[j]
                    p = median(w, "parent", m, "", pairs); c = median(w, "change", m, "", pairs)
                    won = wins(w, m, "", pairs); equal = 1; ratios = ""
                    for (i = 1; i <= pairs; i++) {
                        a = val[w, "parent", i, m]; b = val[w, "change", i, m]
                        if (a != b || a != val[w, "parent", 1, m]) equal = 0
                        # A parent reading of 0 has no ratio; it counts as 0.
                        ratio[i] = a + 0 == 0 ? 0 : b / a
                        ratios = ratios sprintf("%s%.6g", i > 1 ? "," : "", ratio[i])
                    }
                    for (i = 2; i <= pairs; i++) for (q = i; q > 1 && ratio[q - 1] > ratio[q]; q--) { swap = ratio[q]; ratio[q] = ratio[q - 1]; ratio[q - 1] = swap }
                    sign_interval(ratio, pairs)
                    interval = sprintf("%.3f [%.3f, %.3f] %.1f %%", iv_mid, iv_lo, iv_hi, 100 * iv_cover)
                    rec = rec sprintf("%s\"%s\":{\"parent\":%.10g,\"change\":%.10g,\"wins\":%d,\"ratios\":[%s]}", j > 1 ? "," : "", m, p, c, won, ratios)
                    if (m == "top1_acc" || m == "mean_slowdown") {
                        verdict = equal ? "equal in every run" : "DIFFERS"
                        if (!equal) bad = 1
                        printf "  %-15s %14.6g %14.6g %8s %6s  %-34s %s\n", m, p, c, "", "", "", verdict
                        continue
                    } else {
                        worse = p == 0 ? 0 : (better[m] == "lower" ? c / p - 1 : 1 - c / p)
                        verdict = sprintf("%s bound %g (%+.1f %%)", worse > bound[m] ? "OUTSIDE" : "inside", bound[m], 100 * (p == 0 ? 0 : c / p - 1))
                    }
                    printf "  %-15s %14.6g %14.6g %8.3f %3d/%-2d  %-34s %s\n", m, p, c, p == 0 ? 0 : c / p, won, pairs, interval, verdict
                }
                rec = rec "}"
                if (tpairs > 0) {
                    rec = rec ",\"per_layer\":{"
                    printf "\n  %-44s %14s %14s %8s %6s  (%d traced pair(s))\n", "ledger row", "parent p50", "change p50", "c/p", "wins", tpairs
                    for (j = 1; j <= n_layers; j++) {
                        m = layers[j]
                        p = median(w, "parent", m, "t", tpairs); c = median(w, "change", m, "t", tpairs)
                        won = wins(w, m, "t", tpairs)
                        rec = rec sprintf("%s\"%s\":{\"parent\":%.10g,\"change\":%.10g,\"wins\":%d}", j > 1 ? "," : "", m, p, c, won)
                        if (p != 0 || c != 0) printf "  %-44s %14.6g %14.6g %8.3f %3d/%d\n", m, p, c, p == 0 ? 0 : c / p, won, tpairs
                    }
                    rec = rec "}"
                }
                fnv = val[w, "parent", 1, "fnv"]; same = 1; failed = 0
                for (i = 1; i <= pairs; i++) {
                    if (val[w, "parent", i, "fnv"] != fnv || val[w, "change", i, "fnv"] != fnv) same = 0
                    failed += val[w, "parent", i, "failed"] + val[w, "change", i, "failed"]
                    if (val[w, "parent", i, "failed"] == "" || val[w, "change", i, "failed"] == "") failed++
                }
                for (i = 1; i <= tpairs; i++) {
                    failed += val[w, "parent", "t" i, "failed"] + val[w, "change", "t" i, "failed"]
                    if (val[w, "parent", "t" i, "failed"] == "" || val[w, "change", "t" i, "failed"] == "") failed++
                }
                printf "  %-15s %s\n", "artifact_fnv", same ? "equal in every run " fnv : "DIFFERS"
                printf "  %-15s %d\n", "failed ops", failed
                rec = rec sprintf(",\"failed\":%d,\"fnv_equal\":%s}", failed, same ? "true" : "false")
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
    echo "usage: [PAIRS=5] [TRACE_PAIRS=3] $0 <parent-rev> [workload…]" >&2
    exit 2
}
parent=$(git rev-parse --verify --short "$1^{commit}")
change=$(checkout_rev)
shift
workloads=("$@")
[[ ${#workloads[@]} -gt 0 ]] || workloads=(pretrain deploy_cold serve_select serve_predict)
pairs=${PAIRS:-5}
tpairs=${TRACE_PAIRS:-3}

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
# `run_pairs <n> <trace> <run-prefix>`: every workload n times a side.
run_pairs() {
    local n=$1 trace=$2 prefix=$3 w i side order
    for w in "${workloads[@]}"; do
        for ((i = 1; i <= n; i++)); do
            order=(parent change)
            ((i % 2)) || order=(change parent)
            for side in "${order[@]}"; do
                echo "$w ${prefix}pair $i/$n: $side" >&2
                (cd "${root[$side]}" && "$work/target-$side/release/pml-benchmark" \
                    --workload "$w" --seed 1 --seconds 12 --trace "$trace") \
                    >"$work/runs/$w.$side.$prefix$i" || {
                    echo "ab: $w ${prefix}pair $i: the $side run exited $?" >&2
                    status=1
                }
            done
        done
    done
}
run_pairs "$pairs" 0 ""
run_pairs "$tpairs" 1 t

# One line per run: `<workload> <side> <run> failed <n>`, `… fnv <digests>`
# (timed runs only) and `… <metric> <value>` for each metric of the run's
# last line; timed runs are numbered 1…PAIRS, traced ones t1…tTRACE_PAIRS.
readings() {
    local w side run last digests
    for w in "${workloads[@]}"; do
        for side in parent change; do
            for run in $(seq 1 "$pairs") $(seq -f 't%g' 1 "$tpairs"); do
                last=$(tail -n 1 "$work/runs/$w.$side.$run")
                echo "$w $side $run failed $(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$last")"
                if [[ $run != t* ]]; then
                    digests=$(sed -n 's/^note: artifact_fnv=//p' "$work/runs/$w.$side.$run" | tr -d ' ')
                    echo "$w $side $run fnv ${digests:-none}"
                fi
                grep -o '"[a-z0-9_.]*":{"value":[^,]*' <<<"$last" |
                    sed "s/^\"\(.*\)\":{\"value\":/$w $side $run \1 /"
            done
        done
    done
}

echo "A/B parent $parent vs $change," \
    "$pairs pair(s) a workload at --trace 0 and $tpairs at --trace 1, --seed 1 --seconds 12"
readings | summarize "$pairs" "$tpairs" "$work/record" "$parent" "$change" "$(date -u +%FT%TZ)" \
    "$(machine_json)" || status=1
cat "$work/record" >>BENCH_history.jsonl
echo "appended the paired summary to BENCH_history.jsonl" >&2
exit "$status"
