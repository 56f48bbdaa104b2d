#!/usr/bin/env sh
# Runs the wall-clock benchmark as alternating parent/change pairs and tells
# whether a claimed gain holds.
#
#   scripts/bench_pairs.sh <parent-rev> [pairs] [workload...]
#
# Builds mtc_benchmark from two git worktrees, <parent-rev> and the committed
# HEAD, into separate target directories, then runs `pairs` (default 10)
# pairs per workload (default: the workloads BENCHMARK.json lists), each run
# at BENCHMARK.json's run_seconds, on seeds it prints. Within a pair both
# sides run the same seed; the side that runs first alternates.
#
# For every workload and end-to-end metric it reports each side's median
# [q1 - q3], how many pairs the change won, and whether the claim rule holds:
# the change wins at least 9 pairs in 10 and its median beats the parent's
# by more than the parent's interquartile range. It also reports whether
# backend_rtts_per_op repeats bit for bit within every pair, and where it
# does not, each pair's parent -> change values and in how many pairs the
# change is lower (a change that claims this metric moves it on purpose). It
# prints `order`'s throughput and peak_rss_mb deltas side by side
# (peak_rss_mb grows with the operations a run completes), and warns when
# `fleet_adhoc` passes 45 k ops/s or `hotpoint` passes 550 k ops/s, where the
# benchmark's latency sample buffer fills and latency_p50_us stops being read
# from every slice.
#
# Worktrees and target directories live in a temporary directory ($TMPDIR)
# that is removed on exit. Needs only git, cargo, POSIX sh and awk.
set -eu

usage() {
    echo "usage: scripts/bench_pairs.sh <parent-rev> [pairs] [workload...]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
cd "$(dirname "$0")/.."
root=$PWD
parent=$(git rev-parse --verify "$1^{commit}") || usage
change=$(git rev-parse --verify HEAD)
shift
pairs=10
if [ $# -ge 1 ]; then
    case $1 in
        '' | *[!0-9]*) ;;
        *)
            pairs=$1
            shift
            ;;
    esac
fi
[ "$pairs" -ge 1 ] || usage

# The contract: run length, gated workloads, end-to-end metrics (name and
# which direction is better).
seconds=$(awk '/"run_seconds"/ { v = $0; sub(/^[^:]*:[ \t]*/, "", v); sub(/[^0-9].*$/, "", v); print v }' BENCHMARK.json)
if [ $# -eq 0 ]; then
    set -- $(awk '
        /"workloads"[ \t]*:/ { inside = 1; next }
        inside && /^[ \t]*\],?[ \t]*$/ { inside = 0 }
        inside && /"name"[ \t]*:/ { v = $0; sub(/^[^:]*:[ \t]*"/, "", v); sub(/".*$/, "", v); print v }
    ' BENCHMARK.json)
fi
metrics=$(awk '
    /"end_to_end"[ \t]*:/ { inside = 1; next }
    inside && /^[ \t]*\],?[ \t]*$/ { inside = 0 }
    inside && /"name"[ \t]*:/ { name = $0; sub(/^[^:]*:[ \t]*"/, "", name); sub(/".*$/, "", name) }
    inside && /"better"[ \t]*:/ { v = $0; sub(/^[^:]*:[ \t]*"/, "", v); sub(/".*$/, "", v); printf "%s:%s ", name, v }
' BENCHMARK.json)

work=$(mktemp -d)
cleanup() {
    for side in parent change; do
        if [ -d "$work/$side" ]; then
            git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
        fi
    done
    git -C "$root" worktree prune || true
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git worktree add --detach -q "$work/parent" "$parent"
git worktree add --detach -q "$work/change" "$change"
for side in parent change; do
    echo "==> building mtc_benchmark at $side ($(git -C "$work/$side" log --oneline -1))"
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release -q \
        --manifest-path "$work/$side/crates/bench/src/bin/mtc_benchmark/Cargo.toml"
done

# One seed per pair, fresh each invocation, so a claim is never measured on
# the seeds a change was tuned on.
base=$(($(od -An -N4 -tu4 /dev/urandom | tr -d ' ') % 1000000000))
echo "==> $pairs pairs x $seconds s per workload ($*); seeds $base..$((base + pairs - 1))"

results="$work/results"
: >"$results"
# run <workload> <side> <pair> <seed>: one benchmark run, its result line
# flattened into "workload side pair seed key value" records.
run() {
    line=$(cd "$work" && "$work/target-$2/release/mtc_benchmark" \
        --workload "$1" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1) || true
    echo "$line" | awk -v w="$1" -v side="$2" -v pair="$3" -v seed="$4" -v metrics="$metrics" '
        function field(key,   i, rest) {
            i = index($0, key)
            if (i == 0) return "nan"
            rest = substr($0, i + length(key))
            sub(/[,}].*$/, "", rest)
            return rest
        }
        {
            n = split(metrics, ms, " ")
            for (k = 1; k <= n; k++) {
                split(ms[k], nb, ":")
                print w, side, pair, seed, nb[1], field("\"" nb[1] "\": {\"value\": ")
            }
            print w, side, pair, seed, "correct", field("\"correct\": ")
            print w, side, pair, seed, "failed", field("\"failed\": ")
        }' >>"$results"
}

for w in "$@"; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        seed=$((base + i - 1))
        if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
        echo "    $w pair $i/$pairs seed $seed ($first first)"
        run "$w" "$first" "$i" "$seed"
        run "$w" "$second" "$i" "$seed"
        i=$((i + 1))
    done
done

awk -v metrics="$metrics" -v workloads="$*" -v pairs="$pairs" '
    function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    # Quantile q of a[1..n] (sorted), linear between order statistics.
    function quantile(a, n, q,   h, lo) {
        h = 1 + (n - 1) * q
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function pct(x, base) { return base == 0 ? 0 : 100 * (x - base) / base }
    { v[$1, $2, $3, $5] = $6; seed[$1, $3] = $4 }
    END {
        nm = split(metrics, ms, " ")
        nw = split(workloads, ws, " ")
        need = int((9 * pairs + 9) / 10)
        for (wi = 1; wi <= nw; wi++) {
            w = ws[wi]
            printf "\n%s (%d pairs; claim rule: >= %d wins and a median gap above the parent IQR)\n", w, pairs, need
            printf "  %-20s %-38s %-38s %8s %6s  %s\n", "metric", "parent median [q1 - q3]", "change median [q1 - q3]", "change", "wins", "rule"
            for (k = 1; k <= nm; k++) {
                split(ms[k], nb, ":")
                m = nb[1]; higher = nb[2] == "higher"
                wins = 0
                for (i = 1; i <= pairs; i++) {
                    p[i] = v[w, "parent", i, m] + 0; c[i] = v[w, "change", i, m] + 0
                    if (higher ? c[i] > p[i] : c[i] < p[i]) wins++
                }
                sort(p, pairs); sort(c, pairs)
                pm = quantile(p, pairs, 0.5); cm = quantile(c, pairs, 0.5)
                iqr = quantile(p, pairs, 0.75) - quantile(p, pairs, 0.25)
                gap = higher ? cm - pm : pm - cm
                printf "  %-20s %-38s %-38s %+7.1f%% %3d/%-2d  %s\n", m,
                    sprintf("%.6g [%.6g - %.6g]", pm, quantile(p, pairs, 0.25), quantile(p, pairs, 0.75)),
                    sprintf("%.6g [%.6g - %.6g]", cm, quantile(c, pairs, 0.25), quantile(c, pairs, 0.75)),
                    pct(cm, pm), wins, pairs, (wins >= need && gap > iqr) ? "holds" : "does not hold"
            }
            bad = ""; lower = 0; failed = 0
            for (i = 1; i <= pairs; i++) {
                pr = v[w, "parent", i, "backend_rtts_per_op"]; cr = v[w, "change", i, "backend_rtts_per_op"]
                if (pr != cr) bad = bad " " i
                if (cr + 0 < pr + 0) lower++
                for (s = 0; s < 2; s++) {
                    side = s ? "change" : "parent"
                    if (v[w, side, i, "correct"] != "true" || v[w, side, i, "failed"] + 0 > 0) failed++
                }
            }
            if (bad == "") print "  backend_rtts_per_op: bit-identical within every pair"
            else {
                printf "  backend_rtts_per_op: differs in pairs%s; the change is lower in %d of %d pairs\n", bad, lower, pairs
                for (i = 1; i <= pairs; i++)
                    printf "    pair %d seed %s: %s -> %s\n", i, seed[w, i], v[w, "parent", i, "backend_rtts_per_op"], v[w, "change", i, "backend_rtts_per_op"]
            }
            print "  runs with a failed operation or probe: " failed
            limit = w == "fleet_adhoc" ? 45000 : w == "hotpoint" ? 550000 : 0
            for (i = 1; limit && i <= pairs; i++)
                for (s = 0; s < 2; s++) {
                    side = s ? "change" : "parent"
                    if (v[w, side, i, "throughput_ops_s"] + 0 > limit)
                        printf "  WARNING: %s pair %d (%s) ran %.0f ops/s, above %d: the latency sample buffer fills and latency_p50_us may read 0\n", w, i, side, v[w, side, i, "throughput_ops_s"], limit
                }
            if (w == "order") {
                print "  order, per pair: throughput and peak_rss_mb, change vs parent"
                printf "    %4s %10s %12s %12s %8s %10s %10s %8s\n", "pair", "seed", "parent ops/s", "change ops/s", "delta", "parent MiB", "change MiB", "delta"
                for (i = 1; i <= pairs; i++) {
                    pt = v[w, "parent", i, "throughput_ops_s"]; ct = v[w, "change", i, "throughput_ops_s"]
                    pr = v[w, "parent", i, "peak_rss_mb"]; cr = v[w, "change", i, "peak_rss_mb"]
                    printf "    %4d %10s %12.0f %12.0f %+7.1f%% %10.1f %10.1f %+7.1f%%\n", i, seed[w, i], pt, ct, pct(ct, pt), pr, cr, pct(cr, pr)
                }
            }
        }
    }
' "$results"
