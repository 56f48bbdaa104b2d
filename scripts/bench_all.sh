#!/usr/bin/env sh
# Regenerates every committed benchmark artifact (BENCH_*.json) from
# release binaries. Run after any executor, cache, or fleet change that
# moves a modeled number, then update the floors pinned in the
# tests/*_smoke.rs guards if the new numbers shifted legitimately.
#
# `bench_all.sh --check` is the freshness gate scripts/verify.sh runs: it
# regenerates the bit-reproducible artifacts into a scratch directory (the
# binaries write relative to the working directory) and compares them with
# the committed files. A change that moves one commits the regenerated file.
set -eu

cd "$(dirname "$0")/.."
root=$PWD

# The one list of experiments. Same seed, same bytes:
REPRODUCIBLE="resultcache fleet placement advisor"
# Carry wall-clock readings, so they are regenerated but never compared:
WALL_CLOCK="concurrency"

run() {
    cargo run --release -q --manifest-path "$root/Cargo.toml" -p mtc-bench --bin "exp_$1"
}

if [ "${1:-}" = "--check" ]; then
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' EXIT
    for exp in $REPRODUCIBLE; do
        echo "==> exp_$exp (fresh?)"
        (cd "$scratch" && run "$exp" >/dev/null)
        cmp "$scratch/BENCH_$exp.json" "BENCH_$exp.json" || {
            echo "BENCH_$exp.json is stale: run scripts/bench_all.sh and commit the result" >&2
            exit 1
        }
    done
    echo "bench_all --check: OK"
    exit 0
fi

for exp in $WALL_CLOCK $REPRODUCIBLE; do
    echo "==> exp_$exp"
    run "$exp"
done

echo "bench_all: OK"
