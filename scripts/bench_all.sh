#!/usr/bin/env sh
# Regenerates the bit-reproducible benchmark artifacts (BENCH_*.json and
# EXPERIMENTS.md) from release binaries. Run after any executor, cache, or
# fleet change that moves a modeled number, then update the floors pinned
# in the tests/*_smoke.rs guards if the new numbers shifted legitimately.
# `bench_all.sh <name>…` runs only the named experiments: the wall-clock
# BENCH_concurrency.json is rewritten only by `bench_all.sh concurrency`.
#
# `bench_all.sh --check` is the freshness gate scripts/verify.sh runs: it
# regenerates the bit-reproducible artifacts into a scratch directory (the
# binaries write relative to the working directory) and compares them with
# the committed files, EXPERIMENTS.md (which exp_paper generates beside
# BENCH_paper.json) included. A change that moves one commits the
# regenerated file.
set -eu

cd "$(dirname "$0")/.."
root=$PWD

# The experiments a bare run regenerates and --check compares. Same seed,
# same bytes:
REPRODUCIBLE="paper resultcache fleet placement advisor"

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
    cmp "$scratch/EXPERIMENTS.md" EXPERIMENTS.md || {
        echo "EXPERIMENTS.md is stale: run scripts/bench_all.sh and commit the result" >&2
        exit 1
    }
    echo "bench_all --check: OK"
    exit 0
fi

for exp in ${*:-$REPRODUCIBLE}; do
    echo "==> exp_$exp"
    run "$exp"
done

echo "bench_all: OK"
