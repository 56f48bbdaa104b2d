#!/usr/bin/env sh
# Non-test source lines, per crate and in total: the count ROADMAP.md's
# line targets use. A file counts its lines before its first `#[cfg(test)]`;
# every `.rs` file under `crates/*/src` is counted. `crates/bench` (the
# experiment binaries and the wall-clock benchmark package) is listed on its
# own line and left out of the product total.
#
#   scripts/loc.sh           per crate, product total, bench
#   scripts/loc.sh --files   the same, preceded by one line per file
set -eu

cd "$(dirname "$0")/.."

files=$(find crates/*/src -name '*.rs' | LC_ALL=C sort)
# shellcheck disable=SC2086
counts=$(awk '
    FNR == 1 { done = 0; lines[FILENAME] = 0 }
    /#\[cfg\(test\)\]/ { done = 1 }
    !done { lines[FILENAME]++ }
    END { for (f in lines) print lines[f], f }
' $files | LC_ALL=C sort -k2)

if [ "${1:-}" = "--files" ]; then
    echo "$counts" | awk '{ printf "%7d  %s\n", $1, $2 }'
    echo
fi

echo "$counts" | awk '
    {
        split($2, part, "/")
        crate = part[2]
        n[crate] += $1
        if (crate != "bench") total += $1
    }
    END {
        for (c in n) if (c != "bench") printf "%7d  crates/%s\n", n[c], c | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d  total (product, crates/bench excluded)\n", total
        printf "%7d  crates/bench\n", n["bench"]
    }
'
