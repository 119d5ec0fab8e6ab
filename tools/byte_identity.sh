#!/usr/bin/env bash
# The byte-identity gate for refactors: every `hsim-bench <name> --smoke`
# stdout and every BENCH_<name>.json must be identical between
# <parent-rev> and the working tree, under HSIM_COHERENCE unset and
# =mesi. Only the `clusters` host timings may differ; they are stripped.
#
#   tools/byte_identity.sh <parent-rev>
#
# Exits 0 when nothing differs; otherwise prints the diffs, keeps the
# scratch directory (under $TMPDIR) for inspection and exits 1.
set -euo pipefail

rev=${1:?usage: tools/byte_identity.sh <parent-rev>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d -t hsim-byte-identity.XXXXXX)

NAMES="table1 table2 table3 fig7 fig8 fig9 fig10 ablate backside scaling \
coherence hetero clusters faults comm figshapes"

# The parent's committed files, without touching this checkout.
mkdir "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"

build() { # <source dir> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline -q -p hsim-bench \
        --manifest-path "$1/Cargo.toml"
}
build "$work/parent" "$work/target-parent"
build "$root" "$work/target-change"

# Blanks what legitimately differs between two runs of `clusters`: the
# host wall-clocks, their ratio and the host's CPU count.
strip_host_timings() { # <dir>
    sed -E -i \
        -e 's/host parallelism = [0-9]+/host parallelism = N/' \
        -e 's/( +[0-9]+\.[0-9]{3}){2} +[0-9]+\.[0-9]{2}x$//' \
        "$1/clusters.out"
    sed -E -i \
        -e 's/"host_parallelism": [0-9]+/"host_parallelism": N/' \
        -e 's/, "host_seconds_serial": [^,]+, "host_seconds_threaded": [^,]+, "thread_speedup": [^,}]+//' \
        "$1/BENCH_clusters.json"
}

run_tree() { # <hsim-bench binary> <output dir>
    mkdir -p "$2"
    (
        cd "$2"
        for name in $NAMES; do
            "$1" "$name" --smoke >"$name.out"
        done
    )
    strip_host_timings "$2"
}

status=0
for leg in unset mesi; do
    if [ "$leg" = unset ]; then unset HSIM_COHERENCE; else export HSIM_COHERENCE=$leg; fi
    run_tree "$work/target-parent/release/hsim-bench" "$work/out/$leg/parent" &
    parent_job=$!
    run_tree "$work/target-change/release/hsim-bench" "$work/out/$leg/change"
    wait "$parent_job"
    if diff -r "$work/out/$leg/parent" "$work/out/$leg/change"; then
        echo "byte-identity: HSIM_COHERENCE=$leg identical ($(ls "$work/out/$leg/change" | wc -l) files)"
    else
        echo "byte-identity: HSIM_COHERENCE=$leg DIFFERS from $rev" >&2
        status=1
    fi
done

if [ "$status" = 0 ]; then
    rm -rf "$work"
else
    echo "byte-identity: outputs kept in $work" >&2
fi
exit "$status"
