#!/usr/bin/env bash
# The byte-identity gate for refactors: every `hsim-bench <name> --smoke`
# stdout and every BENCH_<name>.json must be identical between
# <parent-rev> and the working tree, under `--coherence msi` and
# `--coherence mesi` (the default). The outputs hold only simulated
# numbers, so they compare raw.
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

parent_bin=$work/target-parent/release/hsim-bench
change_bin=$work/target-change/release/hsim-bench
run_tree() { # <hsim-bench binary> <output dir> <leg>
    mkdir -p "$2"
    (
        cd "$2"
        for name in $NAMES; do
            "$1" "$name" --smoke --coherence "$3" >"$name.out"
        done
    )
}

status=0
for leg in msi mesi; do
    run_tree "$parent_bin" "$work/out/$leg/parent" "$leg" &
    parent_job=$!
    run_tree "$change_bin" "$work/out/$leg/change" "$leg"
    wait "$parent_job"
    if diff -r "$work/out/$leg/parent" "$work/out/$leg/change"; then
        echo "byte-identity: --coherence $leg identical ($(ls "$work/out/$leg/change" | wc -l) files)"
    else
        echo "byte-identity: --coherence $leg DIFFERS from $rev" >&2
        status=1
    fi
done

if [ "$status" = 0 ]; then
    rm -rf "$work"
else
    echo "byte-identity: outputs kept in $work" >&2
fi
exit "$status"
