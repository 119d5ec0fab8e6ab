#!/usr/bin/env bash
# The count ROADMAP aim 2 ("the least code") is judged by, the same way
# every time: per product source file (crates/*/src and src; the offline
# shims sit a level deeper, under crates/shims/*/src, and are not product
# code) the lines before its test module — the first unindented
# `#[cfg(test)]` that a `mod` follows — then a total per crate and for
# the workspace. A file that another declares as `#[cfg(test)] mod
# <name>;` is all tests and is left out.
#
#   tools/loc.sh [<rev>]
#
# With <rev> every line also shows the delta against that revision's
# `git archive` (files that exist on one side only count as 0 on the
# other). Exits 1 if a file exceeds 1 000 non-test lines (ROADMAP's
# target).
set -euo pipefail

limit=1000
root=$(git rev-parse --show-toplevel)

count_tree() { # <tree root>: prints "<lines> <crate> <file>" per product file
    (
        cd "$1"
        find crates/*/src src -name '*.rs' | sort |
            xargs awk '
                function flush() { if (file != "") lines[file] = cut ? cut : n }
                FNR == 1 { flush(); file = FILENAME; order[++files] = file; cut = 0; pending = 0 }
                { n = FNR }
                pending && /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ {
                    # `#[cfg(test)] mod x;`: x.rs beside this file or in its directory.
                    name = $0; sub(/;.*/, "", name); sub(/.* /, "", name)
                    dir = file; sub(/[^\/]*$/, "", dir)
                    stem = file; sub(/\.rs$/, "", stem)
                    tests[dir name ".rs"] = tests[stem "/" name ".rs"] = 1
                }
                pending && /^(pub(\([a-z]+\))? )?mod / && !cut { cut = FNR - 2 }
                { pending = /^#\[cfg\(test\)\]$/ }
                END {
                    flush()
                    for (i = 1; i <= files; i++) {
                        f = order[i]
                        if (f in tests) continue
                        crate = f; if (crate ~ /^crates\//) { sub(/^crates\//, "", crate); sub(/\/.*/, "", crate) } else crate = "hsim"
                        print lines[f], crate, f
                    }
                }'
    )
}

now=$(mktemp) && then=$(mktemp)
trap 'rm -rf "$now" "$then" "${old:-}"' EXIT
count_tree "$root" >"$now"
if [ $# -ge 1 ]; then
    old=$(mktemp -d)
    git -C "$root" archive "$1" | tar -x -C "$old"
    count_tree "$old" >"$then"
fi

awk -v limit="$limit" -v rev="${1:-}" '
    function delta(a, b) { return rev == "" ? "" : sprintf("  %+6d", a - b) }
    FILENAME == ARGV[1] { was[$3] = $1; was_crate[$2] += $1; was_total += $1; next }
    !($2 in crate) { crate_name[++crates] = $2 }
    { is[$3] = $1; crate[$2] += $1; total += $1; names[++n] = $3 }
    END {
        for (f in was) if (!(f in is)) { names[++n] = f; is[f] = 0 }
        for (c in was_crate) if (!(c in crate)) { crate_name[++crates] = c; crate[c] = 0 }
        for (i = 1; i <= n; i++) {
            f = names[i]
            flag = is[f] > limit ? "  <-- over " limit : ""
            if (flag != "") over++
            printf "%6d%s  %s%s\n", is[f], delta(is[f], was[f]), f, flag
        }
        print ""
        for (i = 1; i <= crates; i++) {
            c = crate_name[i]
            printf "%6d%s  [%s]\n", crate[c], delta(crate[c], was_crate[c]), c
        }
        printf "%6d%s  workspace\n", total, delta(total, was_total)
        if (over) { printf "%d file(s) over %d non-test lines\n", over, limit; exit 1 }
    }' "$then" "$now"
