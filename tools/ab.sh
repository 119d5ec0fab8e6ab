#!/usr/bin/env bash
# The alternating-pairs protocol of the repository benchmark as one
# command: <parent-rev> against the working tree, both built from source
# into their own target directories, run by run on the same host.
#
#   tools/ab.sh <parent-rev> [--workload W]... [--pairs 10] [--seconds 28] [--seed-base 1000]
#   tools/ab.sh <parent-rev> --exact [--workload W]... [--seed-base 1000] [--seconds S]
#
# Timed mode runs `hsim-benchmark --workload W --seed S --seconds T
# --trace 0` for seeds seed-base+1 ... seed-base+pairs, alternating which
# side runs first, and prints per workload and end-to-end metric each
# side's median and quartiles, the change of the median, the pairs the
# change won (ties count for neither side) and a verdict by the rule of
# the choosing-metrics guide, section 8:
#
#   gain        the change wins >= 9/10 of the pairs and the medians
#               differ by more than the parent's inter-quartile distance
#   WORSE       the change's median is worse by more than the metric's
#               bound in BENCHMARK.json
#   unresolved  neither, and the parent's inter-quartile distance is wider
#               than the bound (unless every run of the change beats
#               every run of the parent)
#   no worse    everything else
#
# It exits 1 if `sim_cycles` differs between the sides on any seed, an
# operation failed, or a run was not correct. Pick seeds nobody developed
# on.
#
# --exact runs one `--smoke --trace 1` per workload and side at seed
# seed-base (full scale for S seconds when --seconds is given) and exits
# 1 on any difference in a metric whose unit is count, cycles, ratio or
# % — what the simulated machine did, free of host noise, so a gate at
# 0 %. (`trace.overhead_ratio` is a quotient of host times and exempt.)
# Four of those metrics count what the *host scheduler* did to cover the
# machine's cycles — core.ticks, core.advances, machine.horizon_scans,
# core.skipped_fraction — and are compared by the direction
# BENCHMARK.json declares instead: parent -> change is printed, and only
# one that got worse fails.
#
# Scratch goes under $TMPDIR and is removed unless the script fails.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/p' "${BASH_SOURCE[0]}" | sed -e '$d' -e 's/^# \{0,1\}//' >&2
    exit 2
}

rev=${1:-}
[ -n "$rev" ] && [ "${rev#--}" = "$rev" ] || usage
shift
workloads=()
pairs=10
seconds=
seed_base=1000
exact=0
while [ $# -gt 0 ]; do
    case $1 in
    --workload) workloads+=("${2:?--workload needs a name}") && shift 2 ;;
    --pairs) pairs=${2:?--pairs needs a count} && shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a number} && shift 2 ;;
    --seed-base) seed_base=${2:?--seed-base needs a number} && shift 2 ;;
    --exact) exact=1 && shift ;;
    *) usage ;;
    esac
done

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d -t hsim-ab.XXXXXX)

# The names the benchmark declares: one section of BENCHMARK.json.
declared() { # <section>
    sed -n "/\"$1\"/,/\]/p" "$root/BENCHMARK.json" | sed -n 's/.*"name": "\([^"]*\)".*/\1/p'
}
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(declared workloads)

# The parent's committed files, without touching this checkout.
mkdir "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"

build() { # <source dir> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$work/parent" "$work/target-parent"
build "$root" "$work/target-change"

# One run of one side; stdout is kept, the verdict line checked.
failed=0
run() { # <side> <workload> <seed> <mode arguments>...
    local side=$1 wl=$2 seed=$3 out
    shift 3
    out=$work/runs/$side-$wl-$seed.txt
    mkdir -p "$work/runs"
    if ! "$work/target-$side/release/hsim-benchmark" --workload "$wl" --seed "$seed" "$@" \
        --out-dir "$work/out-$side" >"$out" 2>"$out.err"; then
        echo "ab: $side $wl seed $seed exited non-zero (see $out.err)" >&2
        failed=1
    fi
    if [ "$(awk '$1 == "ops_failed" { print $2 }' "$out")" != 0 ] ||
        ! tail -n 1 "$out" | grep -q '"correct": true'; then
        echo "ab: $side $wl seed $seed: operations failed or the run was not correct" >&2
        failed=1
    fi
}

# The value a run printed for a metric.
value() { # <file> <metric>
    awk -v m="$2" '$1 == m { print $2 }' "$1"
}

if [ "$exact" = 1 ]; then
    if [ -n "$seconds" ]; then mode=(--seconds "$seconds"); else mode=(--smoke); fi
    scheduler=" core.ticks core.advances machine.horizon_scans core.skipped_fraction "
    for wl in "${workloads[@]}"; do
        for side in parent change; do
            run "$side" "$wl" "$seed_base" "${mode[@]}" --trace 1
        done
        # name, value, unit of every host-noise-free metric, side by side:
        # the machine's in .exact, the scheduler's in .sched.
        for side in parent change; do
            for kind in exact sched; do
                awk -v scheduler="$scheduler" -v kind="$kind" '
                    ($3 == "count" || $3 == "cycles" || $3 == "ratio" || $3 == "%") &&
                    $1 != "trace.overhead_ratio" &&
                    (index(scheduler, " " $1 " ") > 0) == (kind == "sched") { print $1, $2, $3 }' \
                    "$work/runs/$side-$wl-$seed_base.txt" >"$work/runs/$side-$wl.$kind"
            done
        done
        if diff "$work/runs/parent-$wl.exact" "$work/runs/change-$wl.exact" >"$work/runs/$wl.diff"; then
            echo "ab --exact: $wl: $(wc -l <"$work/runs/change-$wl.exact") simulated counters identical to $rev"
        else
            echo "ab --exact: $wl: simulated counters DIFFER from $rev (< parent, > change):" >&2
            cat "$work/runs/$wl.diff" >&2
            failed=1
        fi
        while read -r metric p c; do
            better=$(sed -n "s/.*\"name\": \"$metric\".*\"better\": \"\([a-z]*\)\".*/\1/p" "$root/BENCHMARK.json")
            verdict=$(awk -v p="$p" -v c="$c" -v better="$better" 'BEGIN {
                worse = (better == "lower" ? 1 : -1) * (c - p)
                print(worse > 0 ? "WORSE" : worse < 0 ? "better" : "equal") }')
            echo "ab --exact: $wl: scheduler $metric $p -> $c ($better is better): $verdict"
            [ "$verdict" != WORSE ] || failed=1
        done < <(paste -d' ' "$work/runs/parent-$wl.sched" "$work/runs/change-$wl.sched" | awk '{ print $1, $2, $5 }')
    done
    [ "$failed" = 0 ] && rm -rf "$work" || echo "ab: outputs kept in $work" >&2
    exit "$failed"
fi

seconds=${seconds:-28}
for ((i = 1; i <= pairs; i++)); do
    seed=$((seed_base + i))
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for wl in "${workloads[@]}"; do
        for side in $order; do
            run "$side" "$wl" "$seed" --seconds "$seconds" --trace 0
        done
        p=$(value "$work/runs/parent-$wl-$seed.txt" sim_cycles)
        c=$(value "$work/runs/change-$wl-$seed.txt" sim_cycles)
        if [ "$p" != "$c" ]; then
            echo "ab: $wl seed $seed: sim_cycles $p (parent) != $c (change)" >&2
            failed=1
        fi
        echo "ab: pair $i/$pairs $wl seed $seed: wall_s" \
            "$(value "$work/runs/parent-$wl-$seed.txt" wall_s) ->" \
            "$(value "$work/runs/change-$wl-$seed.txt" wall_s)" >&2
    done
done

echo "ab: $rev -> working tree, $pairs alternating pairs, seeds $((seed_base + 1))..$((seed_base + pairs)), --seconds $seconds, nproc $(nproc)"
printf '%-16s %-18s %-32s %-32s %8s %6s  %s\n' \
    workload metric "parent median [q1, q3]" "change median [q1, q3]" "delta" "wins" verdict
for wl in "${workloads[@]}"; do
    # Per end-to-end metric: its direction and bound, then the pairs.
    sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" |
        sed -n 's/.*"name": "\([^"]*\)".*"better": "\([^"]*\)", "bound": \([0-9.]*\).*/\1 \2 \3/p' |
        while read -r metric better bound; do
            for ((i = 1; i <= pairs; i++)); do
                seed=$((seed_base + i))
                echo "$(value "$work/runs/parent-$wl-$seed.txt" "$metric")" \
                    "$(value "$work/runs/change-$wl-$seed.txt" "$metric")"
            done | awk -v wl="$wl" -v metric="$metric" -v better="$better" -v bound="$bound" '
                function quantile(v, n, p,    h, lo) { # v[1..n] sorted
                    h = (n - 1) * p + 1; lo = int(h)
                    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
                }
                function num(x) { return x == int(x) ? sprintf("%d", x) : sprintf(x < 1e6 ? "%.6g" : "%.1f", x) }
                function sorted(src, dst, n,    i, j, t) {
                    for (i = 1; i <= n; i++) dst[i] = src[i]
                    for (i = 2; i <= n; i++)
                        for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                            t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                        }
                }
                { n++; p[n] = $1; c[n] = $2 }
                END {
                    sign = better == "lower" ? 1 : -1 # worse = larger * sign
                    for (i = 1; i <= n; i++) {
                        if (sign * c[i] < sign * p[i]) wins++
                        else if (c[i] != p[i]) losses++
                    }
                    sorted(p, ps, n); sorted(c, cs, n)
                    pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
                    p1 = quantile(ps, n, 0.25); p3 = quantile(ps, n, 0.75)
                    c1 = quantile(cs, n, 0.25); c3 = quantile(cs, n, 0.75)
                    iqr = p3 - p1
                    worse = sign * (cm - pm) # > 0: the change is worse
                    # Every run of the change better than every run of the parent.
                    clear = sign > 0 ? cs[n] < ps[1] : cs[1] > ps[n]
                    if (wins >= 0.9 * n && -worse > iqr) verdict = "gain"
                    else if (pm != 0 && worse / pm > bound) verdict = "WORSE"
                    else if (pm != 0 && iqr / pm > bound && !clear) verdict = "unresolved"
                    else verdict = "no worse"
                    printf "%-16s %-18s %-32s %-32s %+7.1f%% %3d/%-2d  %s\n", wl, metric,
                        num(pm) " [" num(p1) ", " num(p3) "]",
                        num(cm) " [" num(c1) ", " num(c3) "]",
                        pm != 0 ? 100 * (cm - pm) / pm : 0, wins, n, verdict
                }'
        done
done

[ "$failed" = 0 ] && rm -rf "$work" || echo "ab: outputs kept in $work" >&2
exit "$failed"
