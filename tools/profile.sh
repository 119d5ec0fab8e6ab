#!/usr/bin/env bash
# Where the host time of one benchmark workload goes, by function and by
# pipeline stage, from clock sampling.
#
#   tools/profile.sh <workload> [seconds]     (seconds: default 28)
#
# Builds `hsim-benchmark` from this checkout with line tables into a
# target directory of its own under $TMPDIR (nothing is written under
# benchmark/), runs `--workload W --seed 1 --seconds S --trace 0` under
# `gprofng collect app`, and prints
#
#   * the share of samples per function (exclusive, top 25), as gprofng
#     names them: a function inlined into its caller counts for the
#     caller;
#   * the share per stage: each sampled PC is resolved with
#     `addr2line -i` to its chain of inlined frames, and the innermost
#     frame that names a stage decides — memory-port (code of hsim-mem,
#     the coherence crate and the machine's `MemoryPort`), dispatch,
#     wake, select, commit, fetch, scheduler — else `tick` for the rest
#     of `Core::tick`, else `other`;
#   * the hot source lines (top 20): each sampled PC's innermost inlined
#     frame, `file:line` and function, so a stall on one load or store
#     shows up although the stage table spreads it over its stage.
#
# Clock sampling can deliver far fewer samples than its nominal rate
# (about ten per second of run time on a 2-CPU VM), so give it the
# benchmark's full 28 s; shares move by a few points from run to run.
# The experiment and the build stay in $TMPDIR/hsim-profile.
set -euo pipefail

wl=${1:?usage: tools/profile.sh <workload> [seconds]}
seconds=${2:-28}
root=$(git rev-parse --show-toplevel)
work=${TMPDIR:-/tmp}/hsim-profile
mkdir -p "$work"
export CARGO_TARGET_DIR=$work/target
RUSTFLAGS=-Cdwarf-version=4 CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" 2>/dev/null
bin=$CARGO_TARGET_DIR/release/hsim-benchmark

exp=$work/$wl.er
rm -rf "$exp" "$work/out"
gprofng collect app -o "$exp" -p on "$bin" --workload "$wl" --seed 1 --seconds "$seconds" \
    --trace 0 --out-dir "$work/out" >"$work/$wl.run.txt" 2>&1 ||
    { cat "$work/$wl.run.txt" >&2; exit 1; }
grep -E '^(sim_mcycles_per_s|sim_minstr_per_s|wall_s) ' "$work/$wl.run.txt" || true

echo "== functions (exclusive share of samples)"
gprofng display text -metrics e.%totalcpu:name -functions "$exp" 2>/dev/null |
    awk '/<Total>/ { go = 1; next } go && NF { print }' | head -n 25

# Per sampled PC: seconds, load object, file offset. gprofng prints the
# offset into the object file; addr2line wants the virtual address, which
# is the offset plus its LOAD segment's (vaddr - offset).
gprofng display text -metrics e.totalcpu:address:name -pcs "$exp" 2>/dev/null |
    awk '$2 ~ /^[0-9]+:0x/ && $3 != "<Total>" { split($2, a, ":"); print $1, a[1], a[2], ($0 ~ /hsim/) }' \
        >"$work/$wl.pcs"
# The binary is the object most of the hsim-named PCs belong to.
obj=$(awk '$4 { n[$2] += 1 } END { for (o in n) if (n[o] > best) { best = n[o]; pick = o } print pick }' "$work/$wl.pcs")
hex='function hex(s,    n, i) {
    s = tolower(s); sub(/^0x/, "", s)
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}'
readelf -lW "$bin" | awk "$hex"' $1 == "LOAD" { print hex($2), hex($3), hex($5) }' >"$work/segments"
awk -v obj="$obj" "$hex"' NR == FNR { off[NR] = $1; va[NR] = $2; len[NR] = $3; segs = NR; next }
    $2 == obj {
        o = hex($3)
        for (s = 1; s <= segs; s++) if (o >= off[s] && o < off[s] + len[s]) { printf "0x%x\n", o - off[s] + va[s]; next }
        print "0x0"
    }' "$work/segments" "$work/$wl.pcs" >"$work/$wl.addrs"

# One line per PC, in the order of $wl.pcs: the stage its inline chain
# names. addr2line -a prints each address, then a function line and a
# file:line line per frame, innermost first. Code whose file lies in
# hsim-mem, the coherence crate or the machine is the memory port, under
# whatever pipeline frame inlined it; a frame named `tick` only decides
# when no frame inside it names a stage.
addr2line -a -i -f -C -e "$bin" <"$work/$wl.addrs" |
    awk -v root="$root/" -v lines="$work/$wl.lines" '
        # The name without the generic arguments it ends in, if any.
        function bare(fn,    i, depth, c) {
            if (fn !~ />$/) return fn
            for (i = length(fn); i > 0; i--) {
                c = substr(fn, i, 1)
                if (c == ">") depth++
                else if (c == "<" && --depth == 0) return substr(fn, 1, i - 1)
            }
            return fn
        }
        function stage(fn, loc,    base, last) {
            base = bare(fn)
            if (loc ~ /crates\/(mem|coherence)\/|\/src\/machine\.rs/ || base ~ /hsim_mem::|hsim_coherence::|hsim::machine::/)
                return "memory-port"
            last = base; sub(/.*::/, "", last)
            if (last ~ /^(wake_dependents|park)$/) return "wake"
            if (last ~ /^(issue|select|try_issue|load_disambiguate|find_blocker)$/) return "select"
            if (last ~ /^(dispatch|exec_functional|write_int|write_fp|effective_addr)$/) return "dispatch"
            if (last == "commit") return "commit"
            if (last ~ /^(fetch|predict_next)$/ || base ~ /BranchPredictor|Btb|Ras/) return "fetch"
            if (base ~ /sched::/ || last ~ /^(run_until|next_event_at|skip_target|advance_to|tick_classified|progress_certain|progress_fingerprint|commit_ready|is_blocked_load)$/)
                return "scheduler"
            if (last == "tick") ticked = 1
            return ""
        }
        function flush() {
            if (!n) return
            print (got != "" ? got : ticked ? "tick" : "other")
            print (inner != "" ? inner : "??") >lines
        }
        /^0x/ { flush(); n++; got = ""; ticked = 0; fn = ""; inner = ""; next }
        fn == "" { fn = $0; next }
        {
            # The innermost frame: where the sampled instruction is.
            if (inner == "") {
                loc = $0; sub(/ \(discriminator [0-9]+\)$/, "", loc)
                if (index(loc, root) == 1) loc = substr(loc, length(root) + 1)
                inner = loc "  " bare(fn)
            }
            if (got == "") got = stage(fn, $0); fn = ""
        }
        END { flush() }' >"$work/$wl.stages"

echo "== stages (share of the binary's samples)"
awk -v obj="$obj" '$2 == obj { print $1 }' "$work/$wl.pcs" | paste -d' ' - "$work/$wl.stages" |
    awk '{ t[$2] += $1; total += $1 }
        END { for (k in t) printf "%6.1f %%  %s\n", 100 * t[k] / total, k }' | sort -nr

echo "== hot source lines (innermost inlined frame, share of the binary's samples, top 20)"
awk -v obj="$obj" '$2 == obj { print $1 }' "$work/$wl.pcs" | paste -d'\t' - "$work/$wl.lines" |
    awk -F'\t' '{ t[$2] += $1; total += $1 }
        END { for (k in t) printf "%6.1f %%  %s\n", 100 * t[k] / total, k }' | sort -nr | head -n 20
echo "($(awk -v obj="$obj" '$2 == obj { s += $1 } END { printf "%.1f", s }' "$work/$wl.pcs") s of samples in the binary; experiment: $exp)"
