#!/usr/bin/env bash
# The repo's benchmark: builds hsim-benchmark in release mode and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]              every workload; writes benchmark/out/result-*.json
#   benchmark/run.sh compare A.json B.json                           judge B against A
#   benchmark/run.sh --probe                                         re-run the known failure
#
# The build goes to $CARGO_TARGET_DIR (default: benchmark/target). Build
# output goes to stderr so the last line of stdout stays the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

case "${1:-}" in
compare | --probe) exec "$CARGO_TARGET_DIR/release/hsim-benchmark" "$@" ;;
*) exec "$CARGO_TARGET_DIR/release/hsim-benchmark" --out-dir "$here/out" "$@" ;;
esac
