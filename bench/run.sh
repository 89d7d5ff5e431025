#!/usr/bin/env bash
# fedra-e2e: the repo's one benchmark command. Run from the repo root.
#
#   bash bench/run.sh                                   every workload, both modes, one table
#   bash bench/run.sh all --repeat 5 --save A.json      the same, five seeds, results in A.json
#   bash bench/run.sh compare A.json B.json             ok / regressed / unresolved per (metric, workload)
#   bash bench/run.sh test                              the harness's own unit tests
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                       one run; last stdout line is the result JSON
#
# Any failed correctness gate makes the command exit non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The workloads run at product defaults: no knob may leak in from the caller.
unset FEDRA_TRANSPORT FEDRA_SILO_THREADS FEDRA_SCALE

# Build into the repo's shared target/ unless the caller chose a place
# (the benchmark driver sets CARGO_TARGET_DIR); keep it absolute so cargo
# and the binary lookup below agree whatever cargo's working directory is.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

manifest="$here/Cargo.toml"
if [ "${1:-}" = "test" ]; then
  exec cargo test --offline --quiet --manifest-path "$manifest"
fi

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin="$target/release/fedra-e2e"

case "${1:-all}" in
  all)
    [ $# -gt 0 ] && shift
    exec "$bin" all --spec "$root/BENCHMARK.json" --out "$here/out" "$@"
    ;;
  compare)
    shift
    exec "$bin" compare --spec "$root/BENCHMARK.json" "$@"
    ;;
  *)
    exec "$bin" run --out "$here/out" "$@"
    ;;
esac
