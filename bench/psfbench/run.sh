#!/usr/bin/env bash
# Builds psfbench (optimized, no sanitizer, into build-bench/ at the
# repository root) and runs it.
#
#   bench/psfbench/run.sh [--seed N] [--seconds S] [--trace [0|1]]
#       runs every workload, each in its own process;
#   bench/psfbench/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       runs one workload (the form BENCHMARK.json's command takes).
#
# Results go to build-bench/results/; the last line of stdout is the JSON
# result of the last workload run. Build output goes to build-bench/build.log.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
mkdir -p "$build"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

if ! { [ -f "$build/Makefile" ] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } \
       > "$build/build.log" 2>&1 ||
   ! cmake --build "$build" --target psfbench -j "$jobs" \
       >> "$build/build.log" 2>&1; then
  echo "psfbench: build failed; last lines of $build/build.log:" >&2
  tail -n 30 "$build/build.log" >&2
  exit 1
fi

workload=""
passthrough=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:-}"; shift 2 ;;
    --workload=*) workload="${1#*=}"; shift ;;
    *) passthrough+=("$1"); shift ;;
  esac
done

bin="$build/psfbench"
out="$build/results"
if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --out "$out" "${passthrough[@]}"
fi

status=0
for w in ds500_steady inbox_read access_storm churn; do
  "$bin" --workload "$w" --out "$out" "${passthrough[@]}" || status=1
done
exit "$status"
