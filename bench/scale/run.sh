#!/usr/bin/env bash
# Builds bench_scale from source under .bench_build/ at the repository root
# and runs it with the given arguments:
#
#   bash bench/scale/run.sh --workload des_node --seed 1 --seconds 10 --trace 0
#   bash bench/scale/run.sh --quick    # smoke: every workload, small sizes,
#                                      # then one traced pass
#
# Build output goes to .bench_build/build.log; a failed build prints its
# tail to stderr and exits 2 without a result line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=.bench_build
jobs=$(nproc)
if (( jobs > 4 )); then jobs=4; fi
mkdir -p "$build"

# `set -e` does not apply inside a function called as a condition, hence
# the explicit `|| return`.
build_all() {
  if [[ ! -f "$build/tree/CMakeCache.txt" ]]; then
    cmake -S . -B "$build/tree" -DCMAKE_BUILD_TYPE=Release || return
  fi
  cmake --build "$build/tree" --target hpcos_apps -j "$jobs" || return
  if [[ ! -f "$build/scale/CMakeCache.txt" ]]; then
    cmake -S bench/scale -B "$build/scale" -DCMAKE_BUILD_TYPE=Release \
      -DHPCOS_TREE="$root/$build/tree" || return
  fi
  cmake --build "$build/scale" -j "$jobs"
}
if ! build_all > "$build/build.log" 2>&1; then
  echo "bench/scale: build failed (log: $build/build.log)" >&2
  tail -n 40 "$build/build.log" >&2
  exit 2
fi

bin="$build/scale/bench_scale"
if [[ " $* " == *" --quick "* && " $* " != *" --workload "* ]]; then
  status=0
  for w in des_node des_cluster fig4_campaign bsp_plans; do
    "$bin" --workload "$w" "$@" || status=1
  done
  "$bin" --workload des_node --trace 1 "$@" || status=1
  exit "$status"
fi
exec "$bin" "$@"
