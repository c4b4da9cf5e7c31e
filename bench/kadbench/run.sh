#!/usr/bin/env bash
# Builds kadbench (Release, into build/kadbench under the repository root)
# and runs it from the repository root.
#
#   bench/kadbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [...]
#   bench/kadbench/run.sh [--seed N] [--seconds S] [--trace 0|1] [...]
#
# With --workload, the benchmark's last stdout line is its result JSON. Without
# it, every workload runs in turn, each in its own process. Build output goes
# to stderr. Other options (--out, --trace-out, --smoke, --selftest) pass
# through to the binary; see kadbench.cpp.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/kadbench"

{
    if [ ! -f "$build/CMakeCache.txt" ]; then
        cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$build" --target kadbench -j "$(nproc)"
} 1>&2

cd "$root"
for arg in "$@"; do
    case "$arg" in
        --workload|--workload=*|--selftest) exec "$build/kadbench" "$@" ;;
    esac
done
for workload in fig_sim_e analysis_series daemon_stream daemon_replay; do
    "$build/kadbench" --workload "$workload" "$@"
done
