#!/usr/bin/env bash
# Runs every bench binary (figures — which with no arguments runs all its
# sweeps, ablations and the §6 extension — tables, the other extensions,
# incl. the attack_resilience fault-model bench and the scale_family
# CSR-kernel bench, the suite's long pole at a few minutes, and micros) from
# an existing build tree: the list is globbed from bench/*.cpp, so new
# benches are picked up automatically. Figure outputs (CSV + BENCH_*.json +
# cache) land under ./bench_out/ in the current working directory.
#
#   tools/run_all_benches.sh [build-dir]
#
# Scale knobs (read by the binaries, see src/util/env.h):
#   REPRO_SCALE=quick|paper   quick (default) shrinks horizons/sizes for CI
#   REPRO_SEED=<u64>          default 20170327
#   REPRO_THREADS=<n>         analyzer parallelism, default hardware
#   REPRO_SAMPLE_C=<f>        source-sampling fraction, default 0.02 (§5.2)
set -euo pipefail

# Bench sources are globbed from the repo root; the build dir and bench_out/
# stay relative to the caller's working directory.
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

build_dir="${1:-build}"
if [[ ! -d "${build_dir}" ]]; then
    echo "error: build dir '${build_dir}' not found; run: cmake --preset release && cmake --build --preset release" >&2
    exit 1
fi

benches=()
for src in "${repo_root}"/bench/*.cpp; do
    name="$(basename "${src}" .cpp)"
    [[ "${name}" == "common" ]] && continue
    if [[ -x "${build_dir}/${name}" ]]; then
        benches+=("${build_dir}/${name}")
    else
        echo "skip: ${name} (not built — Google Benchmark missing?)" >&2
    fi
done

echo "running ${#benches[@]} bench binaries (REPRO_SCALE=${REPRO_SCALE:-quick})"
failed=0
for bin in "${benches[@]}"; do
    echo
    echo "##### $(basename "${bin}")"
    if ! "${bin}"; then
        echo "FAILED: ${bin}" >&2
        failed=1
    fi
done
exit "${failed}"
