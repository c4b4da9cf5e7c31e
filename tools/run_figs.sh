#!/usr/bin/env bash
# Runs the paper's Figures 1–14 in order: fig01_even_example, the Figure
# 2–9 sweeps of the figures binary, fig10_alpha_sweep, then Figures 11–14.
# See tools/run_all_benches.sh for the tables/ablations/extension benches
# and the REPRO_* environment knobs.
#
#   tools/run_figs.sh [build-dir]
set -euo pipefail

build_dir="${1:-build}"
if [[ ! -d "${build_dir}" ]]; then
    echo "error: build dir '${build_dir}' not found; run: cmake --preset release && cmake --build --preset release" >&2
    exit 1
fi

steps=(
    "fig01_even_example"
    "figures fig02 fig03 fig04 fig05 fig06 fig07 fig08 fig09"
    "fig10_alpha_sweep"
    "figures fig11a fig11b fig12a fig12b fig13a fig13b fig14a fig14b"
)

failed=0
for step in "${steps[@]}"; do
    read -r name args <<<"${step}"
    bin="${build_dir}/${name}"
    if [[ ! -x "${bin}" ]]; then
        echo "error: ${bin} not built" >&2
        failed=1
        continue
    fi
    echo
    echo "##### ${step}"
    # shellcheck disable=SC2086  # args is a space-separated id list
    if ! "${bin}" ${args}; then
        echo "FAILED: ${step}" >&2
        failed=1
    fi
done
exit "${failed}"
