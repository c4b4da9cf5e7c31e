#!/usr/bin/env bash
# Self-test of the benchmark itself (about 5 s once built):
#   1. every output checker rejects a wrong answer: a wrong golden, a
#      corrupted METRICS row, a wrong PAIR value (kadbench --selftest);
#   2. each workload, run at smoke size traced and untraced, prints a result
#      JSON with exactly the metrics BENCHMARK.json lists, passes its checks,
#      and its traced run reproduces the untraced output_sha1.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/build/kadbench/selftest"

bash "$here/run.sh" --selftest
rm -rf "$out"
mkdir -p "$out"
for workload in fig_sim_e analysis_series daemon_stream daemon_replay; do
    for trace in 0 1; do
        bash "$here/run.sh" --workload "$workload" --seed 1 --seconds 0.2 --trace "$trace" \
            --smoke --out "$out/$workload-$trace.json" --trace-out "$out/$workload.trace.json" \
            > "$out/$workload-$trace.log" 2>&1 || {
            echo "selftest: $workload --trace $trace failed:"
            tail -n 20 "$out/$workload-$trace.log"
            exit 1
        }
    done
done

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import json
import sys

benchmark = json.load(open(sys.argv[1]))
out = sys.argv[2]
problems = []
for w in benchmark["workloads"]:
    name = w["name"]
    records = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        last = open(f"{out}/{name}-{trace}.log").read().strip().splitlines()[-1]
        result = json.loads(last)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{name} trace={trace}: not correct")
        expected = {m["name"]: m["unit"] for m in benchmark[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            problems.append(f"{name} trace={trace}: missing {missing}, extra {extra}, "
                            "or units differ")
        records[trace] = json.load(open(f"{out}/{name}-{trace}.json"))
    json.load(open(f"{out}/{name}.trace.json"))  # the Chrome trace parses
    if records[0]["output_sha1"] != records[1]["output_sha1"]:
        problems.append(f"{name}: traced output_sha1 differs from untraced")
for p in problems:
    print("selftest:", p)
print("selftest:", "FAILED" if problems else "result format and trace fidelity ok")
sys.exit(1 if problems else 0)
EOF
