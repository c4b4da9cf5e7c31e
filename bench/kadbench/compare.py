#!/usr/bin/env python3
"""Compare two sets of kadbench runs against the bounds in BENCHMARK.json.

    compare.py A... -- B...      each item: a record written by --out, a
                                 directory of them, or BASELINE.json#SET
    compare.py BASELINE.json     the baseline's two sets against each other

Per workload it prints each side's median and quartiles for every
end-to-end metric, then a verdict:
  regressed    B's median is worse than A's by more than the bound
  improved     B's median is better than A's by more than the bound
  within       neither
  unresolved   a side's spread (quartile distance over median) exceeds the
               bound, so the medians cannot be compared; reported as
               "improved" or "regressed" only when every B run beats, or
               loses to, every A run
Exact outputs are compared run by run for the seeds both sides ran:
output_sha1, and the exact counters of traced runs. A difference is
reported as a count, never as a speed-up. Exit status: 1 if anything
regressed or any exact output differs, else 0.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_side(items):
    records = []
    for item in items:
        path, _, subset = item.partition("#")
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".json"):
                    records.append(load_json(os.path.join(path, name)))
            continue
        data = load_json(path)
        if "sets" in data:
            if not subset:
                sys.exit(f"{path} holds sets {sorted(data['sets'])}; name one as {path}#SET")
            records.extend(data["sets"][subset])
        else:
            records.append(data)
    return records


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(a, b, better):
    """Relative amount by which b is worse than a (negative: better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a_values, b_values, metric):
    bound, better = metric["bound"], metric["better"]
    a_med, b_med = statistics.median(a_values), statistics.median(b_values)
    worse = worse_by(a_med, b_med, better)
    if max(spread(a_values), spread(b_values)) > bound:
        all_better = all(worse_by(a, b, better) < 0 for a in a_values for b in b_values)
        all_worse = all(worse_by(a, b, better) > 0 for a in a_values for b in b_values)
        if all_better:
            return "improved (every run)", worse
        if all_worse:
            return "regressed (every run)", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "within", worse


def exact_differences(a_runs, b_runs):
    """Counts of differing output_sha1 and exact counters, per workload."""
    out = {}
    for side_a in a_runs:
        for side_b in b_runs:
            if (side_a["workload"], side_a["seed"], side_a.get("smoke")) != (
                    side_b["workload"], side_b["seed"], side_b.get("smoke")):
                continue
            entry = out.setdefault(side_a["workload"], {"pairs": 0, "sha1": 0, "counters": 0})
            entry["pairs"] += 1
            if side_a["output_sha1"] != side_b["output_sha1"]:
                entry["sha1"] += 1
            if side_a["trace"] and side_b["trace"]:
                keys = set(side_a["exact"]) | set(side_b["exact"])
                entry["counters"] += sum(
                    side_a["exact"].get(k) != side_b["exact"].get(k) for k in keys)
    return out


def main(argv):
    if len(argv) == 1 and "--" not in argv:
        sets = sorted(load_json(argv[0])["sets"])
        if len(sets) != 2:
            sys.exit(f"{argv[0]} must hold exactly two sets, has {sets}")
        a_items, b_items = [f"{argv[0]}#{sets[0]}"], [f"{argv[0]}#{sets[1]}"]
    elif "--" in argv:
        cut = argv.index("--")
        a_items, b_items = argv[:cut], argv[cut + 1:]
    else:
        sys.exit(__doc__)
    a_runs, b_runs = load_side(a_items), load_side(b_items)
    metrics = load_json(BENCHMARK)["end_to_end"]
    failures = 0
    for workload in sorted({r["workload"] for r in a_runs + b_runs}):
        a = [r for r in a_runs if r["workload"] == workload and not r["trace"]]
        b = [r for r in b_runs if r["workload"] == workload and not r["trace"]]
        print(f"{workload}: {len(a)} runs vs {len(b)} runs")
        if not a or not b:
            print("  (needs untraced runs on both sides)")
            continue
        for m in metrics:
            av = [r["metrics"][m["name"]]["value"] for r in a]
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            aq, bq = quartiles(av), quartiles(bv)
            result, worse = verdict(av, bv, m)
            failures += result.startswith("regressed")
            print(f"  {m['name']:18s} A {aq[1]:12.4f} [{aq[0]:.4f}, {aq[2]:.4f}]"
                  f"  B {bq[1]:12.4f} [{bq[0]:.4f}, {bq[2]:.4f}] {m['unit']:5s}"
                  f"  B worse by {worse:+7.2%} (bound {m['bound']:.0%})  {result}")
        bad = sum(not r["correct"] or r["failed"] for r in a + b)
        if bad:
            failures += 1
            print(f"  {bad} runs failed their output checks or had failed operations")
    for workload, entry in sorted(exact_differences(a_runs, b_runs).items()):
        differs = entry["sha1"] + entry["counters"]
        failures += differs > 0
        print(f"{workload}: {entry['pairs']} same-seed run pairs, {entry['sha1']} output_sha1 "
              f"differences, {entry['counters']} exact-counter differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
