#!/usr/bin/env python3
"""Compare two benchmark results, metric by metric.

    benchmark/compare.py [--manifest BENCHMARK.json] a/result.json b/result.json

For every workload x end-to-end metric: both values, how much worse b is than
a (as a share of a, positive = worse in the metric's own direction), the bound
BENCHMARK.json fixes for the metric, and a verdict:

    ok          b is no worse than a by more than the bound
    worse       b is worse than a by more than the bound
    unresolved  the median of either run is itself less certain than the bound
                (distance between the quartiles of its slices, over their
                median and the square root of their number), so the difference
                cannot be told from noise; lengthen that phase, do not widen
                the bound

Exits 1 if any pair is `worse` or `unresolved`, 2 on unusable input.
"""

import argparse
import json
import math
import os
import statistics
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"compare.py: {path}: {e}")


def end_to_end(result, path):
    """{workload: {metric: {"value", "unit", "slices"?}}} of one result.json."""
    out = {}
    for w in result.get("workloads", []):
        if "end_to_end" in w:
            out[w["name"]] = w["end_to_end"]["metrics"]
    if not out:
        sys.exit(f"compare.py: {path} holds no end-to-end metrics (was it a --trace 1 run?)")
    return out


def uncertainty(metric):
    """How far a median of slices can be trusted: IQR / (median * sqrt(n)); 0 without slices."""
    slices = metric.get("slices", [])
    if len(slices) < 4:
        return 0.0
    q1, median, q3 = statistics.quantiles(slices, n=4)
    return (q3 - q1) / (median * math.sqrt(len(slices))) if median else float("inf")


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--manifest", default=os.path.join(here, "..", "BENCHMARK.json"))
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()

    declared = {m["name"]: m for m in load(args.manifest)["end_to_end"]}
    a, b = end_to_end(load(args.a), args.a), end_to_end(load(args.b), args.b)

    verdicts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<15} {'metric':<24} {'a':>14} {'b':>14} {'worse by':>9} {'bound':>6} {'±median':>7}  verdict")
    for workload in a:
        if workload not in b:
            sys.exit(f"compare.py: {args.b} has no workload {workload}")
        for name, ma in a[workload].items():
            if name not in declared:
                sys.exit(f"compare.py: metric {name} is not declared in {args.manifest}")
            if name not in b[workload]:
                sys.exit(f"compare.py: {args.b}: {workload} has no metric {name}")
            mb = b[workload][name]
            bound = declared[name]["bound"]
            sign = 1.0 if declared[name]["better"] == "lower" else -1.0
            worse_by = sign * (mb["value"] - ma["value"]) / ma["value"] if ma["value"] else float("inf")
            spread = max(uncertainty(ma), uncertainty(mb))
            if spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            print(
                f"{workload:<15} {name:<24} {ma['value']:>14.6g} {mb['value']:>14.6g} "
                f"{worse_by:>+9.1%} {bound:>6.0%} {spread:>7.1%}  {verdict}"
            )
    print(f"# {verdicts['ok']} ok, {verdicts['worse']} worse, {verdicts['unresolved']} unresolved")
    return 1 if verdicts["worse"] or verdicts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
