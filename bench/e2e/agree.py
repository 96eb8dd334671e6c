#!/usr/bin/env python3
"""Checks that two sets of benchmark runs agree within the benchmark's bounds.

    python3 bench/e2e/agree.py RUNS_A RUNS_B [--benchmark BENCHMARK.json]

Each directory holds the result files redist_e2e writes with --out-dir
(<workload>-seed<N>.json; run.py puts them in .bench_build/e2e-runs). For
every workload and every end-to-end metric of BENCHMARK.json, prints the
median and quartiles of each set and the change of the medians. Exits 1 when
a median moved by more than the metric's bound, or when a run failed a check.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFAULT_BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def load_runs(directory):
    """workload -> metric -> values, over the untraced result files."""
    runs = {}
    failed = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                result = json.load(f)
            except json.JSONDecodeError:
                continue
        if result.get("schema") != "redist.e2e.v1" or result.get("trace"):
            continue
        if not result.get("correct", False):
            failed.append(path)
        metrics = runs.setdefault(result["workload"], {})
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs, failed


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs_a")
    parser.add_argument("runs_b")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    a, failed_a = load_runs(args.runs_a)
    b, failed_b = load_runs(args.runs_b)
    ok = True
    for path in failed_a + failed_b:
        print(f"failed run: {path}")
        ok = False
    for workload in sorted(set(a) | set(b)):
        print(f"== {workload}")
        for name, bound in bounds.items():
            va = a.get(workload, {}).get(name)
            vb = b.get(workload, {}).get(name)
            if not va or not vb:
                print(f"  {name:18s} missing in {'A' if not va else 'B'}")
                ok = False
                continue
            ma, a1, a3 = summary(va)
            mb, b1, b3 = summary(vb)
            change = (mb - ma) / ma if ma else float("inf")
            agrees = abs(change) <= bound
            ok = ok and agrees
            print(f"  {name:18s} A({len(va)}) {ma:12.6g} [{a1:.6g}, {a3:.6g}]"
                  f"  B({len(vb)}) {mb:12.6g} [{b1:.6g}, {b3:.6g}]"
                  f"  {change:+8.2%} (bound {bound:.0%})"
                  f"{'' if agrees else '  DISAGREE'}")
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
