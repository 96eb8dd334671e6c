#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. redist_e2e (bench/e2e, a CMake package of
its own) is built RelWithDebInfo into .bench_build/e2e, together with the
library under src/; build output goes to stderr. Its standard output passes
through unchanged: one `name value unit` line per metric, then one JSON line
with the verdict and the metrics. Result files (a host block and the sample
count behind every metric) and, for traced runs, a Chrome trace land in
.bench_build/e2e-runs. The exit status is redist_e2e's, or 2 when the build
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUNS = os.path.join(ROOT, ".bench_build", "e2e-runs")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "redist_e2e"],
    ]
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    command = [
        os.path.join(BUILD, "redist_e2e"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--out-dir={RUNS}",
        f"--git-rev={git_rev()}",
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
