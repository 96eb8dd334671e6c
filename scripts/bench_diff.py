#!/usr/bin/env python3
"""Compare BENCH_sweep_*.json files against committed baselines.

Usage:
    scripts/bench_diff.py --baseline DIR --candidate DIR [options]

For every ``BENCH_sweep_<scenario>.json`` in the baseline directory the
candidate directory must contain a matching file, and each gated metric is
compared against its baseline value with a per-class tolerance:

* **strict** metrics are bit-deterministic at a fixed seed and scale —
  schedule quality (``evaluation_ratio_mean``/``_max``, ``steps_mean`` per
  algorithm) and the simulated netsim times (simulated clock, not wall
  clock).  A candidate worse than ``baseline * (1 + strict_frac)`` fails.
* **loose** metrics depend on machine load — ``batch.pool_speedup``
  (higher is better).  A candidate below ``baseline * (1 - loose_frac)``
  fails.  The tolerance is deliberately generous; the gate exists to catch
  the pool collapsing, not a noisy 10%.
* **timing** metrics (``solve_ms``, robust wall-clock seconds and the
  derived ``recovery_overhead``) are reported but ungated unless
  ``--check-timing`` is given, in which case the loose tolerance applies.

Independently of the gated list, every key path present in a baseline
document but absent from the candidate is reported as a ``WARN`` — the
gated metrics above are an enumeration, and a bench that silently stops
emitting a section would otherwise vanish without trace.  With
``--fail-on-missing`` those warnings become failures.

Exit status: 0 all gates pass, 1 at least one regression, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SWEEP_PREFIX = "BENCH_sweep_"
WARM_START = "BENCH_warm_start.json"
SERVICE_CACHE = "BENCH_service_cache.json"


def load(path: Path):
    try:
        with path.open() as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


class Diff:
    """Accumulates metric comparisons and their pass/fail verdicts."""

    def __init__(self) -> None:
        self.rows = []  # (metric, baseline, candidate, limit, verdict)
        self.failures = 0

    def check(self, metric, base, cand, *, frac, higher_is_worse, gated=True):
        if base is None or cand is None:
            self.rows.append((metric, base, cand, None, "MISSING"))
            self.failures += 1
            return
        if higher_is_worse:
            limit = base * (1.0 + frac) if base >= 0 else base * (1.0 - frac)
            bad = cand > limit
        else:
            limit = base * (1.0 - frac)
            bad = cand < limit
        if not gated:
            verdict = "info"
        elif bad:
            verdict = "FAIL"
            self.failures += 1
        else:
            verdict = "ok"
        self.rows.append((metric, base, cand, limit, verdict))

    def report(self, header):
        print(header)
        for metric, base, cand, limit, verdict in self.rows:
            fb = "-" if base is None else f"{base:.6g}"
            fc = "-" if cand is None else f"{cand:.6g}"
            fl = "-" if limit is None else f"{limit:.6g}"
            print(f"  {verdict:>7}  {metric:<44} base={fb:>12} "
                  f"cand={fc:>12} limit={fl:>12}")


def algo_map(doc):
    return {a.get("name"): a for a in doc.get("algorithms", [])}


def missing_key_paths(base, cand, prefix=""):
    """Key paths present in ``base`` but absent from ``cand``, recursively.

    Lists of ``{"name": ...}`` objects (the per-algorithm records) are
    matched by name; other lists are treated as leaves.
    """
    missing = []
    if isinstance(base, dict):
        if not isinstance(cand, dict):
            missing.append(prefix or "<root>")
            return missing
        for key, value in base.items():
            path = f"{prefix}.{key}" if prefix else key
            if key not in cand:
                missing.append(path)
            else:
                missing.extend(missing_key_paths(value, cand[key], path))
    elif isinstance(base, list):
        by_name = {e["name"]: e for e in base
                   if isinstance(e, dict) and "name" in e}
        if not by_name:
            return missing  # positional list: compared by the gated metrics
        if not isinstance(cand, list):
            missing.append(prefix)
            return missing
        cand_by_name = {e.get("name"): e for e in cand if isinstance(e, dict)}
        for name, entry in by_name.items():
            path = f"{prefix}[{name}]"
            if name not in cand_by_name:
                missing.append(path)
            else:
                missing.extend(
                    missing_key_paths(entry, cand_by_name[name], path))
    return missing


def report_coverage(label, base_doc, cand_doc, args):
    """Warns (or fails) on baseline keys the candidate no longer emits."""
    missing = missing_key_paths(base_doc, cand_doc)
    for path in missing:
        verdict = "FAIL" if args.fail_on_missing else "WARN"
        print(f"  {verdict:>7}  {label}: baseline key '{path}' not present "
              f"in candidate")
    return len(missing) if args.fail_on_missing else 0


def diff_sweep(base_doc, cand_doc, args):
    d = Diff()
    base_algos, cand_algos = algo_map(base_doc), algo_map(cand_doc)
    for name, base_a in base_algos.items():
        cand_a = cand_algos.get(name, {})
        for metric in ("evaluation_ratio_mean", "evaluation_ratio_max",
                       "steps_mean"):
            d.check(f"{name}.{metric}", base_a.get(metric),
                    cand_a.get(metric), frac=args.strict_frac,
                    higher_is_worse=True)
        d.check(f"{name}.solve_ms", base_a.get("solve_ms"),
                cand_a.get("solve_ms"), frac=args.loose_frac,
                higher_is_worse=True, gated=args.check_timing)
    base_net = base_doc.get("netsim", {})
    cand_net = cand_doc.get("netsim", {})
    if base_net.get("ran"):
        # Simulated time: deterministic, so the strict tolerance applies.
        d.check("netsim.scheduled_vs_bruteforce",
                base_net.get("scheduled_vs_bruteforce"),
                cand_net.get("scheduled_vs_bruteforce"),
                frac=args.strict_frac, higher_is_worse=True)
    base_batch = base_doc.get("batch", {})
    cand_batch = cand_doc.get("batch", {})
    d.check("batch.pool_speedup", base_batch.get("pool_speedup"),
            cand_batch.get("pool_speedup"), frac=args.loose_frac,
            higher_is_worse=False)
    base_rob = base_doc.get("robust", {})
    cand_rob = cand_doc.get("robust", {})
    if base_rob.get("ran"):
        if not cand_rob.get("verified", False):
            d.rows.append(("robust.verified", True,
                           cand_rob.get("verified"), None, "FAIL"))
            d.failures += 1
        d.check("robust.recovery_overhead",
                base_rob.get("recovery_overhead"),
                cand_rob.get("recovery_overhead"), frac=args.loose_frac,
                higher_is_worse=True, gated=args.check_timing)
    return d


def diff_warm_start(base_doc, cand_doc, args):
    """Gates for BENCH_warm_start.json (peeling solve time, batch pool,
    journal overhead).

    Solve times are wall clock: reported, and gated at the loose tolerance
    only under ``--check-timing``.  The pool speedup depends on the core
    count, so it is gated only when both files record the same
    ``host.nproc``.  The journal overhead is a fraction near zero with its
    own absolute budget (the bench's ``--check-max-journal-overhead``), so
    it is reported here, never gated.
    """
    d = Diff()
    base_algos, cand_algos = algo_map(base_doc), algo_map(cand_doc)
    for name, base_a in base_algos.items():
        cand_a = cand_algos.get(name, {})
        d.check(f"{name}.solve_ms", base_a.get("solve_ms"),
                cand_a.get("solve_ms"), frac=args.loose_frac,
                higher_is_worse=True, gated=args.check_timing)
    base_nproc = base_doc.get("host", {}).get("nproc")
    same_host = base_nproc == cand_doc.get("host", {}).get("nproc")
    d.check("batch.pool_speedup",
            base_doc.get("batch", {}).get("pool_speedup"),
            cand_doc.get("batch", {}).get("pool_speedup"),
            frac=args.loose_frac, higher_is_worse=False, gated=same_host)
    d.check("journal.overhead_frac",
            base_doc.get("journal", {}).get("overhead_frac"),
            cand_doc.get("journal", {}).get("overhead_frac"),
            frac=args.loose_frac, higher_is_worse=True, gated=False)
    return d


def diff_service_cache(base_doc, cand_doc, args):
    """Gates for BENCH_service_cache.json (the scheduler-daemon cache).

    The identity flags are correctness, not performance: a cache hit that
    is not byte-identical to the original solve, or a warm-seeded
    near-miss that diverges from the unseeded solve, fails outright.
    Speedups are machine-dependent and gated loosely (the bench's own
    ``--check-min-hit-speedup`` enforces the absolute floor in CI).
    """
    d = Diff()
    base_c = base_doc.get("cache", {})
    cand_c = cand_doc.get("cache", {})
    for flag in ("hit_identical", "near_identical"):
        if not cand_c.get(flag, False):
            d.rows.append((f"cache.{flag}", True, cand_c.get(flag),
                           None, "FAIL"))
            d.failures += 1
    if cand_c.get("near_misses") != base_c.get("near_misses"):
        d.rows.append(("cache.near_misses", base_c.get("near_misses"),
                       cand_c.get("near_misses"), None, "FAIL"))
        d.failures += 1
    d.check("cache.hit_speedup", base_c.get("hit_speedup"),
            cand_c.get("hit_speedup"), frac=args.loose_frac,
            higher_is_worse=False)
    d.check("cache.near_speedup", base_c.get("near_speedup"),
            cand_c.get("near_speedup"), frac=args.loose_frac,
            higher_is_worse=False, gated=args.check_timing)
    return d


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", required=True, type=Path,
                   help="directory of committed BENCH_sweep_*.json baselines")
    p.add_argument("--candidate", required=True, type=Path,
                   help="directory of freshly produced BENCH_sweep_*.json")
    p.add_argument("--scenario", action="append", default=None,
                   help="restrict to named scenario(s); default: every "
                        "baseline file")
    p.add_argument("--strict-frac", type=float, default=0.02,
                   help="allowed worsening for deterministic quality "
                        "metrics (default %(default)s)")
    p.add_argument("--loose-frac", type=float, default=0.5,
                   help="allowed worsening for machine-dependent metrics "
                        "(default %(default)s)")
    p.add_argument("--check-timing", action="store_true",
                   help="also gate wall-clock metrics (solve_ms, recovery "
                        "overhead) at the loose tolerance")
    p.add_argument("--fail-on-missing", action="store_true",
                   help="treat baseline keys absent from the candidate as "
                        "failures instead of warnings")
    args = p.parse_args(argv)

    if not args.baseline.is_dir():
        print(f"error: baseline dir {args.baseline} not found",
              file=sys.stderr)
        return 2
    baselines = sorted(args.baseline.glob(f"{SWEEP_PREFIX}*.json"))
    if args.scenario:
        wanted = set(args.scenario)
        baselines = [b for b in baselines
                     if b.name[len(SWEEP_PREFIX):-len(".json")] in wanted]
    if not baselines and not (args.baseline / WARM_START).exists():
        print(f"error: no {SWEEP_PREFIX}*.json under {args.baseline}",
              file=sys.stderr)
        return 2

    total_failures = 0
    for base_path in baselines:
        cand_path = args.candidate / base_path.name
        scenario = base_path.name[len(SWEEP_PREFIX):-len(".json")]
        if not cand_path.exists():
            print(f"scenario {scenario}: FAIL (missing {cand_path})")
            total_failures += 1
            continue
        base_doc, cand_doc = load(base_path), load(cand_path)
        d = diff_sweep(base_doc, cand_doc, args)
        d.report(f"scenario {scenario}:")
        total_failures += d.failures
        total_failures += report_coverage(f"scenario {scenario}", base_doc,
                                          cand_doc, args)

    warm_base = args.baseline / WARM_START
    warm_cand = args.candidate / WARM_START
    if warm_base.exists() and warm_cand.exists():
        base_doc, cand_doc = load(warm_base), load(warm_cand)
        d = diff_warm_start(base_doc, cand_doc, args)
        d.report("warm_start:")
        total_failures += d.failures
        total_failures += report_coverage("warm_start", base_doc, cand_doc,
                                          args)

    cache_base = args.baseline / SERVICE_CACHE
    cache_cand = args.candidate / SERVICE_CACHE
    if cache_base.exists() and cache_cand.exists():
        base_doc, cand_doc = load(cache_base), load(cache_cand)
        d = diff_service_cache(base_doc, cand_doc, args)
        d.report("service_cache:")
        total_failures += d.failures
        total_failures += report_coverage("service_cache", base_doc,
                                          cand_doc, args)

    if total_failures:
        print(f"bench_diff: {total_failures} regression(s) detected")
        return 1
    print("bench_diff: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
