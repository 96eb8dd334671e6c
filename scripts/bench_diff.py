#!/usr/bin/env python3
"""Compare BENCH_sweep_*.json files against committed baselines.

Usage:
    scripts/bench_diff.py --baseline DIR --candidate DIR [options]

For every ``BENCH_sweep_<scenario>.json`` in the baseline directory the
candidate directory must contain a matching file.  Every sweep metric it
gates is bit-deterministic at a fixed seed and scale, so all of them are
**strict**: per algorithm, ``evaluation_ratio_mean``/``_max``,
``steps_mean`` and (when the baseline ran netsim) ``netsim_vs_bruteforce``,
the simulated redistribution time over brute force.  A candidate worse
than ``baseline * (1 + strict_frac)`` fails.  A netsim or fault-storm
section that the baseline ran and the candidate did not (``ran`` false),
and a storm run whose delivery failed verification (``robust.verified``
false), fail outright.  The rest of the file (simulated seconds, storm
counts, journal block) is context and is not gated; wall-clock timing is
bench/e2e's job.

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

    def check(self, metric, base, cand, *, frac):
        """Fails ``cand`` above ``base`` worsened by ``frac`` (higher is
        worse for every gated metric)."""
        if base is None or cand is None:
            self.rows.append((metric, base, cand, None, "MISSING"))
            self.failures += 1
            return
        limit = base * (1.0 + frac) if base >= 0 else base * (1.0 - frac)
        bad = cand > limit
        self.failures += bad
        self.rows.append((metric, base, cand, limit, "FAIL" if bad else "ok"))

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
    metrics = ["evaluation_ratio_mean", "evaluation_ratio_max", "steps_mean"]
    if base_doc.get("netsim", {}).get("ran"):
        metrics.append("netsim_vs_bruteforce")
    base_algos, cand_algos = algo_map(base_doc), algo_map(cand_doc)
    for name, base_a in base_algos.items():
        cand_a = cand_algos.get(name, {})
        for metric in metrics:
            d.check(f"{name}.{metric}", base_a.get(metric),
                    cand_a.get(metric), frac=args.strict_frac)
    # A section the baseline ran must run, and a storm run must verify.
    for flag in ("netsim.ran", "robust.ran", "robust.verified"):
        section, key = flag.split(".")
        if (base_doc.get(section, {}).get("ran")
                and not cand_doc.get(section, {}).get(key, False)):
            d.rows.append((flag, True, cand_doc.get(section, {}).get(key),
                           None, "FAIL"))
            d.failures += 1
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
                   help="allowed worsening for deterministic metrics "
                        "(default %(default)s)")
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
    if not baselines:
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

    if total_failures:
        print(f"bench_diff: {total_failures} regression(s) detected")
        return 1
    print("bench_diff: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
