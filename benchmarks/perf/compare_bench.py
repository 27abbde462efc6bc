"""Perf-regression gate: compare a ``BENCH_perf.json`` to a baseline.

Usage::

    python benchmarks/perf/compare_bench.py CURRENT.json BASELINE.json
        [--tolerance 0.20] [--absolute]

Stdlib-only (no repro import) so CI can run it in any job.

The default gate compares **speedup ratios** (fast vs reference
implementation of the same stage), because a ratio measured on one
machine transfers to another while absolute wall times do not.  A
benchmark regresses when its speedup falls more than ``--tolerance``
(default 20%) below the baseline's.

``--absolute`` additionally gates the fast path's median wall time
against the baseline's with the same tolerance — only meaningful when
current and baseline come from the same machine (e.g. a local
before/after check).

``--overhead NAME`` (repeatable) marks a benchmark as an *overhead
pair*: its "fast" side runs with a feature off and its "reference" side
with the feature on, so the ratio is a cost multiplier that must stay
*below* ``1 + tolerance`` — a ceiling, not a floor.  Overhead gates
need no baseline entry (the ceiling is absolute), so the gate holds
from the commit that introduces the benchmark.

``--scaling NAME`` (repeatable) marks a benchmark as a *scaling pair*:
its "fast" side runs a small fleet and its "reference" side a larger
one, so the ratio is the cost multiplier of growing the fleet.  Lower
is better, so the gate is a ceiling relative to the baseline: the
multiplier must stay at or below ``baseline * (1 + tolerance)``.  A
plane that starts to scale better passes; a worse blowup fails.

Exit status: 0 when no benchmark regresses, 1 otherwise.  Benchmarks
present in only one document are reported but never fail the gate (so
adding a benchmark does not require regenerating baselines in the same
commit).
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path):
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != 1:
        raise SystemExit("%s: unsupported schema %r" % (path, document.get("schema")))
    return document


def compare(current, baseline, tolerance, absolute, overhead=(), scaling=()):
    """Yields (benchmark, ok, message) triples."""
    current_benchmarks = current["benchmarks"]
    baseline_benchmarks = baseline["benchmarks"]
    overhead = set(overhead)
    scaling = set(scaling)
    for name in sorted(set(current_benchmarks) | set(baseline_benchmarks)):
        if name not in current_benchmarks:
            yield name, True, "only in baseline (skipped)"
            continue
        if name in overhead:
            speedup = current_benchmarks[name].get("speedup")
            if speedup is None:
                yield name, False, "overhead gate needs a paired benchmark"
                continue
            ceiling = 1.0 + tolerance
            yield name, speedup <= ceiling, (
                "overhead %.2fx (ceiling %.2fx)" % (speedup, ceiling)
            )
            continue
        if name not in baseline_benchmarks:
            yield name, True, "new benchmark (no baseline, skipped)"
            continue
        entry = current_benchmarks[name]
        base = baseline_benchmarks[name]

        speedup = entry.get("speedup")
        base_speedup = base.get("speedup")
        if name in scaling:
            if speedup is None or base_speedup is None:
                yield name, False, "scaling gate needs a paired benchmark"
                continue
            ceiling = base_speedup * (1.0 + tolerance)
            yield name, speedup <= ceiling, (
                "scaling %.2fx vs baseline %.2fx (ceiling %.2fx)"
                % (speedup, base_speedup, ceiling)
            )
            continue
        if speedup is not None and base_speedup is not None:
            floor = base_speedup * (1.0 - tolerance)
            ok = speedup >= floor
            yield name, ok, (
                "speedup %.2fx vs baseline %.2fx (floor %.2fx)"
                % (speedup, base_speedup, floor)
            )
        elif not absolute:
            yield name, True, "no speedup ratio (ungated; use --absolute)"

        if absolute:
            median = entry["fast"]["median_s"]
            base_median = base["fast"]["median_s"]
            ceiling = base_median * (1.0 + tolerance)
            ok = median <= ceiling
            yield name, ok, (
                "median %.3fms vs baseline %.3fms (ceiling %.3fms)"
                % (median * 1e3, base_median * 1e3, ceiling * 1e3)
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly measured BENCH_perf.json")
    parser.add_argument("baseline", help="committed baseline document")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional regression (default 0.20)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also gate absolute wall times (same-machine comparisons only)",
    )
    parser.add_argument(
        "--overhead",
        action="append",
        default=[],
        metavar="NAME",
        help="gate NAME as an overhead pair: its fast/reference ratio "
        "must stay below 1 + tolerance (repeatable)",
    )
    parser.add_argument(
        "--scaling",
        action="append",
        default=[],
        metavar="NAME",
        help="gate NAME as a scaling pair: its cost multiplier must stay "
        "at or below baseline * (1 + tolerance) (repeatable)",
    )
    args = parser.parse_args(argv)

    current = load(args.current)
    baseline = load(args.baseline)
    if current["meta"].get("scale") != baseline["meta"].get("scale"):
        print(
            "warning: comparing scale=%r against baseline scale=%r"
            % (current["meta"].get("scale"), baseline["meta"].get("scale")),
            file=sys.stderr,
        )

    failures = 0
    for name, ok, message in compare(
        current, baseline, args.tolerance, args.absolute,
        overhead=args.overhead,
        scaling=args.scaling,
    ):
        status = "ok  " if ok else "FAIL"
        print("%s %-16s %s" % (status, name, message))
        if not ok:
            failures += 1
    if failures:
        print("\n%d benchmark(s) regressed beyond tolerance" % failures)
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
