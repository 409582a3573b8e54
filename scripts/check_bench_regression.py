#!/usr/bin/env python3
"""Regression gate for the benchlib JSON reports.

Compares a candidate run (results/bench_*.json fresh from a bench
binary) against a committed baseline of the same shape and fails when a
gated metric regressed beyond the tolerance:

  * latency metrics  (key contains "p99" or "p50"): may not INCREASE by
    more than the tolerance (only p99 keys gate by default; p50 on the
    cache-hit path is ~0 and too noisy — enable with --gate-p50);
  * throughput metrics (key ends with "_qps" or contains "throughput",
    plus "*speedup" and "*hit_rate"): may not DECREASE by more than the
    tolerance.

Independent of any baseline, the candidate's own "gates" section (see
bench::JsonReport::floor) is enforced as absolute floors — e.g. the
traffic bench requires batching_speedup >= 3 on the full run — and its
"ceilings" section (bench::JsonReport::ceiling) as absolute maxima —
e.g. p99 latency bounds, or the paged bench's page-pin count
(budget_full.pins), a deterministic count that holds on any host.
Thresholds travel with the run that produced them, so a smoke run
carries smoke thresholds, and a collapsed run cannot re-baseline
itself: even if its report replaced the committed baseline, its own
embedded gates would still fail it.

The default tolerance (10%) is meant for like-for-like comparisons on
the machine that produced the baseline. CI compares against a baseline
from a different box, so it passes a wide tolerance (--tolerance 0.75)
and relies on the absolute floors for the load-bearing guarantees.

Usage:
  check_bench_regression.py BASELINE CANDIDATE [--tolerance 0.10]
  check_bench_regression.py --floors-only CANDIDATE

Tolerance may also be set with the IPREGEL_BENCH_TOL environment
variable (the flag wins). Exit codes: 0 ok, 1 regression, 2 usage/IO.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if "metrics" not in doc:
        print(f"error: {path} has no 'metrics' section", file=sys.stderr)
        sys.exit(2)
    return doc


def is_latency(key):
    return "p99" in key or "p50" in key


def is_throughput(key):
    return (
        key.endswith("_qps")
        or "throughput" in key
        or "speedup" in key
        or "hit_rate" in key
    )


def check_floors(candidate, failures):
    metrics = candidate.get("metrics", {})
    for key, floor in candidate.get("gates", {}).items():
        value = metrics.get(key)
        if value is None:
            failures.append(f"gate '{key}': metric missing from candidate")
        elif value < floor:
            failures.append(
                f"gate '{key}': {value:.4g} below the {floor:.4g} floor"
            )
        else:
            print(f"  ok    {key} = {value:.4g} (floor {floor:.4g})")
    for key, ceiling in candidate.get("ceilings", {}).items():
        value = metrics.get(key)
        if value is None:
            failures.append(f"ceiling '{key}': metric missing from candidate")
        elif value > ceiling:
            failures.append(
                f"ceiling '{key}': {value:.4g} above the {ceiling:.4g} max"
            )
        else:
            print(f"  ok    {key} = {value:.4g} (ceiling {ceiling:.4g})")


def check_against_baseline(baseline, candidate, tol, gate_p50, failures):
    base = baseline.get("metrics", {})
    cand = candidate.get("metrics", {})
    for key, base_value in base.items():
        if key not in cand:
            failures.append(f"'{key}': present in baseline, missing now")
            continue
        value = cand[key]
        if not isinstance(base_value, (int, float)) or isinstance(
            base_value, bool
        ):
            continue
        if is_latency(key):
            if "p50" in key and not gate_p50:
                continue
            # Sub-millisecond baselines are cache-hit noise; an absolute
            # floor keeps "0.01ms -> 0.03ms" from tripping a 3x alarm.
            limit = max(base_value, 0.5) * (1.0 + tol)
            if value > limit:
                failures.append(
                    f"'{key}': {value:.4g} > {limit:.4g} "
                    f"(baseline {base_value:.4g}, +{tol:.0%} allowed)"
                )
            else:
                print(f"  ok    {key}: {value:.4g} (<= {limit:.4g})")
        elif is_throughput(key):
            limit = base_value * (1.0 - tol)
            if value < limit:
                failures.append(
                    f"'{key}': {value:.4g} < {limit:.4g} "
                    f"(baseline {base_value:.4g}, -{tol:.0%} allowed)"
                )
            else:
                print(f"  ok    {key}: {value:.4g} (>= {limit:.4g})")


def main():
    parser = argparse.ArgumentParser(
        description="Gate a bench JSON report against a baseline."
    )
    parser.add_argument("baseline", nargs="?", help="baseline JSON report")
    parser.add_argument("candidate", nargs="?", help="candidate JSON report")
    parser.add_argument(
        "--floors-only",
        action="store_true",
        help="skip the baseline diff; enforce only the candidate's own "
        "'gates' floors and 'ceilings' maxima (positional: CANDIDATE "
        "only)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed relative regression (default 0.10 or "
        "$IPREGEL_BENCH_TOL)",
    )
    parser.add_argument(
        "--gate-p50",
        action="store_true",
        help="also gate p50 latencies (off by default: the cache-hit "
        "median is ~0 and noisy)",
    )
    args = parser.parse_args()

    tol = args.tolerance
    if tol is None:
        tol = float(os.environ.get("IPREGEL_BENCH_TOL", "0.10"))
    if tol < 0:
        parser.error("tolerance must be non-negative")

    failures = []
    if args.floors_only:
        if args.candidate is not None or args.baseline is None:
            parser.error("--floors-only takes exactly one report")
        candidate = load(args.baseline)
        print(f"checking floors of {args.baseline}")
        check_floors(candidate, failures)
    else:
        if args.baseline is None or args.candidate is None:
            parser.error("need BASELINE and CANDIDATE (or --floors-only)")
        baseline = load(args.baseline)
        candidate = load(args.candidate)
        if baseline.get("bench") != candidate.get("bench"):
            print(
                f"warning: comparing bench '{baseline.get('bench')}' "
                f"against '{candidate.get('bench')}'",
                file=sys.stderr,
            )
        print(
            f"comparing {args.candidate} against {args.baseline} "
            f"(tolerance {tol:.0%})"
        )
        check_against_baseline(baseline, candidate, tol, args.gate_p50,
                               failures)
        check_floors(candidate, failures)

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s)", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("PASS: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
