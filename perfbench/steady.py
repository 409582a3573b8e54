#!/usr/bin/env python3
"""Checks that the benchmark is steady: repeated runs, spread per metric.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workloads a,b,...] [--save FILE]
                                [--against FILE]

Runs every workload --runs times through run.py, each time with the next
seed, alternating the workload order (forward, then reversed) so that host
drift does not land on one workload. For each workload and end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json, flagged when
the spread is above a third of the bound. It also prints host.ref_s, a
reference loop that shares no code with the library, over the same runs:
when it spreads too, the host drifted.

--save writes the medians to a JSON file; --against compares this set's
medians with a saved set and flags each metric that got worse by more than
its bound. Exits non-zero if any run failed or any check is flagged.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    ref = re.search(r"^# host\.ref_s (\S+)$", proc.stderr, re.M)
    return result, float(ref.group(1)) if ref else float("nan")


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    host = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in (workloads if i % 2 == 0 else list(reversed(workloads))):
            result, ref = run_once(w, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{w} seed {seed}: failed operations")
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            host[w].append(ref)
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: " +
                  " ".join(f"{m}={values[w][m][-1]:.4g}" for m in bounds),
                  flush=True)

    flagged = False
    medians = {}
    print(f"\n{'workload':14} {'metric':12} {'unit':>5} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for w in workloads:
        medians[w] = {}
        for m, bound in bounds.items():
            q1, med, q3, s = spread(values[w][m])
            medians[w][m] = med
            # setup_s is exempt from the spread check but not from drift.
            bad = m != "setup_s" and s > bound / 3
            flagged |= bad
            print(f"{w:14} {m:12} {units[m]:>5} {med:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {s:7.3f} {bound:6.2f}"
                  f"{'  <-- spread' if bad else ''}")
        q1, med, q3, s = spread(host[w])
        print(f"{w:14} {'host.ref_s':12} {'s':>5} {med:10.4g} {q1:10.4g} "
              f"{q3:10.4g} {s:7.3f}")

    if args.against:
        with open(args.against) as f:
            base = json.load(f)
        print("\nagainst", args.against)
        for w in workloads:
            for m, bound in bounds.items():
                if w not in base or m not in base[w]:
                    continue
                change = medians[w][m] / base[w][m] - 1
                bad = change > bound
                flagged |= bad
                print(f"{w:14} {m:12} {change:+7.3f} (bound {bound:.2f})"
                      f"{'  <-- worse' if bad else ''}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
