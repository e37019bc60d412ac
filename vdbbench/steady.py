#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
reports every end-to-end metric's median, quartiles and spread against its
bound in BENCHMARK.json; then one run on a fresh seed to show the checks
hold on inputs the benchmark was not built with.

    python3 vdbbench/steady.py [--runs 10] [--first-seed 1]
        [--fresh-seed 9001] [--workloads advisor-fig5,tenants]

Spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). A spread under a third of the bound is
"steady", under the bound "within", else "WIDE"; setup_s is reported but
has no spread limit. The workload's own figures (the "detail" lines of
run.py) are summarized the same way, without a bound. Exits 1 if a run
fails, a check fails, the failed share differs between runs, or a spread
is WIDE.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, {}
    details = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "detail":
            details[parts[1]] = float(parts[2])
    return json.loads(lines[-1]), details


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--fresh-seed", type=int, default=9001)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in BENCH["workloads"]))
    args = parser.parse_args()
    seconds = BENCH["run_seconds"]
    ok = True
    for workload in args.workloads.split(","):
        results, details, shares = [], [], set()
        for i in range(args.runs):
            result, detail = run_once(workload, args.first_seed + i, seconds)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed or incorrect" %
                      (workload, args.first_seed + i))
                ok = False
                continue
            results.append(result)
            details.append(detail)
            shares.add(result["failed"] / result["attempted"])
        print("== %s: %d runs, failed share %s" %
              (workload, len(results), sorted(shares)))
        ok = ok and len(shares) <= 1
        if len(results) < 2:
            ok = False
            continue
        for metric in BENCH["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, q2, q3, s = spread(values)
            bound = metric["bound"]
            verdict = ("steady" if s < bound / 3 else
                       "within" if s <= bound else "WIDE")
            if metric["name"] == "setup_s":
                verdict = "no limit"
            ok = ok and verdict != "WIDE"
            print("  %-16s median %-10.4g q1 %-10.4g q3 %-10.4g spread %.4f "
                  "bound %.2f %s" % (metric["name"], q2, q1, q3, s, bound,
                                     verdict))
        for key in sorted(details[0]):
            values = [d[key] for d in details if key in d]
            if len(values) == len(details):
                q1, q2, q3, s = spread(values)
                print("  detail %-18s median %-10.4g spread %.4f" % (key, q2, s))
        result, _ = run_once(workload, args.fresh_seed, seconds)
        fresh_ok = result is not None and result["correct"]
        ok = ok and fresh_ok
        print("  fresh seed %d: %s" % (args.fresh_seed,
                                       "checks hold" if fresh_ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
