#!/usr/bin/env python3
"""Steadiness check: run every workload in two interleaved sets and compare.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Run from the repository root. Set A and set B use the same seeds
(1..runs), and their runs alternate (A1 B1 A2 B2 ...) so a slow stretch of
the host lands on both. For every end-to-end metric the table shows each
set's median and quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and the gap between the two medians in the metric's
"worse" direction, against BENCHMARK.json's bound. A metric passes when its
spread (setup_s excepted) and the gap both stay within the bound; a spread
under a third of the bound is the margin the benchmark aims for. Each run's
host line (steal share, load average) is echoed so outliers can be
explained.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    host = [l for l in proc.stderr.splitlines() if l.startswith("host:")]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1]), host[0] if host else "host: ?"


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    results = {(w, s): [] for w in workloads for s in range(2)}
    for i in range(args.runs):
        for w in workloads:
            for s in range(2):
                result, host = run_once(w, i + 1, spec["run_seconds"])
                results[(w, s)].append(result)
                print("%-10s set %s seed %2d  correct=%s attempted=%d failed=%d  %s" % (
                    w, "AB"[s], i + 1, result["correct"], result["attempted"],
                    result["failed"], host), flush=True)

    all_ok = True
    for w in workloads:
        print("\n== %s" % w)
        print("%-22s %-5s %12s %12s %12s %8s %8s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "gap", "bound"))
        shares = [set(r["failed"] / r["attempted"] for r in results[(w, s)])
                  for s in range(2)]
        for m in spec["end_to_end"]:
            medians = []
            for s in range(2):
                values = [r["metrics"][m["name"]]["value"] for r in results[(w, s)]]
                q1, q2, q3, spread = summary(values)
                medians.append(q2)
                ok = spread <= m["bound"] or m["name"] == "setup_s"
                gap = ""
                if s == 1:
                    worse = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
                    if m["better"] == "higher":
                        worse = -worse
                    ok = ok and worse <= m["bound"]
                    gap = "%+.4f" % worse
                all_ok &= ok
                print("%-22s %-5s %12.6g %12.6g %12.6g %8.4f %8s %8.3f %s%s" % (
                    m["name"], "AB"[s], q1, q2, q3, spread, gap, m["bound"],
                    "ok" if ok else "FAIL",
                    " (< bound/3)" if spread < m["bound"] / 3 else ""))
        print("failed shares per set: %s" % shares)
        all_ok &= all(len(x) == 1 for x in shares) and len(set().union(*shares)) == 1
    print("\nsets agree within BENCHMARK.json bounds: %s" % ("yes" if all_ok else "NO"))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
