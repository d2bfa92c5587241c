#!/usr/bin/env python3
"""Per-layer census: the traced run of every workload, as one table.

    python3 perfbench/layers.py [--seed N] [--workloads a,b]

Run from the repository root. Runs `perfbench/run.py --trace 1` once per
workload and prints every per-layer metric of BENCHMARK.json by name and
unit, one column per workload, obs.trace_overhead_pct included. A traced
run also checks that the agua.pipeline.* stage spans sum to the whole
training span within 5% and, on serve_miss, that micro-batches coalesce
(serve.batch_size_mean > 1); a failed check shows as correct=False.
"""
import argparse
import json
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    results = {}
    for w in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "1"],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit("traced run failed: %s" % w)
        results[w] = json.loads(lines[-1])
        sys.stderr.write(proc.stderr)

    print("%-32s %-6s" % ("metric", "unit") + "".join("%16s" % w for w in workloads))
    for m in spec["per_layer"]:
        print("%-32s %-6s" % (m["name"], m["unit"]) + "".join(
            "%16.6g" % results[w]["metrics"][m["name"]]["value"] for w in workloads))
    print("%-39s" % "correct" + "".join("%16s" % results[w]["correct"] for w in workloads))


if __name__ == "__main__":
    main()
