#!/usr/bin/env python3
"""Agua benchmark entry point.

    python3 perfbench/run.py --workload offline|serve_miss \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the Agua libraries,
the shipped agua_cli and the agua_perf tool from source into
$CARGO_TARGET_DIR (default .bench_build). The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. A host line (steal share, load average) goes to stderr.
"""
import argparse
import http.client
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench-cmake")
AGUA_PERF = os.path.join(CMAKE_DIR, "agua_perf")
AGUA_CLI = os.path.join(CMAKE_DIR, "examples", "agua_cli")

WORKLOADS = ("offline", "serve_miss")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def host_sample():
    with open("/proc/stat") as f:
        cpu = [int(x) for x in f.readline().split()[1:]]
    with open("/proc/loadavg") as f:
        load = f.read().split()[0]
    return cpu, load


def host_line(start, end):
    """Share of host CPU time the hypervisor stole between two samples, and
    the load average at each end."""
    busy = [b - a for a, b in zip(start[0], end[0])]
    steal = (busy[7] if len(busy) > 7 else 0) / (sum(busy) or 1)
    return "host: steal %.2f%% load %s -> %s nproc %d" % (
        100.0 * steal, start[1], end[1], os.cpu_count() or 0)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "agua_perf", "agua_cli",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def tool(*args, timeout=120):
    """Run agua_perf and return its last-line JSON."""
    proc = subprocess.run([AGUA_PERF] + [str(a) for a in args], capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        fail("agua_perf %s printed nothing (exit %d)" % (args[0], proc.returncode))
    return json.loads(lines[-1]), lines


def merge(total, result):
    """Adds one agua_perf result's operation counts to the run's."""
    for field in ("attempted", "failed", "failures"):
        total[field] += result[field]


def check(total, ok, why):
    """One check made here, on figures read from a server."""
    merge(total, {"attempted": 1, "failed": 0 if ok else 1, "failures": [] if ok else [why]})


# --- serving ---------------------------------------------------------------

class Server:
    """One `agua_cli abr --serve 0` process, from launch to model installed."""

    def __init__(self, workdir, tag, trace, threads):
        self.model = os.path.join(workdir, "model-%s.bin" % tag)
        self.log_path = os.path.join(workdir, "server-%s.log" % tag)
        # Line-buffered, so "training Agua" shows when training starts.
        args = ["stdbuf", "-oL", AGUA_CLI, "abr", "--serve", "0", "--threads", str(threads),
                "--save", self.model]
        if trace:
            args.append("--trace")
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT,
                                         cwd=workdir)
        self.port = None
        train_start = None
        while True:
            with open(self.log_path) as f:
                text = f.read()
            if self.port is None:
                m = re.search(r"listening on http://127\.0\.0\.1:(\d+)", text)
                if m:
                    self.port = int(m.group(1))
            if "explanation service ready" in text:
                if train_start is None:
                    self.stop()
                    fail("server printed no 'training Agua' line before 'ready'")
                # CPU time from the start of training to the model installed.
                self.train_cpu_s = self.cpu_s() - train_start
                break
            if train_start is None and "training Agua" in text:
                train_start = self.cpu_s()
            if self.proc.poll() is not None or time.perf_counter() - start > 120:
                self.stop()
                fail("server did not become ready; log:\n" + text[-2000:])
            time.sleep(0.005)
        self.ready_s = time.perf_counter() - start

    def request(self, method, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        conn.request(method, path)
        body = conn.getresponse().read().decode()
        conn.close()
        return body

    def metrics(self):
        out = {}
        for line in self.request("GET", "/metrics.json").splitlines():
            if line.strip():
                m = json.loads(line)
                out[m["name"]] = m
        return out

    def cpu_s(self):
        """CPU time of the server process so far; it leaves out time the
        hypervisor stole."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request("POST", "/quitquitquit")
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait()


def hist(metrics, name, field):
    return metrics.get(name, {}).get(field, 0.0)


def counter(metrics, name):
    return metrics.get(name, {}).get("value", 0)


def load(server_list, rows, mode, seed, seconds, *extra):
    """`agua_perf load` against running servers; returns its result and the
    per-window lines."""
    result, lines = tool("load", "--ports", ",".join(str(s.port) for s in server_list),
                         "--pids", ",".join(str(s.proc.pid) for s in server_list),
                         "--rows", rows, "--mode", mode, "--seed", seed, "--seconds", seconds,
                         *extra, timeout=60 + seconds)
    return result, [json.loads(line) for line in lines[:-1]]


def per_cpu_s(windows, field):
    """Median over windows of `field` per CPU-second of the server process."""
    return statistics.median(w[field] / w["server_cpu_s"] for w in windows)


def latency_us(windows, shape):
    """The run's latency: a low quantile of the windows' p50s (see
    kLatencyQuantile in loadgen.hpp)."""
    p50s = sorted(w["p50_us"] for w in windows)
    pos = shape["latency_quantile"] * (len(p50s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(p50s) - 1)
    return p50s[lo] + (p50s[hi] - p50s[lo]) * (pos - lo)


def run_serve(seed, seconds, trace, workdir, shape):
    total = {"attempted": 0, "failed": 0, "failures": []}
    rows = os.path.join(workdir, "rows.bin")
    rows_result, _ = tool("rows", "--out", rows)
    merge(total, rows_result)

    if not trace:
        # Every set-up launch also takes its share of the timed windows, so a
        # launch that lands badly on the host weighs a share, not all.
        setups, trains, rss, windows = [], [], [], []
        samples = os.path.join(workdir, "samples.txt")
        for i in range(shape["setups"]):
            server = Server(workdir, str(i), False, shape["threads"])
            try:
                last = i == shape["setups"] - 1
                result, launch = load([server], rows, "miss", seed, seconds / shape["setups"],
                                      *(["--samples", samples] if last else []))
                merge(total, result)
                if last:
                    # Untimed: fresh keys miss once, then must hit with the
                    # very bytes their miss returned.
                    hits, _ = load([server], rows, "hit", seed, 0,
                                   "--skip", int(result["values"]["keys_used"]))
                    merge(total, hits)
                windows += launch
                print("launch %d: ready %.2f s, warm-up %.2f s, median %.0f per server CPU-s"
                      % (i, server.ready_s, result["values"]["warm_s"], per_cpu_s(launch, "ok")),
                      file=sys.stderr)
                setups.append(server.ready_s + result["values"]["warm_s"])
                trains.append(server.train_cpu_s)
                rss.append(server.peak_rss_mb())
            finally:
                server.stop()
        oracle, _ = tool("oracle", "--model", server.model, "--rows", rows, "--samples", samples)
        merge(total, oracle)
        return total, {
            "setup_s": statistics.median(setups),
            "train_s": statistics.median(trains),
            "test_fidelity": oracle["values"]["fidelity"],
            "explain_per_s": per_cpu_s(windows, "ok"),
            "counterfactual_per_s": per_cpu_s(windows, "cf_ok"),
            "latency_p50_ms": latency_us(windows, shape) / 1e3,
            "peak_rss_mb": statistics.median(rss),
        }

    # Traced run: an untraced server (the measured configuration) and a
    # --trace one, in alternating windows; layer figures come from the
    # untraced server's own metrics and from agua_perf probes on its model.
    plain = Server(workdir, "plain", False, shape["threads"])
    traced = Server(workdir, "traced", True, shape["threads"])
    try:
        before = plain.metrics()
        result, windows = load([plain, traced], rows, "miss", seed, 2 * seconds)
        merge(total, result)
        after = plain.metrics()
        per_port = [[w for w in windows if w["port"] == p] for p in (0, 1)]
        # Transport is judged on hits, which carry no core work: a short hit
        # phase on fresh keys of the same sequence.
        hit_result, hit_windows = load([plain], rows, "hit", seed, 1,
                                       "--skip", int(result["values"]["keys_used"]))
        merge(total, hit_result)
    finally:
        plain.stop()
        traced.stop()

    def delta(name, field=None):
        if field is None:
            return counter(after, name) - counter(before, name)
        return hist(after, name, field) - hist(before, name, field)

    values = {"apps.bundle_s": rows_result["values"]["apps.bundle_s"]}
    batch_mean = delta("agua.serve.batch.size", "sum") / max(1, delta("agua.serve.batch.size", "count"))
    probe, _ = tool("probe", "--model", plain.model, "--rows", rows, "--seed", seed,
                    "--each-batch", max(1.0, batch_mean))
    merge(total, probe)
    values.update(probe["values"])
    stages = {"describe": "core.pipeline.describe_s", "embed_label": "core.pipeline.embed_label_s",
              "train_concept": "core.pipeline.train_concept_s",
              "train_output": "core.pipeline.train_output_s"}
    for stage, name in stages.items():
        values[name] = hist(after, "agua.pipeline." + stage, "sum")
    values["core.labeler.fit_s"] = hist(after, "agua.labeler.fit", "sum")
    whole = hist(after, "agua.pipeline.train", "sum")
    stage_sum = sum(values[n] for n in stages.values())
    check(total, abs(stage_sum - whole) <= 0.05 * whole,
          "pipeline stages sum to %.3f s of %.3f s" % (stage_sum, whole))
    values["text.embed_us"] = 1e6 * hist(after, "agua.text.embed", "sum") / max(
        1, hist(after, "agua.text.embed", "count"))
    values["serve.batch_size_mean"] = batch_mean
    values["serve.queue_wait_ms_p50"] = 1e3 * hist(after, "agua.overload.sojourn", "p50")
    # Pool tasks per micro-batch (the probe's figure is per offline batch).
    values["common.pool.tasks"] = delta("agua.pool.tasks") / max(1, delta("agua.serve.batches"))
    hits = delta("agua.serve.cache.hits") - result["values"]["warm_hits"]
    misses = delta("agua.serve.cache.misses") - result["values"]["warm_misses"]
    values["serve.cache.hit_ratio"] = hits / max(1, hits + misses)
    values["serve.cache.evictions"] = delta("agua.serve.cache.evictions")
    values["net.connect_us"] = statistics.median(w["connect_us"] for w in per_port[0])
    values["net.transport_us"] = latency_us(hit_windows, shape) - values["serve.inproc_hit_us"]
    # Server CPU per response, traced against untraced.
    values["obs.trace_overhead_pct"] = 100.0 * (
        per_cpu_s(per_port[0], "ok") / per_cpu_s(per_port[1], "ok") - 1.0)
    check(total, batch_mean > 1, "micro-batches did not coalesce (mean size %.3f)" % batch_mean)
    return total, values


def run_offline(seed, seconds, trace):
    result, _ = tool("offline", "--seed", seed, "--seconds", seconds, "--trace", int(trace),
                     timeout=150)
    return result, result["values"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="only prove the checks can fail, then exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()

    total, _ = tool("selftest")
    if args.selftest:
        print(json.dumps(total))
        sys.exit(0 if total["failed"] == 0 else 1)
    shape = tool("constants")[0]["values"]
    shape["setups"], shape["threads"] = int(shape["setups"]), int(shape["threads"])

    start = host_sample()
    workdir = os.path.join(BUILD, "runs", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "offline":
            result, values = run_offline(args.seed, args.seconds, args.trace)
        else:
            result, values = run_serve(args.seed, args.seconds, args.trace, workdir, shape)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(host_line(start, host_sample()), file=sys.stderr)
    merge(total, result)
    for reason in total["failures"][:5]:
        print("check failed: " + reason, file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("workload %s did not measure %s" % (args.workload, m["name"]))
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": total["failed"] == 0, "attempted": total["attempted"],
                      "failed": total["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
