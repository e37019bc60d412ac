#!/usr/bin/env python3
"""End-to-end benchmark of vdb: builds vdbbench and runs one workload.

    python3 vdbbench/run.py --workload advisor-fig5|design-search|tenants \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
vdbbench program (and the engine libraries it links) under .bench_build/. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones. The exit code is 1 when
a correctness check fails, and the build or run errors end the program
without a result line. See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

# Labels of the statements the workloads run (see vdbbench.cc).
PREPARED = ["q1", "q3", "q4", "q5", "q6", "q10", "q12", "q13", "q14", "q18"]
EXECUTED = ["q4", "q13", "lookup", "q1", "q6"]
SEARCHES = {"dp": "dynamic-programming", "greedy": "greedy",
            "exhaustive": "exhaustive"}


# ---------------------------------------------------------------------------
# Statistics.

def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n, candidates=(99.9, 99.0, 95.0, 90.0)):
    """The highest candidate percentile that leaves at least ten of n
    samples beyond it, or None below forty samples (report the median
    alone then)."""
    if n < 40:
        return None
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def median(values):
    return statistics.median(values) if values else 0.0


def tally(rounds):
    """Attempted and failed operations over all rounds of a run."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError("bad tally: %d failed of %d" % (failed, attempted))
    return attempted, failed


def self_times(spans):
    """Span id -> self time in ns: the span's duration minus the part of
    its interval covered by its direct children (overlapping children,
    e.g. from several threads, are counted once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# Metrics.

def end_to_end(raw):
    return {
        "setup_s": {"value": median(raw["setup_s"]), "unit": "s"},
        "host_s": {"value": median([r["host_s"] for r in raw["rounds"]]),
                   "unit": "s"},
    }


def details(raw):
    """The workload's own figures: medians over rounds, and for tenants
    latency percentiles over all requests."""
    rounds = raw["rounds"]
    out = {}
    for key in sorted({k for r in rounds for k in r["values"]}):
        out[key] = median([r["values"][key] for r in rounds if key in r["values"]])
    requests = raw["requests"]
    for cls in ("lookup", "report"):
        lat = [q["latency_ms"] for q in requests if q["cls"] == cls and q["ok"]]
        if not lat:
            continue
        out[cls + "_p50_ms"] = percentile(lat, 50)
        tail = tail_percentile(len(lat))
        if tail is not None:
            out["%s_p%g_ms" % (cls, tail)] = percentile(lat, tail)
        out[cls + "_n"] = len(lat)
    if requests:
        ok = sum(1 for q in requests if q["ok"])
        out["ok_qps"] = ok / sum(r["host_s"] for r in rounds)
    return out


def per_layer(raw, untraced_host_s):
    """Per-layer metrics of a traced run. Per-call figures are medians over
    the run's spans; totals are per round. A layer the workload does not
    use reads 0."""
    spans = raw["spans"]
    selfs = self_times(spans)
    rounds = raw["rounds"]
    n_rounds = len(rounds)

    def named(name, label=None):
        return [s for s in spans
                if s["name"] == name and (label is None or s["label"] == label)]

    def secs(s):
        return (s["end_ns"] - s["start_ns"]) / 1e9

    def attr(s, key):
        return s["attrs"].get(key, 0.0)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    # Ingest.
    tpch = named("datagen.GenerateTpch")
    calib_db = named("datagen.GenerateCalibrationDb")
    loads = [s for s in spans if s["name"].startswith("datagen.")]
    load_s = sum(secs(s) for s in loads)
    put("load.tpch_s", median([secs(s) for s in tpch]), "s")
    put("load.calib_db_s", median([secs(s) for s in calib_db]), "s")
    put("load.rows_per_s",
        sum(attr(s, "rows") for s in loads) / load_s if load_s else 0, "1/s")
    put("load.heap_pages", median([attr(s, "heap_pages") for s in tpch]), "count")

    # Calibration.
    grids = named("calib.CalibrateGrid")
    queries = sum(attr(s, "queries") for s in grids)
    put("calib.grid_s", median([secs(s) for s in grids]), "s")
    put("calib.points", median([attr(s, "points") for s in grids]), "count")
    put("calib.queries", median([attr(s, "queries") for s in grids]), "count")
    put("calib.query_ms",
        1e3 * sum(secs(s) for s in grids) / queries if queries else 0, "ms")

    # What-if probes and search, per traced round.
    solves = named("core.SolveDesignProblem") + named("core.Advisor.Recommend")
    probes = sum(attr(s, "probes") for s in solves)
    probe_s = sum(attr(s, "probe_s") for s in solves)
    put("whatif.probes", probes / n_rounds, "count")
    put("whatif.cache_hits", sum(attr(s, "cache_hits") for s in solves) / n_rounds,
        "count")
    put("whatif.probe_ms", 1e3 * probe_s / probes if probes else 0, "ms")
    for q in PREPARED:
        put("whatif.prepare_ms." + q,
            1e3 * median([secs(s) for s in named("exec.Prepare", q)]), "ms")
    put("whatif.qerror", median(qerrors(raw)), "ratio")
    for key, label in SEARCHES.items():
        put("search.%s_s" % key,
            sum(secs(s) for s in solves if s["label"] == label) / n_rounds,
            "s")
    put("search.self_s", (sum(secs(s) for s in solves) - probe_s) / n_rounds, "s")

    # Execution: the advisor's Execute spans and the tenants' requests.
    requests = [q for q in raw["requests"] if q["ok"]]
    executes = named("exec.Execute")
    for q in EXECUTED:
        ex = [s for s in executes if s["label"] == q]
        rq = [r for r in requests if r["label"] == q]
        put("exec.query_ms." + q, median([1e3 * secs(s) for s in ex] +
                                         [r["host_ms"] for r in rq]), "ms")
        put("exec.sim_ms." + q, median([attr(s, "sim_ms") for s in ex] +
                                       [r["sim_ms"] for r in rq]), "ms")
        put("exec.pages_read." + q, median([attr(s, "pages_read") for s in ex] +
                                           [r["pages_read"] for r in rq]), "count")
    put("exec.pages_pruned",
        (sum(attr(s, "pages_pruned") for s in executes) +
         sum(r["pages_pruned"] for r in requests)) / n_rounds, "count")
    exec_s = sum(selfs[s["id"]] for s in executes) / 1e9 + \
        sum(r["host_ms"] for r in requests) / 1e3
    exec_rows = sum(attr(s, "rows") for s in executes) + \
        sum(r["values"].get("exec_rows", 0) for r in rounds)
    put("exec.rows_per_s", exec_rows / exec_s if exec_s else 0, "1/s")

    # Server.
    put("server.start_s", median([secs(s) for s in named("server.Server.Start")]), "s")
    put("server.queue_ms", median([r["queue_ms"] for r in requests]), "ms")
    put("server.exec_ms", median([r["host_ms"] for r in requests]), "ms")
    put("server.wire_ms", median([r["latency_ms"] - r["queue_ms"] - r["host_ms"]
                                  for r in requests]), "ms")

    # The tracer itself.
    traced = median([r["host_s"] for r in rounds])
    put("trace.overhead", traced / untraced_host_s - 1, "ratio")
    return m


def qerrors(raw):
    """max(est/actual, actual/est) per executed statement that has a
    calibrated estimate: the advisor's statements are matched to the
    Prepare span of the same query and CPU share; tenant requests carry
    the server's estimate."""
    estimates = {(s["label"], s["attrs"].get("cpu")): s["attrs"]["est_ms"]
                 for s in raw["spans"]
                 if s["name"] == "exec.Prepare" and "est_ms" in s["attrs"]}
    pairs = []
    for s in raw["spans"]:
        key = (s["label"], s["attrs"].get("cpu"))
        if s["name"] == "exec.Execute" and key in estimates:
            pairs.append((estimates[key], s["attrs"]["sim_ms"]))
    pairs += [(q["est_ms"], q["sim_ms"]) for q in raw["requests"] if q["ok"]]
    return [max(e / a, a / e) for e, a in pairs if e > 0 and a > 0]


def summarize(raws):
    """The result line. `raws` is [untraced] or [untraced, traced]: a
    traced run reports per-layer metrics and its overhead against the
    untraced run of the same seed and length."""
    attempted, failed = tally([r for raw in raws for r in raw["rounds"]])
    checks = [c for raw in raws for c in raw["checks"]]
    correct = bool(checks) and all(c["ok"] for c in checks)
    if len(raws) == 1:
        metrics = end_to_end(raws[0])
    else:
        metrics = per_layer(raws[1], end_to_end(raws[0])["host_s"]["value"])
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Build and run.

def build():
    """Configures and builds vdbbench; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "vdbbench"], check=True, stdout=sys.stderr)
    return BUILD / "vdbbench"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["advisor-fig5", "design-search", "tenants"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="falsify one answer, to see the checks fail")
    args = parser.parse_args(argv)

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("vdbbench: build failed: %s" % e, file=sys.stderr)
        return 1
    raws = []
    for trace in range(args.trace + 1):
        cmd = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
        if args.corrupt:
            cmd.append("--corrupt")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            print("vdbbench exited with %d" % proc.returncode,
                  file=sys.stderr)
            return 1
        raws.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    result = summarize(raws)

    for check in (c for raw in raws for c in raw["checks"]):
        if not check["ok"]:
            print("CHECK FAILED %s: %s" % (check["name"], check["detail"]))
    for key, value in details(raws[0]).items():
        print("detail %s %.6g" % (key, value))
    if args.trace:
        spans = raws[1]["spans"]
        selfs = self_times(spans)
        by_name = {}
        for s in spans:
            by_name[s["name"]] = by_name.get(s["name"], 0) + selfs[s["id"]]
        for name, ns in sorted(by_name.items()):
            print("self %s %.3f s" % (name, ns / 1e9))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
