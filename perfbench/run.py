#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench runner from source, runs one
workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload lu-4 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (from
a separate, traced run that also reports its own overhead).  A report for
people comes first; the last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Run from the root of a source checkout.  The runner is built with CMake into
.bench_build/perfbench; span dumps of traced runs land next to it.  See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("msgpath-64", "lu-4", "lu-4-fault", "ring-256")
RUN_LIMIT_S = 170          # whole run, build excluded
BUILD_LIMIT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "windar", "runtime.h")):
        log("perfbench: no library sources under %s/src" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_LIMIT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step failed: %s" % e)
            return False
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def run_segments(args, trace_out, deadline):
    """Runs the runner until its budget is spent.  A hang ends one process
    (the runner's watchdog exits it); the run then continues with the next
    job in a fresh process while measurement time remains.  Returns the
    output lines and one message per job lost to a hang or a crash."""
    lines, hangs = [], []
    first_job, measure_left = 0, float(args.seconds)
    while True:
        cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%r" % measure_left, "--trace=%d" % args.trace,
               "--first-job=%d" % first_job, "--trace-out=" + trace_out]
        if args.tiny:
            cmd.append("--tiny")
        if args.wrong_expected:
            cmd.append("--wrong-expected")
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            hangs.append("run limit reached; runner killed (workload=%s "
                         "seed=%d)" % (args.workload, args.seed))
        seg = out.splitlines()
        lines += seg
        hang = [l for l in seg if l.startswith("HANG ")]
        if proc.returncode == 0 or not hang:
            if proc.returncode not in (0, None) and not hangs:
                hangs.append("runner exited with code %s" % proc.returncode)
            return lines, hangs
        hangs += hang
        jobs = [json.loads(l[4:]) for l in seg if l.startswith("JOB ")]
        first_job = int(hang[-1].split("job=")[1].split()[0]) + 1
        first_job = max(first_job, 1 + max([j["job"] for j in jobs] or [0]))
        measure_left -= time.monotonic() - started
        if measure_left <= 0 or time.monotonic() > deadline - 5:
            return lines, hangs


def pct(values, p):
    """Nearest-rank percentile."""
    v = sorted(values)
    i = max(0, math.ceil(p / 100.0 * len(v)) - 1)
    return v[min(i, len(v) - 1)]


def top_pct(n):
    """Highest percentile with at least ten samples beyond it (0 if none)."""
    return 100.0 * (1.0 - 10.0 / n) if n > 10 else 0.0


def summarize(values):
    """median, highest percentile with ten samples beyond it, count."""
    if not values:
        return "no samples"
    tp = top_pct(len(values))
    top = " p%.1f %.6g" % (tp, pct(values, tp)) if tp else ""
    return "median %.6g%s n=%d" % (statistics.median(values), top, len(values))


def pooled(pool, key):
    """Same summary for a sample pool the runner reduced itself."""
    return "median %.6g p%.3f %.6g n=%d" % (
        pool.get(key + "_p50", 0), pool.get(key + "_top_pct", 0),
        pool.get(key + "_top", 0), pool.get(key + "_n", 0))


def median(values):
    return statistics.median(values) if values else float("nan")


def per_msg(jobs, key, denom="app_sent"):
    return median([j[key] / j[denom] for j in jobs if j.get(denom)])


def merge_pools(pools):
    """One runner process gives one pool.  After a hang the segments' pools
    are combined, each percentile weighted by its segment's sample count."""
    if len(pools) <= 1:
        return pools[0] if pools else {}
    merged = {"rss_peak_mb": max(p["rss_peak_mb"] for p in pools)}
    for key in pools[0]:
        if key == "rss_peak_mb" or key.endswith("_n"):
            continue
        base = key[:key.index("_top")] if "_top" in key else key.rsplit("_", 1)[0]
        weights = [p[base + "_n"] for p in pools]
        merged[base + "_n"] = sum(weights)
        merged[key] = (sum(w * p[key] for w, p in zip(weights, pools)) /
                       sum(weights) if sum(weights) else 0.0)
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes (self-test only)")
    ap.add_argument("--wrong-expected", action="store_true",
                    help="offset every expected value (self-test only)")
    args = ap.parse_args()

    if not build():
        return 1
    t0 = time.monotonic()
    out_dir = os.path.join(BUILD_DIR, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    trace_out = stem + "-spans.csv"
    lines, hangs = run_segments(args, trace_out, t0 + RUN_LIMIT_S)
    with open(stem + ".log", "w") as f:  # every job line, for diagnosis
        f.write("\n".join(lines + hangs) + "\n")

    config = [json.loads(l[7:]) for l in lines if l.startswith("CONFIG ")]
    jobs = [json.loads(l[4:]) for l in lines if l.startswith("JOB ")]
    pools = [json.loads(l[5:]) for l in lines if l.startswith("POOL ")]
    pool = merge_pools(pools)

    attempted = len(jobs) + len(hangs)
    failed = sum(1 for j in jobs if not j["ok"]) + len(hangs)
    timed = [j for j in jobs if not j["warmup"]]
    ft = [j for j in timed if j["side"] == "ft" and not j["traced"]]
    ft_traced = [j for j in timed if j["side"] == "ft" and j["traced"]]
    raw = [j for j in timed if j["side"] == "raw"]

    def col(js, key):
        return [j[key] for j in js]

    report = []
    if args.trace == 0:
        metrics = {
            "setup_s": (median(col(ft, "setup_ms")) / 1e3, "s"),
            "solve_ms": (median(col(ft, "solve_ms")), "ms"),
            "msgs_per_s": (median(col(ft, "msgs_per_s")), "1/s"),
            # Each job's percentile, median over jobs: a burst of host noise
            # spoils a few jobs, not the run.
            "rtt_p50_us": (median(col(ft, "rtt_p50_us")), "us"),
            "overhead_ratio": (median(col(ft, "solve_ms")) /
                               median(col(raw, "solve_ms")), "ratio"),
            "rss_peak_mb": (pool.get("rss_peak_mb", float("nan")), "MB"),
        }
        report += [
            "setup_ms   (ft)  " + summarize(col(ft, "setup_ms")),
            "solve_ms   (ft)  " + summarize(col(ft, "solve_ms")),
            "solve_ms   (raw) " + summarize(col(raw, "solve_ms")),
            "msgs_per_s (ft)  " + summarize(col(ft, "msgs_per_s")),
            "rtt_p99_us (ft)  " + summarize(col(ft, "rtt_p99_us")),
            "rtt_us     (ft, pooled)  " + pooled(pool, "rtt_us"),
        ]
    else:
        ckpt = [j for j in ft_traced if j.get("checkpoints")]
        respawn = [r for j in ft_traced for r in j.get("respawn_ms", [])]
        metrics = {
            # End to end, but too sensitive to CPU steal for a bound: taken
            # from the untraced FT jobs of this run.
            "rtt_p99_us": (median(col(ft, "rtt_p99_us")), "us"),
            "windar.send_ns.p50": (pool.get("send_ns_p50", 0), "ns"),
            "windar.send_ns.p99": (pool.get("send_ns_p99", 0), "ns"),
            "windar.recv_wait_ns.p50": (pool.get("recv_wait_ns_p50", 0), "ns"),
            "windar.recv_wait_ns.p99": (pool.get("recv_wait_ns_p99", 0), "ns"),
            "windar.track_ns_per_msg": (per_msg(ft_traced, "track_ns"), "ns"),
            "windar.piggyback_b_per_msg": (
                per_msg(ft_traced, "piggyback_bytes"), "B"),
            "windar.ckpt_stall_us": (
                per_msg(ckpt, "ckpt_stall_ns", "checkpoints") / 1e3, "us"),
            "windar.log_peak_kb": (
                median(col(ft_traced, "log_peak_bytes")) / 1024, "KiB"),
            "windar.resent_msgs": (median(col(ft_traced, "resent_msgs")),
                                   "count"),
            "windar.rollback_broadcasts": (
                median(col(ft_traced, "rollback_broadcasts")), "count"),
            "windar.control_per_msg": (per_msg(ft_traced, "control_msgs"),
                                       "count"),
            "net.raw_msgs_per_s": (median(col(raw, "msgs_per_s")), "1/s"),
            "net.raw_rtt_p50_us": (median(col(raw, "rtt_p50_us")), "us"),
            "net.raw_rtt_p99_us": (median(col(raw, "rtt_p99_us")), "us"),
            "net.packets_per_msg": (per_msg(ft_traced, "packets_sent"),
                                    "count"),
            "net.dropped": (median(col(ft_traced, "dropped")), "count"),
            "util.allocs_per_msg": (per_msg(ft_traced, "allocs"), "count"),
            "util.alloc_b_per_msg": (per_msg(ft_traced, "alloc_bytes"), "B"),
            "util.recycled_per_msg": (per_msg(ft_traced, "packets_recycled"),
                                      "count"),
            "mp.raw_solve_ms": (median(col(raw, "solve_ms")), "ms"),
            "npb.compute_ms": (median(col(ft_traced, "compute_ms")), "ms"),
            "trace.overhead_pct": (
                100.0 * (median(col(ft_traced, "solve_ms")) /
                         median(col(ft, "solve_ms")) - 1.0), "%"),
            "failed_frac": (failed / attempted if attempted else 1.0,
                            "fraction"),
        }
        report += [
            "rtt_p99_us (ft untraced) " + summarize(col(ft, "rtt_p99_us")),
            "solve_ms   (ft traced)   " + summarize(col(ft_traced, "solve_ms")),
            "solve_ms   (ft untraced) " + summarize(col(ft, "solve_ms")),
            "solve_ms   (raw traced)  " + summarize(col(raw, "solve_ms")),
            "rtt_us     (raw, pooled) " + pooled(pool, "raw_rtt_us"),
            "send_ns      (pooled)    " + pooled(pool, "send_ns"),
            "recv_wait_ns (pooled)    " + pooled(pool, "recv_wait_ns"),
            # Reported here only: it is 0 on the workloads without a fault.
            "windar.respawn_ms " + summarize(respawn),
            "spans written to " + os.path.relpath(trace_out, ROOT),
        ]

    for c in config[:1]:
        print("config " + json.dumps(c, sort_keys=True))
    for line in report:
        print(line)
    for h in hangs:
        print(h)
    for j in jobs:
        if not j["ok"]:
            print("FAILED job=%d side=%s seed=%d: %s" % (
                j["job"], j["side"], j["seed"], j["why"]))
    print("jobs: %d attempted, %d failed" % (attempted, failed))
    for name, (value, unit) in metrics.items():
        print("%-28s %.6g %s" % (name, value, unit))

    finite = all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": failed == 0 and attempted > 0 and finite,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
