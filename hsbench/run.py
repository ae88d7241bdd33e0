#!/usr/bin/env python3
"""Repository benchmark entry point.

One run:
    python3 hsbench/run.py --workload w2 --seed 1 --seconds 20 --trace 0

builds the benchmark binary from source into .bench_build/hsbench (CMake package in
this directory, libraries straight from ../src), runs one session and
prints the binary's JSON result as the last stdout line. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones.

Steadiness report:
    python3 hsbench/run.py --report 10 [--workloads w2,w1] [--seconds 20]

runs every workload N times untraced (seeds 1..N) plus once traced, and
prints, per end-to-end metric, the median, the quartiles, the quartile
spread and (max-min)/median, then the traced-vs-untraced overhead.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hsbench")
BINARY = os.path.join(BUILD, "hsbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in its own process group: on timeout the whole group
    (make and compiler children included) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True, start_new_session=True,
                            **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    """Configure until a build tree exists, then incrementally build the
    binary. Build output goes to stderr so stdout stays the result
    channel."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "hsbench"])
    for cmd in steps:
        proc = run_group(cmd, BUILD_TIMEOUT_S, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


def run_once(workload, seed, seconds, trace):
    """Run the benchmark binary; return (result dict, stdout lines before it)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("hsbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line")
    e2e, per_layer, _ = metric_names()
    expected = per_layer if trace else e2e
    missing = [m for m in expected if m not in result["metrics"]]
    if missing:
        raise RuntimeError("hsbench did not report: " + ", ".join(missing))
    return result, lines[:-1]


def side_line(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return {}


def print_failures(tag, lines):
    """Echo the binary's failure breakdown and every window that NACKed,
    answered wrongly or lost a reply."""
    for line in lines:
        if " failed (" in line or ("sent," in line and
                                   " 0 nack, 0 wrong, 0 missing" not in line):
            print("  %s: %s" % (tag, line.strip()))


def report(n, workloads, seconds):
    e2e, _, all_workloads = metric_names()
    for wl in workloads or all_workloads:
        values = {m: [] for m in e2e}
        tails = {}
        failures = 0
        for seed in range(1, n + 1):
            result, lines = run_once(wl, seed, seconds, 0)
            if seed == 1:
                print("%s %s" % (wl, json.dumps(side_line(lines, "env"))))
            failures += result["failed"]
            if result["failed"]:
                print_failures("seed %d" % seed, lines)
            for m in e2e:
                values[m].append(result["metrics"][m]["value"])
            for m, v in side_line(lines, "tails").items():
                tails.setdefault(m, []).append(v)
        traced, lines = run_once(wl, 1, seconds, 1)
        traced_e2e = side_line(lines, "traced-e2e")
        if traced["failed"]:
            print_failures("traced", lines)
        print("%s: %d untraced runs, %d failed ops, traced run correct=%s"
              % (wl, n, failures, traced["correct"]))
        print("  %-16s %12s %12s %12s %8s %8s %9s" %
              ("metric", "median", "q1", "q3", "iqr/med", "rng/med",
               "traced"))
        rows = [(m, values[m], "") for m in e2e]
        rows += [(m, v, "not gated") for m, v in tails.items()]
        for m, v, note in rows:
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(v) - min(v)) / med if med else 0.0
            over = ""
            if m in traced_e2e and med:
                over = "%+.1f%%" % (100.0 * (traced_e2e[m] - med) / med)
            print("  %-16s %12.6g %12.6g %12.6g %8.3f %8.3f %9s %s" %
                  (m, med, q1, q3, iqr, rng, over, note))
        print("  tracing overhead of the prune call (in-process): %+.1f%%"
              % (100.0 * traced["metrics"]["trace.prune_overhead"]["value"]))
        sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", type=int, metavar="N")
    ap.add_argument("--workloads", help="comma list for --report")
    args = ap.parse_args()
    try:
        build()
        if args.report:
            wls = args.workloads.split(",") if args.workloads else None
            report(args.report, wls, args.seconds)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        result, lines = run_once(args.workload, args.seed, args.seconds,
                                 args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        log("hsbench: %s" % exc)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
