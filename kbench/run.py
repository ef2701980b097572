#!/usr/bin/env python3
"""Builds and runs the KadoP end-to-end benchmark (see kbench/README.md).

One run, from the repository root:

    python3 kbench/run.py --workload serve_zipf --seed 1 --seconds 10 --trace 0

builds `kbench` from source into .bench_build/kbench (CMake; the first run
compiles the KadoP libraries), runs one workload in its own process and
relays its output. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The exit code is non-zero
when the oracle finds a wrong answer or the build or run fails. Artifacts
(provenance, detail, traces) go to .bench_build/kbench_out.

Other modes:

    python3 kbench/run.py --self-test
        builds and runs the benchmark's own tests (percentile helper,
        same-seed determinism, index oracle).
    python3 kbench/run.py --summary [--workload W] [--seeds 1,2,3,4,5]
                          [--holdout 101] [--seconds 10]
        runs each workload once per seed and prints every end-to-end
        metric's median and quartiles over the seeds, the spread
        (q3 - q1) / median, and the value on a held-out seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kbench")
OUT = os.path.join(ROOT, ".bench_build", "kbench_out")
WORKLOADS = ("serve_zipf", "long_list", "publish_bulk")
RUN_TIMEOUT_S = 175


def fail(message):
    print("kbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no KadoP sources under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    # Build output goes to stderr: stdout's last line is the result.
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def run_once(binary, workload, seed, seconds, trace, relay):
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if relay:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def summary(args):
    binary = build("kbench")
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = [args.workload] if args.workload else WORKLOADS
    for workload in workloads:
        values = {}
        units = {}
        for seed in seeds:
            rc, result = run_once(binary, workload, seed, args.seconds,
                                  args.trace, relay=False)
            if rc != 0 or result is None:
                fail("%s seed %d failed (exit %d)" % (workload, seed, rc))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        _, held = run_once(binary, workload, args.holdout, args.seconds,
                           args.trace, relay=False)
        print("%s (seeds %s, held-out seed %d)" %
              (workload, args.seeds, args.holdout))
        print("  %-36s %12s %12s %12s %8s %12s" %
              ("metric", "q1", "median", "q3", "spread", "held-out"))
        for name, vals in values.items():
            q1, med, q3 = (statistics.quantiles(vals, n=4)
                           if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else float("nan")
            held_value = held["metrics"][name]["value"] if held else float(
                "nan")
            print("  %-36s %12.6g %12.6g %12.6g %8.3f %12.6g %s" %
                  (name, q1, med, q3, spread, held_value, units[name]))
        sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--holdout", type=int, default=101)
    args = parser.parse_args()

    if args.self_test:
        test = build("kbench_test")
        sys.exit(subprocess.run([test]).returncode)
    if args.summary:
        summary(args)
        return
    if args.workload is None:
        fail("--workload is required")
    binary = build("kbench")
    rc, result = run_once(binary, args.workload, args.seed, args.seconds,
                          args.trace, relay=True)
    if result is None and rc == 0:
        rc = 1
    sys.exit(rc)


if __name__ == "__main__":
    main()
