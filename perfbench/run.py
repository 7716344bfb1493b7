#!/usr/bin/env python3
"""Full-stack grid benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_mixed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first call builds perfbench/ (the simulated stack from src/ plus the
gridbench program) into .bench_build/perfbench with CMake; later calls only
re-check the build. The benchmark's report and, as the last stdout line, its
JSON result come from the gridbench binary.

--selftest runs the seconds-long smoke size of every workload on two seeds,
traced and untraced, and fails unless every correctness check and the
determinism gate pass and every exact count repeats across two processes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gridbench")
WORKLOADS = ("grid_mixed", "console_stream", "grid_chaos")
# Metrics measured on the host clock; everything else a run reports is an
# exact count or a virtual-time figure and must repeat for a seed.
HOST_UNITS = {"s", "ms", "us", "ns", "jobs/s", "lines/s", "s/s", "MiB"}
HOST_NAMES = {"trace.overhead_ratio"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "grid", "grid.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        # Build output goes to stderr: stdout carries only the benchmark.
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args, capture=False):
    command = [BINARY] + args
    if capture:
        return subprocess.run(command, capture_output=True, text=True)
    return subprocess.run(command)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest():
    exact = {}
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in ("0", "1"):
                proc = run_binary(["--workload", workload, "--seed", str(seed),
                                   "--seconds", "0", "--trace", trace, "--smoke"],
                                  capture=True)
                result = last_json(proc.stdout)
                ok = proc.returncode == 0 and result and result["correct"]
                print(f"{workload:15s} seed {seed} trace {trace}: "
                      f"{'ok' if ok else 'FAILED'}")
                if not ok:
                    print(proc.stdout[-3000:], proc.stderr[-2000:])
                    return 1
                if trace == "1":
                    exact[(workload, seed)] = {
                        k: v["value"] for k, v in result["metrics"].items()
                        if v["unit"] not in HOST_UNITS and k not in HOST_NAMES}
        # Exact counts repeat across processes for the same seed.
        proc = run_binary(["--workload", workload, "--seed", "1", "--seconds", "0",
                           "--trace", "1", "--smoke"], capture=True)
        again = last_json(proc.stdout)
        for name, value in exact[(workload, 1)].items():
            if again["metrics"][name]["value"] != value:
                print(f"{workload}: count {name} differs across runs: "
                      f"{value} vs {again['metrics'][name]['value']}")
                return 1
        print(f"{workload:15s} exact counts repeat across processes: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="the seconds-long size of the workload")
    parser.add_argument("--selftest", action="store_true",
                        help="smoke-run every workload with all checks")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        return selftest()
    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        command.append("--smoke")
    if args.trace == "1":
        command += ["--spans", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return run_binary(command).returncode


if __name__ == "__main__":
    sys.exit(main())
