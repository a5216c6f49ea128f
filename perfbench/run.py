#!/usr/bin/env python3
"""Build the simulator from source and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only re-check the build. Build output goes to stderr, so stdout carries just
the benchmark's lines, the last of which is its JSON result. The exit status
is the benchmark's: nonzero when the build fails, an argument is bad or a
correctness check fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ppfs_bench")
WORKLOADS = ("paper_prefetch", "tenant_open", "checkpoint_write", "all")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def build():
    """Configure and build under a lock, so concurrent calls share one build."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "build.ninja")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "ppfs_bench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    out = proc.stdout.rstrip("\n")
    last = out.rsplit("\n", 1)[-1] if out else ""
    try:
        result = json.loads(last)
        well_formed = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        well_formed = False
    if not well_formed:
        sys.stdout.write(out + "\n" if out else "")
        print("run.py: benchmark printed no result", file=sys.stderr)
        return proc.returncode or 1
    print(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
