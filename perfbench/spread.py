#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tenant_open --seeds 1-10 --seconds 10

For every end-to-end metric (or per-layer metric with --trace 1) it prints
the median over the seeds and the quartile spread as a share of the median,
(Q3 - Q1) / median with Python's statistics.quantiles(values, n=4), next to
the metric's bound from BENCHMARK.json. Runs are sequential; a run that
fails stops the script with its exit status.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    print(f"{'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:28} {med:14.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
