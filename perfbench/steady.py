#!/usr/bin/env python3
"""Steadiness check: runs perfbench/run.py on several seeds per workload and
prints, for each metric, the median and quartiles of its values
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
the metric's bound from BENCHMARK.json. Metrics that must repeat exactly
(counts, simulated ticks, verdicts) show a spread of 0.

    python3 perfbench/steady.py --seeds 10 --seconds 20
    python3 perfbench/steady.py --workloads tracecheck --seeds 5 --trace 1

Exits non-zero when a run fails its output checks, or when an end-to-end
spread other than setup_s's exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all", help="comma-separated, or 'all'")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout)
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                print(proc.stdout)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if args.trace == 0), flush=True)

        print(f"\n{workload}: {args.seeds} seeds, {seconds:g} s per run")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
                if flag == "OVER" and name != "setup_s":
                    ok = False
            print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
