#!/usr/bin/env python3
"""Benchmark entry point.

Builds the harness (perfbench/CMakeLists.txt) and the repository's
libraries from source, runs one workload, and prints its summary followed
by the result line: a JSON object with "correct", "attempted", "failed"
and "metrics" ({name: {"value", "unit"}}). With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list;
per-layer metrics of layers a workload does not call read 0.

    python3 perfbench/run.py --workload smallbank --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; a traced run also writes its spans there, as
spans/<workload>-seed<seed>.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"cmake configure failed, see {log_path}")
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        if subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail(f"build failed, see {log_path}")
    return os.path.join(out, "scvbench")


def run(binary, spec, workload, seed, seconds, trace):
    """Runs one workload; prints its summary; returns the result object."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--trace", f"--spans={os.path.join(spans_dir, f'{workload}-seed{seed}.json')}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(raw["metrics"]) - names)
    if unknown:
        fail(f"{workload} reported metrics BENCHMARK.json does not list: {unknown}")
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"] and not trace:
            fail(f"{workload} did not report end-to-end metric {m['name']}")
        metrics[m["name"]] = {"value": raw["metrics"].get(m["name"], 0), "unit": m["unit"]}
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads} or 'all'")

    binary = build()
    if args.workload != "all":
        print(json.dumps(run(binary, spec, args.workload, args.seed, args.seconds, args.trace)))
        return
    results = {}
    for w in workloads:
        results[w] = run(binary, spec, w, args.seed, args.seconds, args.trace)
        print(json.dumps(results[w]))
    if not all(r["correct"] for r in results.values()):
        fail("a workload failed its output checks")


if __name__ == "__main__":
    main()
