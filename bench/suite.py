"""Run every workload over several seeds and print every metric with its spread.

    python3 bench/suite.py --out .bench_results/parent [--seeds 1,2,3] [--workloads tower,...] [--trace]

Each (workload, seed) is one ``run.py`` run with the run length from
``BENCHMARK.json``; results are saved under ``--out`` for ``compare.py``.
The table gives, per workload and end-to-end metric, the median, the
quartiles and the spread (interquartile distance over the median) next to
the metric's bound, plus the fraction of ops that failed.  ``--trace`` adds
one traced run per workload and prints its per-layer metrics, including the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def run_one(workload: str, seed: int, seconds: int, trace: int, out: str) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace), "--keep", out]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main() -> int:
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    out = os.path.abspath(args.out)
    bounds = {m["name"]: m for m in config["end_to_end"]}

    print(f"{'workload':12s} {'metric':12s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload in args.workloads.split(","):
        results = [run_one(workload, seed, config["run_seconds"], 0, out) for seed in seeds]
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            print(
                f"{workload:12s} {name:12s} {metric['unit']:5s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                f" {spread(values):7.3f} {metric['bound']:6.2f}"
            )
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload:12s} {'fail_frac':12s} {'ratio':5s} {failed / attempted:12.6g}   ({failed} of {attempted} ops)")
        if args.trace:
            traced = run_one(workload, seeds[0], config["run_seconds"], 1, out)
            for name, metric in traced["metrics"].items():
                print(f"{workload:12s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
