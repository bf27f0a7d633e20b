"""Run one hadinv benchmark workload and print its metrics.

    python3 bench/run.py --workload report-n64 --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The script builds the workload's inputs from the seed,
starts fresh child processes (``child.py``) that set up hadinv and run the
ops, and prints an environment header, one line per metric and, as the last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones.  ``--keep DIR`` also saves the
result, and the raw spans of a traced run, under DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from inputs import WORKLOADS, build  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SETUP_RUNS = 7  # set-ups per run whose median is setup_s, the main child's included
RUN_TIMEOUT_S = 170.0
MODULES = ("init", "algebra", "cli", "errors", "groups", "hadamard", "invariants", "linalg", "serialize", "verify")

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def layer_units() -> dict:
    units = {}
    for name in LAYER_METRICS:
        stat = name.rsplit(".", 1)[1]
        units[name] = {"calls": "count", "s": "s", "self_s": "s", "mb": "MB_computed", "bytes": "bytes"}.get(stat, "ratio")
    units.update({"cli.sweep.jobs2_speedup": "ratio", "process.cpu_s": "s", "process.wall_s": "s", "bench.trace_overhead": "ratio"})
    units.update({f"{m}.lines": "lines" for m in MODULES + ("total",)})
    return units


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    cmd = ["git", "rev-parse", "--show-toplevel", "HEAD"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def line_counts() -> dict:
    package = os.path.join(ROOT, "src", "hadinv")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "r", encoding="utf-8") as handle:
                counts[name[:-3]] = sum(1 for _ in handle)
    out = {f"{m}.lines": float(counts.get("__init__" if m == "init" else m, 0)) for m in MODULES}
    out["total.lines"] = float(sum(counts.values()))
    return out


def cpu_ticks() -> list[int] | None:
    """The machine-wide ``cpu`` line of /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_frac(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor took from this machine between two readings."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def run_child(workdir: str, ops_path: str, deadline: float, extra: list[str]) -> dict:
    out_path = os.path.join(workdir, "child.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--root", ROOT, "--ops", ops_path, "--out", out_path]
    done = subprocess.run(cmd + extra, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"child exited with code {done.returncode}")
    with open(out_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def jobs2_speedup(ops: list[dict], passes: list[dict]) -> float:
    """Median over sweep specs of the --jobs 1 op time over the matching --jobs 2 op time."""
    ratios = []
    for p in passes:
        times = {}
        for rec in p["ops"]:
            op = ops[rec["index"]]
            if op["check"] == "sweep-random":
                times[(op["spec"], op["jobs"])] = rec["s"]
        ratios += [times[(spec, 1)] / times[(spec, 2)] for spec, jobs in times if jobs == 1 and (spec, 2) in times]
    return statistics.median(ratios) if ratios else 0.0


def tally(recs: list[dict], warmups: int, warmups_failed: int) -> tuple[int, int]:
    """(attempted, failed) over timed ops and warm-ups; an op with any problem failed."""
    return len(recs) + warmups, sum(bool(rec["problems"]) for rec in recs) + warmups_failed


def end_to_end(child: dict, setups: list[float]) -> dict:
    recs = [rec for p in child["passes"] for rec in p["ops"]]
    # a median over passes, so that one slow pass moves it less
    rates = [sum(rec["items"] for rec in p["ops"]) / sum(rec["s"] for rec in p["ops"]) for p in child["passes"]]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "op_ms_p50": statistics.median(rec["s"] for rec in recs) * 1000.0,
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer(child: dict, ops: list[dict]) -> dict:
    plain = [p for p in child["passes"] if not p["traced"]]
    traced = [p for p in child["passes"] if p["traced"]]

    def busy(p):
        return sum(rec["s"] for rec in p["ops"])

    metrics = dict(child["layers"])
    metrics["cli.sweep.jobs2_speedup"] = jobs2_speedup(ops, plain)
    metrics["process.cpu_s"] = statistics.median(sum(rec["cpu_s"] for rec in p["ops"]) for p in plain)
    metrics["process.wall_s"] = statistics.median(busy(p) for p in plain)
    metrics["bench.trace_overhead"] = statistics.median(map(busy, traced)) / metrics["process.wall_s"]
    metrics.update(line_counts())
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", default=None, help="directory to save the result and spans in")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hadinv", "cli.py")):
        print(f"error: no hadinv sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = build(args.workload, args.seed, workdir)
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as handle:
            json.dump(workload, handle)

        setups, warmup_failed = [], 0
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                alone = run_child(workdir, ops_path, deadline, ["--setup-only"])
                setups.append(alone["setup_s"])
                warmup_failed += bool(alone["warmup_problems"])
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.keep and args.trace:
            extra += ["--spans", os.path.join(args.keep, f"{args.workload}-seed{args.seed}.spans.jsonl")]
        ticks = cpu_ticks()
        child = run_child(workdir, ops_path, deadline, extra)
        steal = steal_frac(ticks, cpu_ticks())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no other run is using it

    setups.append(child["setup_s"])
    warmup_failed += bool(child["warmup_problems"])
    recs = [rec for p in child["passes"] for rec in p["ops"]]
    attempted, failed = tally(recs, len(setups), warmup_failed)

    env = dict(child["env"], commit=git_commit(), workload=args.workload, seed=args.seed, trace=args.trace)
    env["cpu_steal_frac"] = steal  # share of CPU time a hypervisor took while the main child ran
    print("# env " + json.dumps(env, sort_keys=True))
    for rec in recs:
        for problem in rec["problems"]:
            print(f"# FAIL op {rec['index']} {' '.join(workload['ops'][rec['index']]['argv'][:4])}: {problem}")

    if args.trace:
        metrics = per_layer(child, workload["ops"])
        units = layer_units()
    else:
        metrics = end_to_end(child, setups)
        units = END_TO_END_UNITS
    print(f"# {args.workload} seed={args.seed} passes={len(child['passes'])} ops={len(recs)} setups={len(setups)}")
    notes = {
        "setup_s": f"(median of {len(setups)} set-ups)",
        "items_per_s": f"(median of {len(child['passes'])} passes)",
        "op_ms_p50": f"(median of {len(recs)} ops)",
    }
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]} {notes.get(name, '')}".rstrip())
    print(f"{'fail_frac':40s} {failed / attempted:14.6g} ratio ({failed} of {attempted} ops)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.keep:
        path = os.path.join(args.keep, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(result, env=env, ops=workload["ops"], passes=child["passes"], setups=setups), handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
