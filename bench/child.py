"""One run of one workload, in a fresh process with a single main thread.

``run.py`` starts this script; it is not meant to be started by hand.  The
child imports hadinv from the checkout's ``src``, builds the parser, runs
one untimed warm-up op, then sends the workload's ops one after another
through ``hadinv.cli.main(argv)`` (a closed loop with one caller) in whole
passes until the time is used.  Every output is checked outside the timed
region.  In a traced run, passes alternate between untraced and traced, so
one process gives both the per-layer spans and the tracing overhead.  The
raw measurements go to the JSON file named by ``--out``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_op(cli, checker, op: dict) -> tuple[float, float, list[str]]:
    """Run one CLI command in-process and check it; return (seconds, CPU seconds, problems)."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises counts as failed; the run goes on
        err.write(traceback.format_exc(limit=3))
    elapsed = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    problems = ["raised"] if rc is None else checker.check(op, rc, out.getvalue())
    if problems and err.getvalue():
        problems.append(err.getvalue().strip())
    return elapsed, cpu, problems


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import hadinv  # noqa: E402
    from hadinv import cli  # noqa: E402
    import numpy as np  # noqa: E402

    if os.path.dirname(os.path.abspath(hadinv.__file__)) != os.path.join(src, "hadinv"):
        print(f"hadinv was imported from {hadinv.__file__}, not from {src}", file=sys.stderr)
        return 2

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, bench_dir)
    from check import Checker, load_reference  # noqa: E402

    with open(args.ops, "r", encoding="utf-8") as handle:
        workload = json.load(handle)
    checker = Checker(load_reference())

    cli.build_parser()
    warmup_problems = run_op(cli, checker, workload["warmup"])[2]
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "warmup_problems": warmup_problems, "env": environment(np)}
    if args.setup_only:
        return _write(args.out, result)

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics, span_stats  # noqa: E402

        tracer = Tracer()

    ops = workload["ops"]
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        record = {"traced": traced, "ops": []}
        wall0 = time.perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(passes) * len(ops) + index
            elapsed, cpu, problems = run_op(cli, checker, op)
            record["ops"].append(
                {"index": index, "s": elapsed, "cpu_s": cpu, "items": op["items"], "problems": problems}
            )
        record["wall_s"] = time.perf_counter() - wall0
        if traced:
            tracer.uninstall()
        passes.append(record)
        used = time.perf_counter() - start
        longest = max(p["wall_s"] for p in passes)
        need_traced = tracer is not None and len(passes) < 2
        if not need_traced and used + longest > args.seconds:
            break

    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        traced_passes = sum(p["traced"] for p in passes)
        result["layers"] = layer_metrics(span_stats(tracer.spans), traced_passes)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for s in tracer.spans:
                    handle.write(json.dumps([s.sid, s.parent, s.op, s.name, s.start, s.end, s.counts]) + "\n")
    return _write(args.out, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
