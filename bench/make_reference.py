"""Regenerate ``reference.json``, the checker's record of hadinv's outputs.

    python3 bench/make_reference.py

Runs the current checkout's CLI on the benchmark's pair templates and sweep
specs for seeds 0, 1 and 2, refuses to write anything if the structural
invariants differ between seeds, and records them.  The committed file was
made from the code the benchmark was introduced with; regenerate it only
when an output format changes on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import REFERENCE_PATH  # noqa: E402
from inputs import SWEEP_REALIZE_SPECS, build  # noqa: E402
from hadinv import cli  # noqa: E402

REPORT_KEYS = ("dimA", "relcomm_dims", "certified", "distinct", "conjugate", "subgroup")


def run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {rc}")
    return json.loads(out.getvalue())


SEEDS = (0, 1, 2)


def main() -> int:
    report, sweep_random = {}, {}
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=work_root)
    try:
        for seed in SEEDS:
            for workload in ("report-n64", "sweep-small"):
                spec = build(workload, seed, workdir)
                for op in [spec["warmup"]] + spec["ops"]:
                    if op["check"] == "report":
                        rep = run(op["argv"])
                        found = {key: rep[key] for key in REPORT_KEYS}
                        if report.setdefault(op["label"], found) != found:
                            raise SystemExit(f"{op['label']}: invariants differ between seeds")
                    elif op["check"] == "sweep-random":
                        dims = {row["dimA"] for row in run(op["argv"])["rows"]}
                        sweep_random.setdefault(op["spec"], set()).update(dims)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no benchmark run is using it

    sweep_realize = {}
    for spec in SWEEP_REALIZE_SPECS:
        rows = run(["sweep", "--spec", spec, "--mode", "realize"])["rows"]
        sweep_realize[spec] = [{key: row[key] for key in ("divisors", "dimA", "entropy_h")} for row in rows]

    reference = {
        "report": report,
        "sweep-random": {spec: {"dimA": sorted(dims)} for spec, dims in sweep_random.items()},
        "sweep-realize": sweep_realize,
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH} from seeds {SEEDS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
