"""Output checker for the benchmark's CLI ops.

``Checker.check(op, rc, out)`` returns the list of problems with one op's
exit code and stdout; an op with any problem counts as failed.  Structural
invariants are compared with ``reference.json``, which holds the outputs of
the code the benchmark was introduced with, on the same pair templates; it
is regenerated with ``python3 bench/make_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from fractions import Fraction

ENTROPY_TOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _index_ok(index, n: int, dim_a) -> bool:
    return (
        isinstance(dim_a, int)
        and dim_a >= 1
        and Fraction(index["num"], index["den"]) == Fraction(n * n, dim_a)
    )


def _entropy_problems(row) -> list[str]:
    h, upper = row["entropy_h"], row["entropy_upper"]
    if not isinstance(h, float) or not isinstance(upper, float):
        return ["entropy values missing"]
    if h > upper + ENTROPY_TOL:
        return [f"entropy_h {h} exceeds entropy_upper {upper}"]
    return []


class Checker:
    """Checks op outputs; remembers sweep digests to compare ``--jobs`` settings."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._sweeps: dict[tuple, str] = {}

    def check(self, op: dict, rc: int, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return getattr(self, "_" + op["check"].replace("-", "_"))(op, out)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _report(self, op: dict, out: str) -> list[str]:
        rep = json.loads(out)
        ref = self.reference["report"][op["label"]]
        n = math.prod(op["spec"])
        problems = []
        for key in ("dimA", "relcomm_dims", "certified", "distinct", "conjugate", "subgroup"):
            if rep[key] != ref[key]:
                problems.append(f"{key} {rep[key]!r} differs from reference {ref[key]!r}")
        if not _index_ok(rep["index"], n, rep["dimA"]):
            problems.append(f"index {rep['index']} is not N^2/dimA")
        if op["divisors"] is not None:
            expected = math.prod(op["divisors"])
            if rep["dimA"] != expected:
                problems.append(f"dimA {rep['dimA']} is not prod(divisors) = {expected}")
            if rep["subgroup"] is None or len(rep["subgroup"]["members"]) != expected:
                problems.append("subgroup size differs from dimA")
        return problems + _entropy_problems(rep)

    def _sweep_random(self, op: dict, out: str) -> list[str]:
        problems = []
        digest = hashlib.sha256(out.encode()).hexdigest()
        key = (op["spec"], op["seed"], op["samples"])
        first = self._sweeps.setdefault(key, digest)
        if first != digest:
            problems.append("sweep JSON is not byte-identical to the first op with this seed")
        obj = json.loads(out)
        if obj["violations"] != 0:
            problems.append(f"{obj['violations']} violations")
        rows = obj["rows"]
        if [row["sample"] for row in rows] != list(range(op["samples"])):
            problems.append("rows do not cover the samples in order")
        dims = self.reference["sweep-random"][op["spec"]]["dimA"]
        for row in rows:
            if row["violations"]:
                problems.append(f"sample {row['sample']}: {row['violations']}")
            if row["dimA"] not in dims:
                problems.append(f"sample {row['sample']}: dimA {row['dimA']} not in {dims}")
            problems.extend(_entropy_problems(row))
        return problems

    def _sweep_realize(self, op: dict, out: str) -> list[str]:
        obj = json.loads(out)
        ref = self.reference["sweep-realize"][op["spec"]]
        n = math.prod(int(x) for x in op["spec"].split(","))
        problems = []
        if obj["violations"] != 0:
            problems.append(f"{obj['violations']} violations")
        if [row["divisors"] for row in obj["rows"]] != [row["divisors"] for row in ref]:
            problems.append("divisor vectors differ from reference")
        for row, ref_row in zip(obj["rows"], ref):
            expected = math.prod(row["divisors"])
            if row["dimA"] != expected or not _index_ok(row["index"], n, expected):
                problems.append(f"divisors {row['divisors']}: dimA {row['dimA']}, index {row['index']}")
            if abs(row["entropy_h"] - ref_row["entropy_h"]) > ENTROPY_TOL:
                problems.append(f"divisors {row['divisors']}: entropy_h differs from reference")
            problems.extend(_entropy_problems(row))
        return problems

    def _verify(self, op: dict, out: str) -> list[str]:
        lines = out.splitlines()
        problems = [f"not PASS: {line}" for line in lines if not re.search(r" PASS( \(|$)", line)]
        n = op["order"]
        tower = [line for line in lines if line.startswith(f"tower-base-square-{n}:")]
        if len(tower) != 1 or f"relcomm dims {n},{n}" not in tower[0]:
            problems.append(f"no tower-base-square-{n} line with relcomm dims {n},{n}")
        return problems
