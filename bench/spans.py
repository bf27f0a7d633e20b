"""Spans around hadinv's public functions, recorded from the benchmark's side.

``Tracer.install`` wraps each traced function at every hadinv module
attribute that holds it (``hadinv.algebra.nullspace`` and the
``hadinv.invariants`` binding of ``commutant`` alike), so calls made inside
the package are seen too.  Each span records its name, start, end, parent
span and op id, plus a few counts read from the call's arguments and
result.  Spans stay in memory; ``span_stats`` and ``layer_metrics`` turn
them into per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

# (module, function) pairs wrapped in a traced run, named by defining module.
TRACED = (
    ("linalg", "nullspace"),
    ("linalg", "subspace_intersection"),
    ("linalg", "orthonormal_basis"),
    ("linalg", "classify"),
    ("algebra", "commutant"),
    ("algebra", "intersect_algebras"),
    ("algebra", "span_algebra"),
    ("algebra", "diag_conj_algebra"),
    ("algebra", "is_commuting_square"),
    ("algebra", "vertex_model_square"),
    ("hadamard", "require_hadamard"),
    ("hadamard", "decompose_dpw"),
    ("hadamard", "perm_phase_certificate"),
    ("hadamard", "clock_vec"),
    ("hadamard", "block_unitary"),
    ("groups", "extract_subgroup"),
    ("groups", "realize_subgroup"),
    ("invariants", "pair_report"),
    ("invariants", "modified_entropy"),
    ("serialize", "load_matrix"),
    ("serialize", "dumps"),
    ("cli", "main"),
    ("verify", "run_verification"),
)


def _nullspace_counts(args, kwargs, result):
    rows, cols = np.shape(args[0])
    # bytes of the complex SVD input, computed from its shape, not measured
    return {"mb": rows * cols * 16 / 1e6}


def _orthonormal_counts(args, kwargs, result):
    kept = len(result)
    offered = len(args[0]) if hasattr(args[0], "__len__") else kept
    return {"offered": offered, "kept": kept}


def _extract_counts(args, kwargs, result):
    # every one of the |G| = N exponent vectors is tested
    return {"tested": np.shape(args[0])[0], "found": result.size}


def _dumps_counts(args, kwargs, result):
    return {"bytes": len(result)}


COUNTS = {
    "linalg.nullspace": _nullspace_counts,
    "linalg.orthonormal_basis": _orthonormal_counts,
    "groups.extract_subgroup": _extract_counts,
    "serialize.dumps": _dumps_counts,
}


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict | None = None


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's outermost span belongs to whatever the
                # main thread was running when the worker picked it up
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                sid = next(self._ids)
            span = Span(sid, parent, self.op, name, time.perf_counter())
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function at every hadinv module attribute holding it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "hadinv" or k.startswith("hadinv.")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"hadinv.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans) -> dict:
    """Per function name: calls, inclusive seconds, self seconds and summed counts.

    Inclusive seconds count only spans with no ancestor of the same name, so
    recursion is not counted twice.  Self seconds are each span's duration
    minus the part of it covered by its child spans.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))

    def nested_in_same(s: Span) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == s.name:
                return True
            p = by_id.get(p.parent)
        return False

    stats: dict[str, dict] = {}
    for s in spans:
        st = stats.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        dur = s.end - s.start
        st["calls"] += 1
        if not nested_in_same(s):
            st["s"] += dur
        st["self_s"] += dur - _covered(children.get(s.sid, ()), s.start, s.end)
        for key, value in (s.counts or {}).items():
            st["counts"][key] = st["counts"].get(key, 0) + value
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, passes: int) -> dict:
    """The per-layer metric values, per pass over the workload's ops.

    A function the workload never calls reports 0 for every stat, and a
    ratio with nothing to divide by reports 0.
    """
    def get(name, key):
        st = stats.get(name)
        if st is None:
            return 0.0
        if key in ("calls", "s", "self_s"):
            return st[key] / passes
        return st["counts"].get(key, 0) / passes

    out = {}
    for metric in LAYER_METRICS:
        module, func, stat = metric.rsplit(".", 2)
        name = f"{module}.{func}"
        if stat == "keep_ratio":
            out[metric] = _ratio(get(name, "kept"), get(name, "offered"))
        elif stat == "hit_ratio":
            out[metric] = _ratio(get(name, "found"), get(name, "tested"))
        else:
            out[metric] = get(name, stat)
    return out


LAYER_METRICS = (
    "linalg.nullspace.calls",
    "linalg.nullspace.s",
    "linalg.nullspace.mb",
    "linalg.subspace_intersection.s",
    "linalg.orthonormal_basis.calls",
    "linalg.orthonormal_basis.s",
    "linalg.orthonormal_basis.keep_ratio",
    "linalg.classify.calls",
    "linalg.classify.s",
    "algebra.commutant.s",
    "algebra.commutant.self_s",
    "algebra.intersect_algebras.self_s",
    "algebra.span_algebra.s",
    "algebra.diag_conj_algebra.s",
    "algebra.is_commuting_square.s",
    "algebra.vertex_model_square.s",
    "algebra.vertex_model_square.self_s",
    "hadamard.require_hadamard.calls",
    "hadamard.require_hadamard.s",
    "hadamard.decompose_dpw.s",
    "hadamard.perm_phase_certificate.s",
    "hadamard.clock_vec.calls",
    "hadamard.clock_vec.s",
    "hadamard.block_unitary.s",
    "groups.extract_subgroup.calls",
    "groups.extract_subgroup.s",
    "groups.extract_subgroup.hit_ratio",
    "groups.realize_subgroup.s",
    "invariants.pair_report.calls",
    "invariants.pair_report.s",
    "invariants.pair_report.self_s",
    "invariants.modified_entropy.calls",
    "invariants.modified_entropy.s",
    "serialize.load_matrix.s",
    "serialize.dumps.s",
    "serialize.dumps.bytes",
    "cli.main.self_s",
    "verify.run_verification.self_s",
)
