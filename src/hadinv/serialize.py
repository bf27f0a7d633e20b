"""JSON wire formats shared by the CLI and file I/O.

Matrix JSON is ``{"dim": N, "entries": [[re, im], ...]}`` row-major with
an integer N and exactly N^2 pairs of finite numbers; readers reject
anything else with ``ValueError``.  The other formats
(normal forms, subgroups, algebra bases, pair reports) are documented on
their readers/writers below.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from .algebra import AlgebraBasis
from .groups import SubgroupSet
from .hadamard import DpwForm, FourierSpec
from .invariants import InvariantReport

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "dpw_to_obj",
    "dpw_from_obj",
    "subgroup_to_obj",
    "subgroup_from_obj",
    "algebra_to_obj",
    "algebra_from_obj",
    "report_to_obj",
    "dumps",
    "load_matrix",
]


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "entries": [_pair(z) for z in m.reshape(-1)],
    }


def matrix_from_obj(obj) -> np.ndarray:
    """Matrix JSON to an N x N complex array; any malformed payload raises ``ValueError``."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must carry 'dim' and 'entries'")
    try:
        dim = operator.index(obj["dim"])
        flat = np.ascontiguousarray(obj["entries"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    if dim < 1:
        raise ValueError(f"matrix dim must be >= 1, got {dim}")
    if flat.shape != (dim * dim, 2):
        raise ValueError(f"expected {dim * dim} [re, im] entry pairs, got an array of shape {flat.shape}")
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite numbers")
    return flat.view(complex).reshape(dim, dim)


def dpw_to_obj(form: DpwForm) -> dict:
    return {
        "spec": list(form.spec.orders),
        "perm": list(form.perm),
        "phases": [_pair(z) for z in form.phases],
    }


def dpw_from_obj(obj) -> DpwForm:
    spec = FourierSpec(tuple(int(n) for n in obj["spec"]))
    perm = tuple(int(p) for p in obj["perm"])
    phases = tuple(complex(float(p[0]), float(p[1])) for p in obj["phases"])
    return DpwForm(spec=spec, perm=perm, phases=phases)


def subgroup_to_obj(subgroup: SubgroupSet) -> dict:
    return {
        "orders": list(subgroup.orders),
        "members": [list(m) for m in subgroup.sorted_members()],
    }


def subgroup_from_obj(obj) -> SubgroupSet:
    return SubgroupSet(
        orders=tuple(int(n) for n in obj["orders"]),
        members=frozenset(tuple(int(x) for x in m) for m in obj["members"]),
    )


def algebra_to_obj(algebra: AlgebraBasis) -> dict:
    return {
        "ambient_dim": algebra.ambient_dim,
        "basis": [matrix_to_obj(b) for b in algebra.basis],
    }


def algebra_from_obj(obj) -> AlgebraBasis:
    dim = int(obj["ambient_dim"])
    mats = [matrix_from_obj(m) for m in obj["basis"]]
    stack = np.stack(mats) if mats else np.zeros((0, dim, dim), dtype=complex)
    return AlgebraBasis(ambient_dim=dim, basis=stack)


def report_to_obj(report: InvariantReport) -> dict:
    return {
        "N": report.n,
        "spec": list(report.spec),
        "distinct": report.distinct,
        "conjugate": report.conjugate,
        "dimA": report.dim_a,
        "subgroup": None if report.subgroup is None else subgroup_to_obj(report.subgroup),
        "index": {"num": report.index.numerator, "den": report.index.denominator},
        "index_float": float(report.index),
        "relcomm_dims": report.relcomm_dims,
        "vertex": report.vertex,
        "entropy_h": report.entropy_h,
        "entropy_upper": report.entropy_upper,
        "certified": report.certified,
        "flags": list(report.flags),
    }


def dumps(obj) -> str:
    """Stable JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        return matrix_from_obj(json.load(handle))
