"""JSON wire formats shared by the CLI and file I/O.

Matrix JSON is ``{"dim": N, "entries": [[re, im], ...]}`` row-major with
an integer N (not a boolean) and exactly N^2 pairs of finite numbers (not
strings, ``null`` or booleans); the reader rejects anything else with
``ValueError``.  The other formats
(normal forms, subgroups, pair reports) are only written.  Every writer
emits its text through ``dumps``.
"""

from __future__ import annotations

import itertools
import json
import operator
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .groups import SubgroupSet
from .hadamard import DpwForm
from .invariants import InvariantReport

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "dpw_to_obj",
    "subgroup_to_obj",
    "index_to_obj",
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
    if isinstance(obj["dim"], bool):  # operator.index would read true as 1
        raise ValueError(f"matrix dim must be an integer, got {json.dumps(obj['dim'])}")
    try:
        dim = operator.index(obj["dim"])
        raw = np.asarray(obj["entries"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    flat = _float_entries(raw)
    if dim < 1:
        raise ValueError(f"matrix dim must be >= 1, got {dim}")
    if flat.shape != (dim * dim, 2):
        raise ValueError(f"expected {dim * dim} [re, im] entry pairs, got an array of shape {flat.shape}")
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite numbers")
    # float() reads true as 1.0 and false as 0.0, so only those values can hide a boolean
    rows, cols = np.nonzero((flat == 0.0) | (flat == 1.0))
    if any(type(obj["entries"][i][j]) is bool for i, j in zip(rows.tolist(), cols.tolist())):
        raise ValueError("matrix entries must be numbers, not booleans")
    return flat.view(complex).reshape(dim, dim)


def _float_entries(raw: np.ndarray) -> np.ndarray:
    """The entries as a float array, decided by the dtype numpy infers for them.

    Numbers (and booleans, which the caller rejects) infer a numeric dtype
    and convert as they are.  Strings, which a float conversion would parse,
    infer a string dtype and are rejected.  Integers beyond int64 and
    ``None`` infer ``object``, the one dtype whose entries are looked at one
    by one: only ints and floats pass, and an int too large for a float is
    rejected.
    """
    if raw.dtype.kind == "O":
        if any(type(x) not in (int, float) for x in raw.flat):
            raise ValueError("matrix entries must be numbers")
        try:
            return raw.astype(float)
        except OverflowError:
            raise ValueError("matrix entries must be finite numbers") from None
    if raw.dtype.kind not in "biuf":
        raise ValueError("matrix entries must be numbers")
    return np.ascontiguousarray(raw, dtype=float)


def dpw_to_obj(form: DpwForm) -> dict:
    return {
        "spec": list(form.spec.orders),
        "perm": list(form.perm),
        "phases": [_pair(z) for z in form.phases],
    }


def subgroup_to_obj(subgroup: SubgroupSet) -> dict:
    return {
        "orders": list(subgroup.orders),
        "members": [list(m) for m in subgroup.sorted_members()],
    }


def index_to_obj(index: Fraction) -> dict:
    """An exact index as ``{"num": numerator, "den": denominator}``."""
    return {"num": index.numerator, "den": index.denominator}


def report_to_obj(report: InvariantReport) -> dict:
    return {
        "N": report.n,
        "spec": list(report.spec),
        "distinct": report.distinct,
        "conjugate": report.conjugate,
        "dimA": report.dim_a,
        "subgroup": None if report.subgroup is None else subgroup_to_obj(report.subgroup),
        "index": index_to_obj(report.index),
        "index_float": float(report.index),
        "relcomm_dims": report.relcomm_dims,
        "vertex": report.vertex,
        "entropy_h": report.entropy_h,
        "entropy_upper": report.entropy_upper,
        "certified": report.certified,
        "flags": list(report.flags),
    }


class _Unsupported(Exception):
    """A value or key that ``dumps`` leaves to the stdlib encoder."""


_INDENT = "  "


def _float_text(x: float) -> str:
    """A float as the stdlib spells it: ``float.__repr__``, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return float.__repr__(x)


def _flat_list(lst: list, level: int) -> str | None:
    """One join for a list of only floats or only ints, or of equal-length lists of floats.

    The floats of a list are spelled with ``float.__repr__``; a NaN or an
    infinity (the only reprs with an ``n``) sends the list back to
    ``_encode``, as does any other list (``None``).
    """
    kinds = set(map(type, lst))
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    inner = "\n" + _INDENT * (level + 1)
    if kind is float or kind is int:
        body = ("," + inner).join(map(kind.__repr__, lst))
    elif kind is list:
        widths = set(map(len, lst))
        if len(widths) != 1 or set(map(type, itertools.chain.from_iterable(lst))) != {float}:
            return None
        # one template per row, e.g. "[\n    {},\n    {}\n  ]", filled column by column
        deeper = "\n" + _INDENT * (level + 2)
        template = "[" + deeper + ("," + deeper).join(["{}"] * widths.pop()) + inner + "]"
        columns = [map(float.__repr__, column) for column in zip(*lst)]
        body = ("," + inner).join(map(template.format, *columns))
    else:
        return None
    if "n" in body:
        return None
    return "[" + inner + body + "\n" + _INDENT * level + "]"


def _encode(o, level: int, out: list[str]) -> None:
    """Append the text of ``o`` at nesting ``level`` as ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        flat = _flat_list(o, level) if type(o) is list and o else None
        if flat is not None:
            out.append(flat)
        elif not o:
            out.append("[]")
        else:
            inner = "\n" + _INDENT * (level + 1)
            out.append("[")
            for k, value in enumerate(o):
                out.append(inner if k == 0 else "," + inner)
                _encode(value, level + 1, out)
            out.append("\n" + _INDENT * level + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        if set(map(type, o)) != {str}:
            raise _Unsupported
        inner = "\n" + _INDENT * (level + 1)
        out.append("{")
        for k, (key, value) in enumerate(sorted(o.items())):
            out.append((inner if k == 0 else "," + inner) + encode_basestring_ascii(key) + ": ")
            _encode(value, level + 1, out)
        out.append("\n" + _INDENT * level + "}")
    else:
        raise _Unsupported


def dumps(obj) -> str:
    """Stable JSON text: sorted keys, two-space indent, trailing newline.

    The text is byte for byte ``json.dumps(obj, indent=2, sort_keys=True) +
    "\\n"``.  With ``indent`` set, the stdlib takes its pure-Python encoder;
    this one writes the same text with the C string escaper and one join per
    flat list of numbers or of ``[re, im]`` pairs.  A key that is not a
    ``str``, a value of a type that JSON has no spelling for, and a
    structure too deep (or circular) for the recursion go to the stdlib call
    for the whole object, so its errors are the stdlib's too.
    """
    out: list[str] = []
    try:
        _encode(obj, 0, out)
    except (_Unsupported, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except RecursionError:
            raise ValueError("matrix JSON is nested too deeply") from None
    return matrix_from_obj(obj)
