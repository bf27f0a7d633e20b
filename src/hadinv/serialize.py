"""JSON wire formats shared by the CLI and file I/O.

Matrix JSON is ``{"dim": N, "entries": [[re, im], ...]}`` row-major with
an integer N (not a boolean) and exactly N^2 pairs of finite numbers (not
strings, ``null`` or booleans); ``matrix_from_obj`` is its one reader and
rejects anything else with ``ValueError``.  ``pairs`` is the one writer of
``[re, im]`` lists.  The other formats (normal forms, subgroups, pair
reports) are only written.  Every writer emits its text through ``dumps``.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .groups import SubgroupSet
from .hadamard import DpwForm
from .invariants import InvariantReport

__all__ = [
    "pairs",
    "matrix_to_obj",
    "matrix_from_obj",
    "dpw_to_obj",
    "subgroup_to_obj",
    "index_to_obj",
    "report_to_obj",
    "dumps",
    "load_matrix",
]


def pairs(z) -> list:
    """The ``[re, im]`` lists of a complex array of any shape, from one ``tolist``."""
    z = np.ascontiguousarray(z, dtype=complex)
    return z.view(float).reshape(*z.shape, 2).tolist()


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]), "entries": pairs(m.reshape(-1))}


def matrix_from_obj(obj) -> np.ndarray:
    """Matrix JSON, as ``json.load`` returns it, to an N x N complex array; ``ValueError`` if malformed.

    ``dim`` must be an ``int`` and ``entries`` a list of N^2 lists of two
    ``int`` or ``float`` values (never ``bool``), each within the float
    range and finite.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must carry 'dim' and 'entries'")
    dim, entries = obj["dim"], obj["entries"]
    if type(dim) is not int:
        raise ValueError(f"matrix dim must be an integer, got {json.dumps(dim, default=repr)}")
    if dim < 1:
        raise ValueError(f"matrix dim must be >= 1, got {dim}")
    listed = type(entries) is list and len(entries) == dim * dim
    # the type test comes first: len() would raise TypeError on a number or null
    if not listed or set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        raise ValueError(f"expected a list of {dim * dim} [re, im] entry pairs")
    values = list(itertools.chain.from_iterable(entries))
    kinds = set(map(type, values))
    if bool in kinds:
        raise ValueError("matrix entries must be numbers, not booleans")
    if not kinds <= {int, float}:
        raise ValueError("matrix entries must be numbers")
    try:
        flat = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError("matrix entries must be finite numbers") from None
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite numbers")
    return flat.view(complex).reshape(dim, dim)


def dpw_to_obj(form: DpwForm) -> dict:
    return {
        "spec": list(form.spec.orders),
        "perm": list(form.perm),
        "phases": pairs(form.phases),
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
