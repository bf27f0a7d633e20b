"""JSON wire formats shared by the CLI and file I/O.

Matrix JSON is ``{"dim": N, "entries": [[re, im], ...]}`` row-major with
an integer N (not a boolean) and exactly N^2 pairs of finite numbers (not
strings, ``null`` or booleans); ``matrix_from_obj`` is its one validator and
rejects anything else with ``ValueError``.  ``load_matrix`` parses a file
with orjson when the text is shaped like a matrix and with the stdlib
``json`` otherwise, and gives the stdlib's bits and messages for every file.
``pairs`` is the one writer of ``[re, im]`` lists.  The other formats
(normal forms, subgroups, pair reports, sweep and verify tables) are only
written.  Every writer emits its text through ``dumps``, which spells the
items of a list column by column: a table of rows, such as the rows of
``hadinv sweep``, takes one spelling per field and one template per row.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
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
    """Matrix JSON, as a JSON parser returns it, to an N x N complex array; ``ValueError`` if malformed.

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
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float_text(x: float) -> str:
    """A float as the stdlib spells it: ``float.__repr__``, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return float.__repr__(x)


def _bracketed(texts, level: int, opening: str, closing: str) -> str:
    """Item texts one per line at ``level + 1``, between brackets at ``level``."""
    inner = "\n" + _INDENT * (level + 1)
    return opening + inner + ("," + inner).join(texts) + "\n" + _INDENT * level + closing


def _column(values: list, level: int) -> list[str]:
    """The text of each value at nesting ``level``, values of one type and shape spelled together.

    A column of only finite floats, only ints, only strings, only
    ``None`` or only booleans is one ``map``.  Lists of one length are
    spelled as one column of all their items, and dicts with one set of
    ``str`` keys as one column per key; either way one ``str.format``
    template per value then places the item texts.  Any other column
    (NaN or an infinity, ``bool`` beside ``int``, ragged lists, dicts with
    different keys) goes value by value through ``_encode``.
    """
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    if kind is bool or kind is type(None):
        return list(map(_CONSTANTS.__getitem__, values))
    if kind is list and len(set(map(len, values))) == 1:
        width = len(values[0])
        if not width:
            return ["[]"] * len(values)
        items = _column(list(itertools.chain.from_iterable(values)), level + 1)
        template = _bracketed(["{}"] * width, level, "[", "]")
        # the same iterator once per slot takes the items of one value in turn
        return list(map(template.format, *[iter(items)] * width))
    if kind is dict and len(set(map(frozenset, values))) == 1:
        if not values[0]:
            return ["{}"] * len(values)
        if set(map(type, itertools.chain.from_iterable(values))) != {str}:
            raise _Unsupported
        keys = sorted(values[0])
        columns = [_column(list(map(operator.itemgetter(key), values)), level + 1) for key in keys]
        labels = [encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}") + ": {}" for key in keys]
        return list(map(_bracketed(labels, level, "{{", "}}").format, *columns))
    return [_encode(value, level) for value in values]


def _encode(o, level: int) -> str:
    """The text of ``o`` at nesting ``level`` as ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    # a container is a column of one value, made a plain list or dict so that _column batches it
    if isinstance(o, (list, tuple)):
        return _column([list(o)], level)[0]
    if isinstance(o, dict):
        return _column([dict(o)], level)[0]
    raise _Unsupported


def dumps(obj) -> str:
    """Stable JSON text: sorted keys, two-space indent, trailing newline.

    The text is byte for byte ``json.dumps(obj, indent=2, sort_keys=True) +
    "\\n"``.  With ``indent`` set, the stdlib takes its pure-Python encoder;
    this one writes the same text with the C string escaper, and spells the
    items of a list column by column (``_column``): a list of numbers or of
    ``[re, im]`` pairs takes a few joins, and a table of rows, a list of
    dicts that share their keys, one ``map`` per field and one template per
    row.  A key that is not a ``str``, a value of a type that JSON has no
    spelling for, and a structure too deep (or circular) for the recursion
    go to the stdlib call for the whole object, so its errors are the
    stdlib's too.
    """
    try:
        return _encode(obj, 0) + "\n"
    except (_Unsupported, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# every byte but the quote and the four brackets, which make a text's skeleton
_NOT_SKELETON = bytes(sorted(set(range(256)) - set(b'"[]{}')))


def load_matrix(path) -> np.ndarray:
    """The matrix JSON file at ``path`` as an N x N complex array; ``ValueError`` if malformed.

    The bytes are read once.  orjson parses them only when their skeleton,
    the quotes and brackets in order, is a matrix's: ``{``, two strings (the
    keys), ``[``, N^2 ``[]`` pairs, ``]``, ``}``.  Every file hadinv writes
    has it.  What ``matrix_from_obj`` then accepts is the result.  Every
    other text, whatever orjson refuses (NaN and infinities, ints past the
    float range, lone surrogates, a BOM, bad syntax) and every validation
    failure goes to ``json.load`` of the text-mode file, as before orjson.
    So the result is the stdlib's for every file: the same bits, or the
    same ``ValueError`` and message, ``JSONDecodeError`` offsets of CRLF
    files included.

    The two parsers differ in two ways, and neither reaches a result:

    - orjson parses nesting deeper than the recursion limit, where ``json``
      raises ``RecursionError``.  Only a third key, or a key given twice
      (both parsers keep its last value), can hold such nesting inside a
      valid matrix, and either takes a third string.  Past about 130 000
      levels on an 8 MB stack orjson 3.8 also crashes, as its conversion
      to Python objects recurses; a matrix's skeleton nests three deep.
    - orjson reads an int beyond u64 as a float, correctly rounded: for an
      entry the float ``matrix_from_obj`` makes of the stdlib's int, while
      as ``dim`` it fails validation and the stdlib words the message.
    """
    import orjson  # imported here: only the commands that read matrix files pay for it

    with open(path, "rb") as handle:
        data = handle.read()
    skeleton = data.translate(None, _NOT_SKELETON)
    body = b"[" + b"[]" * ((len(skeleton) - 8) // 2) + b"]"
    if skeleton in (b'{""""' + body + b"}", b'{""' + body + b'""}'):
        try:
            return matrix_from_obj(orjson.loads(data))
        except ValueError:  # orjson.JSONDecodeError is one
            pass
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except RecursionError:
            raise ValueError("matrix JSON is nested too deeply") from None
    return matrix_from_obj(obj)
