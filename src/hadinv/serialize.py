"""JSON wire formats shared by the CLI and file I/O.

Matrix JSON is ``{"dim": N, "entries": [[re, im], ...]}`` row-major with
an integer N (not a boolean) and exactly N^2 pairs of finite numbers (not
strings, ``null`` or booleans); anything else raises ``ValueError``.
``load_matrix`` parses a file with orjson, as one flat list of the 2 N^2
numbers, when its bytes are laid out as a matrix, and with the stdlib
``json`` and ``matrix_from_obj`` otherwise; both routes end in one
finishing step, ``_entry_matrix``, and every file gets the stdlib's bits
and messages.
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


_NUMBERS = frozenset({int, float})  # the types of the values a matrix entry may take


def matrix_from_obj(obj) -> np.ndarray:
    """Matrix JSON, as a JSON parser returns it, to an N x N complex array; ``ValueError`` if malformed.

    ``dim`` must be an ``int`` and ``entries`` a list of N^2 lists of two
    values; ``_entry_matrix`` finishes on the flattened values.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must carry 'dim' and 'entries'")
    dim, entries = obj["dim"], obj["entries"]
    if type(dim) is not int:
        raise ValueError(f"matrix dim must be an integer, got {json.dumps(dim, default=repr)}")
    if dim < 1:
        raise ValueError(f"matrix dim must be >= 1, got {dim}")
    # the type test comes first: len() would raise TypeError on a number or null
    if type(entries) is not list or set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        raise ValueError(f"expected a list of {dim * dim} [re, im] entry pairs")
    values = list(itertools.chain.from_iterable(entries))
    return _entry_matrix(dim, values, set(map(type, values)))


def _entry_matrix(dim: int, values: list, kinds) -> np.ndarray:
    """The N x N complex array of the flat entry values ``re, im, re, im, ...``, whose types are ``kinds``.

    The one finishing step of both matrix readers: ``ValueError`` unless
    there are ``2 N^2`` values, each an ``int`` or ``float`` (never
    ``bool``), within the float range and finite.
    """
    if len(values) != 2 * dim * dim:
        raise ValueError(f"expected a list of {dim * dim} [re, im] entry pairs")
    if bool in kinds:
        raise ValueError("matrix entries must be numbers, not booleans")
    if not kinds <= _NUMBERS:
        raise ValueError("matrix entries must be numbers")
    try:
        flat = np.fromiter(values, dtype=float, count=len(values))
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
    (``bool`` beside ``int``, ragged lists, dicts with different keys)
    goes value by value through ``_encode``, and one with NaN or an
    infinity raises ``_Unsupported`` there.
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
        if not math.isfinite(o):  # NaN and the infinities: no hadinv output holds one
            raise _Unsupported
        return float.__repr__(o)
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
    spelling for, NaN or an infinity, and a structure too deep (or
    circular) for the recursion go to the stdlib call for the whole
    object, so its spelling and errors are the stdlib's too.
    """
    try:
        return _encode(obj, 0) + "\n"
    except (_Unsupported, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# every byte but the quote, the four brackets and the comma, which make a text's skeleton
_NOT_SKELETON = bytes(sorted(set(range(256)) - set(b'"[]{},')))
_WHITESPACE = b" \t\n\r"  # JSON's four whitespace bytes


def _flat_matrix(data: bytes) -> np.ndarray | None:
    """The matrix of file bytes laid out as matrix JSON, from orjson's flat parse; None for every other text.

    ``load_matrix`` says what each test proves.
    """
    import orjson  # imported here: only the commands that read matrix files pay for it

    skeleton = data.translate(None, _NOT_SKELETON)
    count = (len(skeleton) - 8) // 4  # the pairs of a matrix skeleton this long
    array_skeleton = b"[[,]" + b",[,]" * (count - 1) + b"]"
    if skeleton not in (b'{"",""' + array_skeleton + b"}", b'{""' + array_skeleton + b',""}'):
        return None
    start, stop = data.index(b"["), data.rindex(b"]") + 1  # the array
    first, last = data.index(b"[", start + 1), data.rindex(b"]", 0, stop - 1) + 1  # its pairs
    if (data[start + 1 : first] + data[last : stop - 1]).translate(None, _WHITESPACE):
        return None
    pairs_text = data[first:last]
    if b"t" in pairs_text or b"f" in pairs_text or b"n" in pairs_text:
        return None
    if count > 1:
        close = pairs_text.index(b"]")
        separator = pairs_text[close : pairs_text.index(b"[", close) + 1]
        if separator[1:-1].translate(None, _WHITESPACE) != b"," or pairs_text.count(separator) != count - 1:
            return None
    try:
        values = orjson.loads(b"[%b]" % pairs_text.translate(None, b"[]"))
        head = orjson.loads(data[:start] + b"[]" + data[stop:])
        dim = head.get("dim")  # its first skeleton byte is its one "{", so a head that parses is an object
        if type(dim) is not int or dim < 1 or head != {"dim": dim, "entries": []}:
            return None
        return _entry_matrix(dim, values, _NUMBERS)
    except ValueError:  # orjson.JSONDecodeError is one
        return None


def load_matrix(path) -> np.ndarray:
    """The matrix JSON file at ``path`` as an N x N complex array; ``ValueError`` if malformed.

    The bytes are read once.  orjson parses them, flat, only when they are
    laid out as a matrix with one separator between pairs (as every file
    hadinv and ``json.dumps`` write is), and ``json.load`` of the text-mode
    file takes every other text, whatever orjson refuses (NaN and
    infinities, ints past the float range, lone surrogates, a BOM, bad
    syntax) and every validation failure, as before orjson.  So the result
    is the stdlib's for every file: the same bits, or the same
    ``ValueError`` and message, ``JSONDecodeError`` offsets of CRLF files
    included.  The tests of ``_flat_matrix``, in order:

    - The skeleton, the quotes, brackets and commas in order, is ``{``, two
      strings (the keys), ``,``, then ``[``, N^2 ``[,]`` pairs joined by
      ``,``, ``]``, then ``}``; or the same with the array before the
      comma.  With exactly four quotes there is no other string, and none
      inside the array, which holds no brace either.
    - Only whitespace lies between the array's brackets and its first and
      last pair, and the separator from the first pair's ``]`` to the
      second pair's ``[``, a comma in whitespace, occurs N^2 - 1 times.
      Each time starts at a ``]``, which the pairs hold only at their ends,
      so each fills one of the N^2 - 1 gaps between pairs, and only
      whitespace lies outside the two slots of each pair.
    - The pairs hold no ``t``, ``f`` or ``n`` byte, so no ``true``,
      ``false`` or ``null``: with no string or object, their values are
      numbers, which orjson reads as ``int`` or finite ``float``.
    - orjson parses the pairs with their brackets deleted as one flat
      list.  Each bracket stands between a slot and whitespace or a comma,
      so deleting it joins no two tokens, and the list has 2 N^2 values
      only when every slot holds one value.  orjson reads a number token
      by itself, whatever holds it, so it gives the same value in a flat
      list as in a nested one: an int up to u64 as an ``int``, an int
      beyond as a correctly rounded ``float``, which is the float that
      the stdlib's ``int`` converts to, and a float as the stdlib's
      ``float()`` does.
    - orjson parses the rest, the array replaced by ``[]``, as ``{"dim":
      N, "entries": []}`` with an ``int`` N >= 1.  That text holds the
      skeleton's one brace pair and one bracket pair, so it nests two deep,
      like the flat list, and no parse reaches the depth where orjson and
      ``json`` differ (orjson parses what ``json`` refuses with
      ``RecursionError``, and orjson 3.8 crashes past about 130 000 levels
      on an 8 MB stack).  A ``dim`` beyond u64, which orjson reads as a
      float, is left to the stdlib.

    Both readers end in ``_entry_matrix``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    matrix = _flat_matrix(data)
    if matrix is not None:
        return matrix
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except RecursionError:
            raise ValueError("matrix JSON is nested too deeply") from None
    return matrix_from_obj(obj)
