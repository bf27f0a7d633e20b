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
written.  Every writer emits its text through ``dumps``, which writes with
orjson, respells the floats ``repr`` writes in exponent form, and leaves to
the stdlib ``json`` what orjson refuses or spells otherwise.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from fractions import Fraction

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


# window offsets around a mark: a float token orjson writes holds at most 19 bytes before its
# "e" and 22 after the "." of "0.0000", so the byte that ends the token lies inside
_SPAN = np.arange(-20, 24)
_NEAR = np.arange(-2, 5)  # the offsets of the bytes that tell a mark
_SMALL = np.frombuffer(b"0.0000", np.uint8)  # the bytes from offset -1 of a small float's mark


def _respelled(data: bytes) -> bytes:
    """orjson's text ``data`` with every float token in exponent form spelled as ``float.__repr__`` does.

    orjson writes the shortest round-trip digits, as ``repr`` does, but
    spells a float in ``[1e-5, 1e-4)`` as ``0.0000...`` and the exponents
    of the others below ``1e-4`` or from ``1e16`` as ``e-6`` and ``e16``,
    where ``repr`` writes ``e-05``, ``e-06`` and ``e+16``.  A mark is an
    ``e`` after a digit or the ``.`` of a ``0.0000`` after a non-digit; its
    token is the run of bytes ``-./0-9`` around it, kept only when it ends
    its line (a JSON string holds no raw newline, so a kept token is a
    number, not text inside a string or key).  Each distinct token is
    converted once, and one join writes the result.  Reads wrap around, so
    one before the text's first byte meets its final newline.
    """
    text = np.frombuffer(data, np.uint8)
    marks = np.flatnonzero((text == ord("e")) | (text == ord(".")))
    # uint8 arithmetic wraps below "0", so one comparison tells a digit
    keep = (text[marks] == ord("e")) & (np.take(text, marks - 1, mode="wrap") - ord("0") < 10)
    dots = np.flatnonzero(np.take(text, marks + 1, mode="wrap") == ord("0"))  # the marks before a "0", few
    near = np.take(text, marks[dots, None] + _NEAR, mode="wrap")
    keep[dots[(near[:, 1:] == _SMALL).all(axis=1) & (near[:, 0] - ord("0") >= 10)]] = True
    marks = marks[keep]
    if not marks.size:
        return data
    number = np.take(text, marks[:, None] + _SPAN, mode="wrap") - ord("-") < 13  # the bytes -./0-9
    back = -_SPAN[0]  # the column of the mark
    starts = marks - np.argmin(number[:, back - 1 :: -1], axis=1)
    ends = marks + 1 + np.argmin(number[:, back + 1 :], axis=1)
    after = np.take(text, ends, mode="wrap")
    line_end = (after == ord("\n")) | ((after == ord(",")) & (np.take(text, ends + 1, mode="wrap") == ord("\n")))
    cuts = [0, *np.stack([starts[line_end], ends[line_end]], axis=1).ravel().tolist(), len(data)]
    parts = [data[i:j] for i, j in zip(cuts, cuts[1:])]  # text between tokens and the tokens, alternately
    spelling = {token: float.__repr__(float(token)).encode() for token in set(parts[1::2])}
    parts[1::2] = map(spelling.__getitem__, parts[1::2])
    return b"".join(parts)


def _holds_nonfinite(obj) -> bool:
    """Whether NaN or an infinity lies in ``obj``, a tree of dicts, lists and tuples."""
    stack = [obj]
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is float and not math.isfinite(value):
            return True
        if kind is dict:
            stack.extend(value.values())
        elif kind is list or kind is tuple:
            stack.extend(value)
    return False


def dumps(obj) -> str:
    """Stable JSON text: sorted keys, two-space indent, trailing newline.

    The text is byte for byte ``json.dumps(obj, indent=2, sort_keys=True) +
    "\\n"``.  orjson writes it, in C, with the digits ``float.__repr__``
    writes; ``_respelled`` then spells the floats whose ``repr`` takes
    exponent form (below ``1e-4`` or from ``1e16`` in magnitude) as
    ``repr`` does.  The stdlib call writes the whole object instead where
    orjson refuses it or spells it otherwise, so its text and errors are
    the stdlib's there:

    - orjson raises ``TypeError``: a key that is not a ``str``, an int
      beyond 64 bits, a subclass of a JSON type (``np.float64``, a dict
      subclass), a value JSON has no spelling for, a cycle, nesting past
      254 levels, a lone surrogate;
    - its bytes hold a byte past ASCII or DEL, which the stdlib escapes;
    - its text holds ``null`` and ``obj`` holds NaN or an infinity, which
      orjson writes as ``null`` (the walk runs only when ``null`` appears).

    One difference remains: orjson writes an ``enum.Enum`` member as its
    value and a ``uuid.UUID`` as its string (and, from orjson 3.9, an
    ``orjson.Fragment`` as its text), where the stdlib raises ``TypeError``.
    No hadinv object holds any of them.
    """
    import orjson  # imported here: a command that writes only text never loads it

    option = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
    option |= orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME | orjson.OPT_PASSTHROUGH_SUBCLASS
    try:
        data = orjson.dumps(obj, option=option)
    except TypeError:  # orjson.JSONEncodeError is one
        data = None
    if data is None or not data.isascii() or b"\x7f" in data or (b"null" in data and _holds_nonfinite(obj)):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return _respelled(data).decode("ascii")


# every byte but the quote, the four brackets and the comma, which make a text's skeleton
_NOT_SKELETON = bytes(sorted(set(range(256)) - set(b'"[]{},')))
_WHITESPACE = b" \t\n\r"  # JSON's four whitespace bytes


def _flat_matrix(data: bytes) -> np.ndarray | None:
    """The matrix of file bytes laid out as matrix JSON, from orjson's flat parse; None for every other text.

    ``load_matrix`` says what each test proves.
    """
    import orjson  # imported here: a command that writes only text never loads it

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
