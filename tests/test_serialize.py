"""Round-trip and contract tests for the JSON wire formats."""

import enum
import json
import os
import pathlib
import subprocess
import sys
import uuid

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import maxabs, same_bits
from hadinv import DpwForm, FourierSpec, SubgroupSet, fourier, fourier_tensor, pair_report, serialize
from hadinv.serialize import (
    dumps,
    dpw_to_obj,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    pairs,
    report_to_obj,
    subgroup_to_obj,
)


class TestMatrixFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(60)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert maxabs(matrix_from_obj(matrix_to_obj(m)) - m) < 1e-15

    def test_shape_of_object(self):
        obj = matrix_to_obj(np.eye(2))
        assert obj["dim"] == 2
        assert len(obj["entries"]) == 4
        assert obj["entries"][0] == [1.0, 0.0]

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"dim": 2, "entries": [[1, 0]]})

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"dim": 1, "entries": [[1, 0, 0]]})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"entries": []})

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"dim": 0, "entries": []})

    @pytest.mark.parametrize(
        "entries,message",
        [
            ([["1.0", "0"]], "must be numbers"),  # a float conversion would parse the strings
            ([[1, "0"]], "must be numbers"),
            ([[None, 0.0]], "must be numbers"),
            ([[10**400, 0]], "must be finite numbers"),  # float() raises OverflowError
            ([[0.5, 10**400]], "must be finite numbers"),
            ([[True, 0.0]], "not booleans"),
            ([[1.0, False]], "not booleans"),
        ],
    )
    def test_rejects_entries_that_are_not_finite_numbers(self, entries, message):
        with pytest.raises(ValueError, match=message):
            matrix_from_obj({"dim": 1, "entries": entries})

    @pytest.mark.parametrize("entries", [[[10**20, 0]], [[0.5, 10**20]], [[2**63, -1]]])
    def test_accepts_integers_beyond_int64_that_a_float_holds(self, entries):
        got = matrix_from_obj({"dim": 1, "entries": entries})
        assert got[0, 0] == complex(*entries[0])


# JSON spellings of numbers: ints beyond int64 and beyond the float range,
# signed zeros, subnormals, the largest double, and what overflows to inf
_NUMBER_TEXTS = [
    "0", "-0", "0.0", "-0.0", "1", "1.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
    "1e400", "-1e400", "1E2", "NaN", "Infinity", "-Infinity",
    *map(str, [2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, -(2**63) - 1, 10**20, 10**308, 10**309]),
    "1" + "0" * 400, "-1" + "0" * 400,
]
_numbers = st.one_of(st.integers().map(str), st.floats().map(json.dumps), st.sampled_from(_NUMBER_TEXTS))
_values = st.one_of(
    _numbers, st.sampled_from(["true", "false", "null", '"1.0"', '"0"', '""', "{}", "[]", "[1]", "[1, 0]"])
)
_list_text = "[{}]".format
_number_pairs = st.lists(_numbers, min_size=2, max_size=2).map(", ".join).map(_list_text)
_odd_pairs = st.one_of(
    st.lists(_values, min_size=2, max_size=2).map(", ".join).map(_list_text),
    st.lists(_values, max_size=3).map(", ".join).map(_list_text),  # short and long pairs
    st.sampled_from(["[[1], 0]", "[[1, 0]]", "1", "null", '"1, 0"', "{}"]),  # deeper pairs, and no pair at all
)


@st.composite
def _matrix_texts(draw) -> str:
    """Matrix JSON text, mostly well formed but for odd pairs, a count, entries, dim or key.

    Up to two pairs are odd: a long and a short one keep the number of
    values at ``2 dim^2``.
    """
    dim = draw(st.integers(1, 3))
    count = draw(st.sampled_from([dim * dim] * 8 + [dim * dim - 1, dim * dim + 1]))
    pairs_text = draw(st.lists(_number_pairs, min_size=count, max_size=count))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if pairs_text else 0):
        pairs_text[draw(st.integers(0, count - 1))] = draw(_odd_pairs)
    entries = _list_text(", ".join(pairs_text))
    entries = draw(st.sampled_from([entries] * 12 + ["5", "null", '"1, 0"', "{}", "[]", _list_text(entries)]))
    dim_text = draw(
        st.sampled_from([str(dim)] * 16 + ["true", "false", f"{dim}.0", "1.9", "0", "-1", "-0", "null", f'"{dim}"', f"[{dim}]"])
    )
    text = '{"dim": %s, "entries": %s}' % (dim_text, entries)
    return draw(st.sampled_from([text] * 20 + ['{"entries": [[1, 0]]}', '{"dim": 1}', "[[1, 0]]", '"x"', "null"]))


def _read(reader, text: str):
    """The float bits ``reader`` makes of the JSON ``text``, or ``ValueError``."""
    try:
        m = reader(json.loads(text))
    except ValueError:
        return ValueError
    return m.shape, m.dtype, m.tobytes()


class TestMatrixReader:
    """``matrix_from_obj`` accepts exactly what the dtype-inferring reader in ``oracles`` accepts, with the same bits."""

    @settings(max_examples=500, deadline=None)
    @given(text=_matrix_texts())
    @example(text='{"dim": 1, "entries": [[%d, -1]]}' % 2**63)
    @example(text='{"dim": 1, "entries": [[%d, 1]]}' % (2**64 - 1))
    @example(text='{"dim": 1, "entries": [[%d, 0.5]]}' % (2**53 + 1))
    @example(text='{"dim": 1, "entries": [[-0.0, -0]]}')
    @example(text='{"dim": 1, "entries": [[true, 0.5]]}')
    @example(text='{"dim": 2, "entries": [[0.5, false], [1, 0], [1, 0], [1, 0]]}')
    @example(text='{"dim": 1, "entries": [[null, 0]]}')
    @example(text='{"dim": 1, "entries": [["1", 0]]}')
    @example(text='{"dim": 1, "entries": [[1%s, 0]]}' % ("0" * 400))
    @example(text='{"dim": 1, "entries": [[NaN, 0]]}')
    @example(text='{"dim": 1, "entries": [[1, -Infinity]]}')
    @example(text='{"dim": 1, "entries": [[[1], [0]]]}')
    @example(text='{"dim": 1, "entries": [[1, 0, 0]]}')
    @example(text='{"dim": 2, "entries": [[1, 0], [0], [0, 0], [1, 0]]}')
    @example(text='{"dim": true, "entries": [[1, 0]]}')
    @example(text='{"dim": 1.0, "entries": [[1, 0]]}')
    def test_accepts_what_the_oracle_accepts_with_the_same_bits(self, text):
        assert _read(matrix_from_obj, text) == _read(oracles.matrix_from_obj, text)


def _signed_zero_matrix(shape, seed) -> np.ndarray:
    """Random complex entries, about a third of the real and imaginary parts set to +0.0 and a third to -0.0."""
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(*shape, 2))
    draw = rng.random(parts.shape)
    parts[draw < 1 / 3] = 0.0
    parts[draw > 2 / 3] = -0.0
    return parts.view(complex)[..., 0]


class TestPairsWriter:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_matrix_round_trip_is_bit_identical(self, n, seed):
        m = _signed_zero_matrix((n, n), seed)
        assert np.signbit(m.view(float)).any() or n == 1
        obj = matrix_to_obj(m)
        assert same_bits(matrix_from_obj(obj), m)
        assert same_bits(matrix_from_obj(json.loads(dumps(obj))), m)
        assert repr(obj["entries"]) == repr(oracles.pair_lists(m.reshape(-1)))

    @pytest.mark.parametrize("seed", range(4))
    def test_a_stack_matches_the_old_writers(self, seed):
        stack = _signed_zero_matrix((5, 8), seed)
        got = pairs(stack)
        assert repr(got) == repr(stack.view(float).reshape(5, 8, 2).tolist())  # the sweep rows' old ``_pairs``
        assert repr(got) == repr(oracles.pair_lists(stack))
        for view in (stack.T, stack[:, ::3], stack[1]):  # not C-contiguous, and one row
            assert repr(pairs(view)) == repr(oracles.pair_lists(view))

    def test_a_real_array_gets_positive_zero_imaginary_parts(self):
        assert repr(pairs(np.array([1.0, -0.0]))) == "[[1.0, 0.0], [-0.0, 0.0]]"


def _load(reader, path):
    """The float bits ``reader`` makes of the file at ``path``, or the type and message of its ``ValueError``."""
    try:
        m = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return m.shape, m.dtype, m.tobytes()


_DEEP = sys.getrecursionlimit() + 10
# values that orjson refuses (NaN, a lone surrogate) or parses where json raises (the nesting), and plain ones
_KEY_VALUES = ["NaN", '"\\ud800"', "[" * _DEEP + "]" * _DEEP, "{}", "1", '"x"']


@st.composite
def _matrix_files(draw) -> bytes:
    """``_matrix_texts`` as file bytes, lines ending LF or CRLF, maybe after a key beside dim and entries or a repeated one."""
    text = draw(_matrix_texts())
    if text.startswith("{") and draw(st.booleans()):
        key = draw(st.sampled_from(["extra", "dim", "entries"]))  # a repeated key's first value is dropped
        text = '{"%s": %s, %s' % (key, draw(st.sampled_from(_KEY_VALUES)), text[1:])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return (text.replace(", ", "," + eol) + eol).encode()


def _halfway_ints() -> list[int]:
    """Ints beyond u64 halfway between two floats, and one either side; then the first int ``float()`` overflows on."""
    ints = []
    for exponent in (64, 100, 500, 1023):
        low = (2**52 + 1) << (exponent - 52)  # an odd mantissa: the halfway int rounds up to even
        ints += [low + 2 ** (exponent - 53) + step for step in (-1, 0, 1)]
    return [*ints, 2**1024 - 2**970 - 1, 2**1024 - 2**970]


_MATRIX = b'{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, -0.5]]}'
_FIXED_FILES = {
    "bom": b"\xef\xbb\xbf" + _MATRIX,
    "invalid-utf8-after": _MATRIX + b"\xff",
    "invalid-utf8-key": _MATRIX.replace(b"dim", b"d\xffm"),
    "encoded-surrogate-key": _MATRIX.replace(b"dim", b"dim\xed\xa0\x80"),
    "encoded-surrogate-extra": _MATRIX[:-1] + b', "x": "\xed\xa0\x80"}',
    "truncated": _MATRIX[:40],
    "truncated-crlf": _MATRIX.replace(b", ", b",\r\n")[:50],
    "crlf-syntax-error": _MATRIX.replace(b", ", b",\r\n").replace(b"-0.5", b"-.5"),
    "cr-syntax-error": _MATRIX.replace(b", ", b",\r").replace(b"-0.5", b"-.5"),
    "dim-1e30": _MATRIX.replace(b"2", b"%d" % 10**30, 1),
    "dim-u64-max": _MATRIX.replace(b"2", b"%d" % (2**64 - 1), 1),
    "lone-surrogate-extra": _MATRIX[:-1] + b', "x": "\\ud800"}',
    "repeated-key-deep": b'{"dim": %s, %s' % (b"[" * _DEEP + b"]" * _DEEP, _MATRIX[1:]),
    "repeated-key-scalar": b'{"dim": 7, %s' % _MATRIX[1:],
    "escaped-keys": _MATRIX.replace(b"dim", b"d\\u0069m").replace(b"entries", b"\\u0065ntries"),
    # orjson 3.8 crashes past about 130 000 levels; json raises RecursionError
    "entries-deeper-than-the-c-stack": b'{"dim": 1, "entries": %s}' % (b"[" * 200_000 + b"]" * 200_000),
    # two keys, but not dim and entries, or with the array under dim
    "wrong-key": b'{"dim": 1, "x": [[1, 0]]}',
    "wrong-dim-key": b'{"dims": 1, "entries": [[1, 0]]}',
    "array-under-dim": b'{"entries": 1, "dim": [[1, 0]]}',
    # a long and a short pair: 2 dim^2 values all the same
    "ragged-pairs": b'{"dim": 2, "entries": [[1, 0, 0], [0], [0, 0], [1, 0]]}',
    "true-entry": _MATRIX.replace(b"-0.5", b"true"),
    "false-entry": _MATRIX.replace(b"-0.5", b"false"),
    "null-entry": _MATRIX.replace(b"-0.5", b"null"),
    "missing-comma-between-pairs": _MATRIX.replace(b"], [", b"] [", 1),
    "empty-slot": _MATRIX.replace(b"[1, 0]", b"[, 0]", 1),
    "trailing-comma": _MATRIX.replace(b"]]", b"],]"),
    "spaced-brackets": b'{"dim": 1, "entries": [ [ 1 , 0 ] ]}',
    "separators-that-differ": _MATRIX.replace(b"], [", b"],\n[", 1),
    # a value outside the pairs, and outside a pair beside an empty slot: the flat list is as long as a matrix's
    "value-before-the-pairs": b'{"dim": 1, "entries": [0 [1, 0]]}',
    "value-after-the-pairs": b'{"dim": 1, "entries": [[1, 0] 0]}',
    "value-before-an-empty-slot": b'{"dim": 1, "entries": [0[, 1]]}',
    "value-after-an-empty-slot": b'{"dim": 1, "entries": [[1, ]0]}',
    "value-after-a-pair": _MATRIX.replace(b"[0, 0], [0, 0]", b"[0, ]0, [0, 0]"),
    "value-before-a-pair": _MATRIX.replace(b"[0, 0], [0, 0]", b"[0, 0], 0[, 0]"),
    "value-after-every-pair": b'{"dim": 2, "entries": [[1, ]0, [0, ]0, [0, ]0, [1, ]0]}',
    "digit-after-a-pair": _MATRIX.replace(b"[1, 0], [0, 0]", b"[1, 1]5, [0, 0]"),  # 1]5 is not 15
    **{
        f"entry-{k}": b'{"dim": 1, "entries": [[%d, %d]]}' % (k, -k)
        for k in [2**64, 2**64 + 1, 10**20, 10**300, 10**308, *_halfway_ints()]
    },
}


class TestLoadMatrix:
    """``load_matrix`` gives the stdlib reader's bits, or its ``ValueError`` type and message, for every file."""

    @settings(max_examples=300, deadline=None)
    @given(data=_matrix_files())
    def test_matches_the_stdlib_reader(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "matrix.json"
        path.write_bytes(data)
        assert _load(load_matrix, path) == _load(oracles.load_matrix, path)

    @pytest.mark.parametrize("data", _FIXED_FILES.values(), ids=_FIXED_FILES.keys())
    def test_fixed_files_match_the_stdlib_reader(self, tmp_path, data):
        path = tmp_path / "matrix.json"
        path.write_bytes(data)
        assert _load(load_matrix, path) == _load(oracles.load_matrix, path)

    @pytest.mark.parametrize("spelling", ["compact", "compact-entries-first", "dumps", "indent-4", "no-spaces"])
    def test_written_matrices_never_reach_the_stdlib_parser(self, monkeypatch, tmp_path, spelling):
        m = _signed_zero_matrix((64, 64), 7)
        obj = matrix_to_obj(m)
        text = {
            "compact": json.dumps(obj) + "\n",  # the spelling of the benchmark's input files
            "compact-entries-first": json.dumps({"entries": obj["entries"], "dim": obj["dim"]}),
            "dumps": dumps(obj),  # what ``realize --out-u`` and ``gen --out`` write
            "indent-4": json.dumps(obj, indent=4),
            "no-spaces": json.dumps(obj, separators=(",", ":")),
        }[spelling]
        path = tmp_path / "m.json"
        path.write_text(text)

        def refuse(*args, **kwargs):
            raise AssertionError("the stdlib parser was called")

        monkeypatch.setattr(serialize.json, "load", refuse)
        monkeypatch.setattr(serialize.json, "loads", refuse)
        assert same_bits(load_matrix(path), m)

    @pytest.mark.parametrize(
        "argv,imported",
        [
            (["verify"], False),
            (["sweep", "--spec", "2,2", "--mode", "random", "--samples", "5", "--seed", "1", "--format", "text"], False),
            (["sweep", "--spec", "2,2", "--mode", "random", "--samples", "5", "--seed", "1"], True),  # a JSON writer
            (["check", "{m}"], True),  # a matrix reader
        ],
        ids=["verify", "sweep-text", "sweep-json", "check"],
    )
    def test_commands_that_neither_read_nor_write_json_leave_orjson_unimported(self, tmp_path, argv, imported):
        path = tmp_path / "m.json"
        path.write_text(dumps(matrix_to_obj(fourier(2))))
        code = (
            "import sys; from hadinv.cli import main; status = main(sys.argv[1:]); "
            "print(status, 'orjson' in sys.modules, file=sys.stderr)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(serialize.__file__).parents[1]) + os.pathsep + env.get("PYTHONPATH", "")
        argv = [a.format(m=path) for a in argv]
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=False)
        assert proc.stderr == f"0 {imported}\n"


class TestDpwFormat:
    def test_round_trip(self):
        form = DpwForm(spec=FourierSpec((2, 2)), perm=(2, 0, 3, 1), phases=(1, 1j, -1, -1j))
        obj = dpw_to_obj(form)
        assert obj == {
            "spec": [2, 2],
            "perm": [2, 0, 3, 1],
            "phases": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [-0.0, -1.0]],
        }
        assert {type(x) for pair in obj["phases"] for x in pair} == {float}
        assert {type(p) for p in obj["perm"] + obj["spec"]} == {int}


class TestSubgroupFormat:
    def test_round_trip(self):
        s = SubgroupSet(orders=(4,), members=frozenset({(0,), (2,)}))
        obj = subgroup_to_obj(s)
        assert obj == {"orders": [4], "members": [[0], [2]]}
        assert {type(x) for m in obj["members"] for x in m} == {int}


class TestReportFormat:
    def test_field_contract(self):
        f2 = fourier(2)
        rep = pair_report(f2, np.diag([1, 1j]) @ f2, (2,))
        obj = report_to_obj(rep)
        assert set(obj) == {
            "N",
            "spec",
            "distinct",
            "conjugate",
            "dimA",
            "subgroup",
            "index",
            "index_float",
            "relcomm_dims",
            "vertex",
            "entropy_h",
            "entropy_upper",
            "certified",
            "flags",
        }
        assert obj["N"] == 2
        assert obj["index"] == {"num": 4, "den": 1}
        assert obj["index_float"] == 4.0
        assert obj["dimA"] == 1
        assert obj["vertex"] is True
        assert obj["subgroup"] == {"orders": [2], "members": [[0]]}

    def test_absent_subgroup_serializes_null(self):
        f2 = fourier(2)
        rep = pair_report(f2, f2, (2,))
        assert report_to_obj(rep)["subgroup"] is None


def _stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _mismatched_lines(obj):
    """The difference in line count between ``dumps`` and the stdlib text of ``obj``, and its first mismatched lines."""
    got, want = dumps(obj).split("\n"), _stdlib(obj).split("\n")
    return len(got) - len(want), [pair for pair in zip(got, want) if pair[0] != pair[1]][:5]


def _outcome(encode, obj):
    """The text ``encode`` gives, or the type and message of what it raises."""
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 2.225e-308, 1e22, 1e16, 0.1, -1.5]

_floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_scalars = st.one_of(
    _floats,
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    _floats.map(np.float64),  # a float subclass whose repr is not float.__repr__
)
# lists of one kind and shape, as hadinv writes them, and their near misses
_flat_lists = st.one_of(
    st.lists(_floats),
    st.lists(st.integers()),
    st.lists(st.booleans() | st.integers(min_value=0, max_value=1)),
    st.lists(st.lists(_floats, min_size=2, max_size=2)),
    st.lists(st.lists(_floats, min_size=3, max_size=3), min_size=1),
    st.lists(st.lists(_floats, max_size=3)),  # ragged, and lists of empty lists
    st.lists(st.lists(_floats | st.integers(), min_size=2, max_size=2)),  # mixed float/int pairs
    st.lists(st.tuples(_floats, _floats)),
)
_keys = st.one_of(st.text(), st.text(alphabet="ab", max_size=2))
_objects = st.recursive(
    _scalars | _flat_lists,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=20,
)

# the fields of a table of rows: one kind down a column, as hadinv writes them,
# and the mixed ones (NaN beside floats, bool beside int, ragged or differently keyed values) its near misses
_index = st.fixed_dictionaries({"num": st.integers(), "den": st.integers(min_value=1)})
_field_kinds = [
    st.floats(allow_nan=False, allow_infinity=False),
    _floats,
    st.integers(),
    st.text(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), min_size=3, max_size=3),
    st.lists(st.lists(_floats, min_size=2, max_size=2), min_size=2, max_size=2),
    _index,
    st.none() | _index,
    st.fixed_dictionaries({"index": _index, "flags": st.lists(st.text(), max_size=1)}),
    st.lists(st.text(), max_size=2),
    st.dictionaries(_keys, _scalars, max_size=2),
    _scalars,
    _flat_lists,
]


@st.composite
def _records(draw, keys=_keys):
    """A list of two or more dicts sharing one key set, each field drawn from one kind per column."""
    names = draw(st.lists(keys, unique=True, max_size=5))
    kinds = {name: draw(st.sampled_from(_field_kinds)) for name in names}
    size = draw(st.integers(min_value=2, max_value=6))
    return [{name: draw(kinds[name]) for name in names} for _ in range(size)]


class TestDumps:
    """``dumps`` is byte for byte ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``."""

    @settings(max_examples=200, deadline=None)
    @given(obj=_objects)
    @example(obj={"b": [[0.5, -0.0]], "a": [float("nan"), float("inf"), float("-inf")], "c": []})
    @example(obj=[[1.0, 2], [3.0, 4.0]])
    @example(obj=[[5e-324, 1e22], [-0.0, 1e16]])
    @example(obj=[True, 1, False, 0])
    @example(obj={"k\u00e9\x00\n": ["\u2603", "\x1f", '"\\']})
    @example(obj=[[], {}, [[]], [{}], ()])
    @example(obj=[10**40, -(10**40)])
    def test_matches_the_stdlib(self, obj):
        assert dumps(obj) == _stdlib(obj)

    @settings(max_examples=100, deadline=None)
    @given(
        obj=st.dictionaries(
            st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.text()), _scalars, max_size=4
        )
    )
    def test_keys_that_are_not_strings_behave_as_in_the_stdlib(self, obj):
        # the stdlib converts or sorts them, or raises; dumps hands them over unchanged
        assert _outcome(dumps, obj) == _outcome(_stdlib, obj)

    @pytest.mark.parametrize(
        "obj", [{"a": object()}, [1, {2, 3}], {"a": np.int64(3)}, {1: "x", "y": 2}], ids=["object", "set", "int64", "mixed-keys"]
    )
    def test_unencodable_values_raise_as_in_the_stdlib(self, obj):
        assert _outcome(dumps, obj) == _outcome(_stdlib, obj)

    def test_circular_reference_raises_as_in_the_stdlib(self):
        loop: list = []
        loop.append({"loop": loop})
        assert _outcome(dumps, loop) == (ValueError, "Circular reference detected")

    @settings(max_examples=200, deadline=None)
    @given(obj=_records() | _records().map(lambda rows: {"rows": rows, "n": len(rows)}))
    @example(obj=[{"{a}": 1.5, "}": [1, 2], "{": {"}{": None}}, {"{a}": 2.5, "}": [3, 4], "{": {"}{": True}}])
    @example(obj=[{"dimA": 1, "index": {"den": 1, "num": 4}}, {"dimA": None, "index": None}])
    @example(obj=[{"x": 1, "y": [[0.5, 1.0]]}, {"y": [[0.5, float("nan")]], "x": True}])
    @example(obj=[{"v": []}, {"v": []}, {"v": ["entropy-symmetry"]}])
    @example(obj=[{}, {}])
    def test_tables_of_rows_match_the_stdlib(self, obj):
        assert dumps(obj) == _stdlib(obj)

    @settings(max_examples=100, deadline=None)
    @given(obj=_records(keys=st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.text())))
    @example(obj=[{1: "x"}, {1: "y"}])
    @example(obj=[{"a": 1}, {2: 1}])
    def test_tables_with_keys_that_are_not_strings_behave_as_in_the_stdlib(self, obj):
        assert _outcome(dumps, obj) == _outcome(_stdlib, obj)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--format", "json"),
            ("sweep", "--spec", "2,2,2", "--mode", "realize"),
            ("sweep", "--spec", "2,2,2", "--mode", "random", "--samples", "40", "--seed", "3"),
            ("sweep", "--spec", "8", "--mode", "random", "--samples", "20", "--seed", "3", "--format", "json"),
        ],
        ids=["verify", "realize-table", "random-sweep", "random-sweep-8"],
    )
    def test_cli_tables(self, capsys, argv):
        from hadinv.cli import main

        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert out == dumps(obj) == _stdlib(obj)
        if argv[0] == "sweep":
            # the rows of a sweep with violations: a failed row's nulls beside ints, ragged violation lists
            rows = obj["rows"]
            rows[0].update({"dimA": None, "index": None, "gap": None, "violations": ["oracle-mismatch: x"]})
            rows[-1]["violations"] = ["entropy-symmetry", "entropy-left-invariance"]
            assert dumps(obj) == _stdlib(obj)

    def test_matrix_and_report_objects(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        f2 = fourier(2)
        for obj in (matrix_to_obj(m), report_to_obj(pair_report(f2, np.diag([1, 1j]) @ f2, (2,)))):
            assert dumps(obj) == _stdlib(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            1e-05,
            -4.5e-300,
            1e16,
            9.46774596527168e-05,
            [None, 1e-05, None],
            {"a": None, "b": [1e16, None, -0.0], "c": {"d": None, "e": 4.53128895605559e-06}},
            {"1e-05": "x 1e-5,", "k": [1e-5, -4.5e-300, 1e16, 5e-324]},
            ["0.00001", 0.00001, "1e16\n", "x 0.00001", 1e-4, 99999999999999990.0, "9.9e-05,"],
            {"0.0000123": ["1e5", 1.23e-05], "1e+16": {"e-5": -1.7976931348623157e308}},
            [[1e-05, -2e-05], (3e-06, 1e22), []],
            ["\x7f", 1e-05],
            [None, float("nan"), 1e-05],
            {"t": (None, (1e-05, float("-inf")))},
        ],
        ids=lambda obj: repr(obj)[:40],
    )
    def test_exponent_forms_match_the_stdlib(self, obj):
        # orjson writes 1e-5 and 0.0000946..., repr 1e-05 and 9.46...e-05: only number tokens are respelled
        assert dumps(obj) == _stdlib(obj)

    def test_random_bit_patterns_match_the_stdlib(self):
        rng = np.random.default_rng(29)
        bits = np.frombuffer(rng.bytes(8 * 100_000), float)
        # and as many in the decimal range, magnitudes 1e-6 to 1e18 with random digits
        decimal = rng.uniform(-1, 1, 100_000) * 10.0 ** rng.integers(-5, 19, 100_000)
        assert _mismatched_lines(bits[np.isfinite(bits)].tolist()) == (0, [])
        assert _mismatched_lines(decimal.tolist()) == (0, [])

    def test_powers_of_ten_and_their_neighbours_match_the_stdlib(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
        assert _mismatched_lines(np.concatenate([x, -x]).tolist()) == (0, [])

    def test_enum_and_uuid_values_are_the_one_difference(self):
        # orjson writes both, the stdlib refuses both; no hadinv object holds either
        class Colour(enum.Enum):
            RED = 1e-05

        key = uuid.UUID(int=5)
        assert _outcome(_stdlib, [Colour.RED])[0] is TypeError
        assert _outcome(_stdlib, [key])[0] is TypeError
        assert dumps({"c": Colour.RED, "u": key}) == _stdlib({"c": 1e-05, "u": "00000000-0000-0000-0000-000000000005"})

    @pytest.mark.parametrize(
        "argv",
        [
            ("report", "{u}", "{v}", "--spec", "2,4"),
            ("check", "{u}"),
            ("check", "{u}", "{v}"),
            ("gen", "--spec", "64", "--kind", "fourier"),
            ("realize", "--spec", "8,8", "--divisors", "2,4"),
            ("verify", "--format", "json"),
            ("sweep", "--spec", "2,2,2", "--mode", "realize"),
            ("sweep", "--spec", "3,3", "--mode", "random", "--samples", "200", "--seed", "1"),
            ("sweep", "--spec", "2,2", "--mode", "random", "--samples", "20", "--seed", "1", "failed-row"),
        ],
        ids=["report", "check-one", "check-two", "gen", "realize", "verify", "sweep-realize", "sweep-random", "failed-row"],
    )
    def test_hadinv_outputs_never_reach_the_stdlib_writer(self, capsys, monkeypatch, tmp_path, argv):
        from hadinv import cli

        w = fourier_tensor((2, 4))
        paths = {"u": tmp_path / "u.json", "v": tmp_path / "v.json"}
        paths["u"].write_text(dumps(matrix_to_obj(w)))
        paths["v"].write_text(dumps(matrix_to_obj(np.exp(2j * np.pi * np.arange(8) / 8)[:, None] * w)))
        failed_row = argv[-1] == "failed-row"
        if failed_row:
            argv = argv[:-1]
            reports = cli.pair_reports

            def one_failed(*args):  # row 3 fails, so its "dimA" and the other invariants are null
                got = reports(*args)
                got[3] = cli.OracleMismatch("forced disagreement")
                return got

            monkeypatch.setattr(cli, "pair_reports", one_failed)

        def refuse(*args, **kwargs):
            raise AssertionError("the stdlib writer was called")

        monkeypatch.setattr(serialize.json, "dumps", refuse)
        cli.main([a.format(**paths) for a in argv])
        monkeypatch.undo()
        out = capsys.readouterr().out
        assert out == _stdlib(json.loads(out))
        assert ('"dimA": null' in out) == failed_row
