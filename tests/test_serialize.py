"""Round-trip and contract tests for the JSON wire formats."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import maxabs
from hadinv import DpwForm, FourierSpec, SubgroupSet, fourier, pair_report
from hadinv.serialize import (
    dumps,
    dpw_to_obj,
    matrix_from_obj,
    matrix_to_obj,
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
# the list shapes that take the one-join route, and their near misses
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

    def test_matrix_and_report_objects(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        f2 = fourier(2)
        for obj in (matrix_to_obj(m), report_to_obj(pair_report(f2, np.diag([1, 1j]) @ f2, (2,)))):
            assert dumps(obj) == _stdlib(obj)
