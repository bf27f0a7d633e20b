"""Round-trip and contract tests for the JSON wire formats."""

import numpy as np
import pytest

from conftest import maxabs
from hadinv import DpwForm, FourierSpec, NotClosed, SubgroupSet, diag_conj_algebra, fourier, pair_report
from hadinv.serialize import (
    algebra_from_obj,
    algebra_to_obj,
    dpw_from_obj,
    dpw_to_obj,
    matrix_from_obj,
    matrix_to_obj,
    report_to_obj,
    subgroup_from_obj,
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


class TestDpwFormat:
    def test_round_trip(self):
        form = DpwForm(spec=FourierSpec((2, 2)), perm=(2, 0, 3, 1), phases=(1, 1j, -1, -1j))
        back = dpw_from_obj(dpw_to_obj(form))
        assert back.spec.orders == (2, 2)
        assert back.perm == (2, 0, 3, 1)
        assert maxabs(np.asarray(back.phases) - np.asarray(form.phases)) < 1e-15
        assert maxabs(back.realize() - form.realize()) < 1e-12


class TestSubgroupFormat:
    def test_round_trip(self):
        s = SubgroupSet(orders=(4,), members=frozenset({(0,), (2,)}))
        obj = subgroup_to_obj(s)
        assert obj == {"orders": [4], "members": [[0], [2]]}
        assert subgroup_from_obj(obj) == s

    def test_rejects_non_elements(self):
        with pytest.raises(NotClosed):
            subgroup_from_obj({"orders": [4], "members": [[0], [4]]})


class TestAlgebraFormat:
    def test_round_trip(self):
        alg = diag_conj_algebra(fourier(3))
        back = algebra_from_obj(algebra_to_obj(alg))
        assert back.ambient_dim == 3
        assert back.dim == 3
        assert maxabs(back.basis - alg.basis) < 1e-15


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
