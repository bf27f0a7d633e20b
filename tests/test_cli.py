"""End-to-end tests of the command-line surface and its exit-code contract."""

import argparse
import hashlib
import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from conftest import maxabs
from hadinv import (
    NotHadamard,
    classify,
    decompose_dpw,
    fourier,
    fourier_tensor,
    is_hadamard,
    is_unitary,
    pair_report,
    perm_phase_certificate,
)
from hadinv import cli
from hadinv.cli import build_parser, main
from hadinv.serialize import dumps, load_matrix, matrix_from_obj, matrix_to_obj


def write_matrix(path, m):
    path.write_text(dumps(matrix_to_obj(m)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_fourier(self, capsys):
        code, out, _ = run(capsys, "gen", "--spec", "2", "--kind", "fourier")
        assert code == 0
        got = matrix_from_obj(json.loads(out))
        assert maxabs(got - fourier(2)) < 1e-12

    def test_clock_diagonal(self, capsys):
        code, out, _ = run(capsys, "gen", "--spec", "4", "--kind", "diag", "--k", "1")
        assert code == 0
        got = matrix_from_obj(json.loads(out))
        assert maxabs(got - np.diag([1, 1j, -1, -1j])) < 1e-12

    def test_fourier_tensor(self, capsys):
        code, out, _ = run(capsys, "gen", "--spec", "2,3", "--kind", "fourier-tensor")
        assert code == 0
        got = matrix_from_obj(json.loads(out))
        assert got.shape == (6, 6)
        assert maxabs(got - fourier_tensor((2, 3))) < 1e-12

    def test_dpw_realization(self, capsys):
        code, out, _ = run(
            capsys,
            "gen", "--spec", "2,2", "--kind", "dpw",
            "--perm", "0,1,2,3", "--phases", "1,1,1,1",
        )
        assert code == 0
        got = matrix_from_obj(json.loads(out))
        assert maxabs(got - fourier_tensor((2, 2))) < 1e-12

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "w.json"
        code, out, _ = run(capsys, "gen", "--spec", "2", "--kind", "fourier", "--out", str(target))
        assert code == 0 and out == ""
        assert matrix_from_obj(json.loads(target.read_text())).shape == (2, 2)

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--spec", "2", "--kind", "fourier", "--bogus"])
        assert info.value.code == 2

    def test_constraint_violation(self, capsys):
        code, _, err = run(capsys, "gen", "--spec", "65", "--kind", "fourier")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--spec", "2", "--kind", "fourier"),
            ("check", "m.json"),
            ("realize", "--spec", "4", "--divisors", "2"),
        ],
        ids=["gen", "check", "realize"],
    )
    def test_format_is_a_usage_error_outside_report_and_sweep(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--format", "text"])
        assert info.value.code == 2
        assert "unrecognized arguments: --format text" in capsys.readouterr().err

    def test_bad_phase_modulus(self, capsys):
        code, _, _ = run(
            capsys,
            "gen", "--spec", "2", "--kind", "dpw", "--perm", "0,1", "--phases", "1,0.5",
        )
        assert code == 1

    def test_power_beyond_int64_is_out_of_range(self, capsys):
        # numpy infers an object array for it; it is an integer, only out of range
        code, out, err = run(capsys, "gen", "--spec", "4", "--kind", "diag", "--k", "99999999999999999999")
        assert (code, out) == (1, "")
        assert err == "error: component 99999999999999999999 out of range for order 4\n"

    def test_nan_phase_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys,
            "gen", "--spec", "2,2", "--kind", "dpw", "--perm", "0,1,2,3", "--phases", "nan,1,1,1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "modulus one" in err


class TestCheck:
    def test_single_matrix(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "f2.json", fourier(2))
        code, out, _ = run(capsys, "check", path, "--spec", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["hadamard"] is True
        assert obj["class"]["unitary"] is True
        assert obj["dpw"]["perm"] == [0, 1]

    def test_pair(self, capsys, tmp_path):
        f2 = fourier(2)
        pu = write_matrix(tmp_path / "u.json", f2)
        pv = write_matrix(tmp_path / "v.json", np.diag([1, 1j]) @ f2)
        code, out, _ = run(capsys, "check", pu, pv, "--spec", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["equivalent"] is False
        assert obj["conjugate"] is True

    def test_pair_whose_product_overflows_is_not_equivalent(self, capsys, tmp_path):
        # both inputs are finite; only u* v overflows, so the pair is distinct, not bad input
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "entries": [[1e200, 0]] * 4}))
        code, out, err = run(capsys, "check", str(path), str(path), "--spec", "2")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert (obj["equivalent"], obj["certificate"], obj["conjugate"]) == (False, None, None)
        assert obj["hadamard"] == [False, False]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
        assert code == 1

    @pytest.mark.parametrize("count", [1, 2], ids=["one", "pair"])
    def test_spec_of_another_dimension_is_an_input_error(self, capsys, tmp_path, count):
        # a 4 x 4 matrix against spec 3 used to print a null dpw or conjugate and exit 0
        path = write_matrix(tmp_path / "f4.json", fourier(4))
        got = run(capsys, "check", *[path] * count, "--spec", "3")
        assert got == (1, "", "error: matrices must have dimension 3 for spec (3,)\n")
        assert run(capsys, "report", path, path, "--spec", "3") == got

    @pytest.mark.parametrize(
        "payload",
        [
            '{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, null]]}',
            '{"dim": 1, "entries": [[[1], [0]]]}',
            '{"dim": null, "entries": [[1, 0]]}',
            '{"dim": 1.9, "entries": [[1, 0]]}',
            '{"dim": 1, "entries": 5}',
            '{"dim": 1, "entries": "1, 0"}',
            '{"dim": 2, "entries": [[1, 0], [0], [0, 0], [1, 0]]}',
            '{"dim": 1, "entries": [[1e400, 0]]}',
            '{"dim": true, "entries": [[1, 0]]}',
            '{"dim": false, "entries": []}',
            '{"dim": 1, "entries": [[true, false]]}',
            '{"dim": 2, "entries": [[0.5, true], [0.5, 0.0], [0.5, 0.0], [-0.5, 0.0]]}',
            '{"dim": 1, "entries": [["1.0", "0"]]}',
            '{"dim": 1, "entries": [[1%s, 0]]}' % ("0" * 400),
            "[" * 100000,
            '{"dim": 1, "entries": %s}' % ("[" * 5000 + "]" * 5000),
        ],
        ids=[
            "null", "nested", "null-dim", "float-dim", "int-entries", "str-entries", "ragged", "overflow",
            "true-dim", "false-dim", "bool-entries", "mixed-bool-entry", "str-entry-pairs", "400-digit-int",
            "deep-array", "deep-entries",
        ],
    )
    def test_malformed_matrix_is_an_input_error(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestHugeFiniteEntries:
    """Products of huge finite entries overflow; every threshold fails on inf and NaN, and numpy stays silent."""

    @pytest.mark.parametrize(
        "entry,argv,code,err",
        [
            ([1e308, 1e308], ["check", "{m}"], 0, ""),
            ([1e308, 1e308], ["check", "{m}", "{m}", "--spec", "2"], 0, ""),
            ([1e200, 0], ["check", "{m}", "--spec", "2"], 0, ""),
            ([1e200, 0], ["report", "{m}", "{m}", "--spec", "2"], 1, "error: matrix is not complex Hadamard within tolerance\n"),
        ],
        ids=["check-one", "check-pair", "check-dpw", "report"],
    )
    def test_no_runtime_warning(self, capsys, tmp_path, entry, argv, code, err):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "entries": [entry] * 4}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = run(capsys, *(a.format(m=path) for a in argv))
        assert (got[0], got[2]) == (code, err)
        if code == 0:
            assert json.loads(got[1])["hadamard"] in (False, [False, False])

    @pytest.mark.parametrize("entry", [[1e200, 0], [1e308, 1e308]], ids=["1e200", "1e308+1e308j"])
    def test_library_calls_give_the_cli_answer(self, capsys, tmp_path, entry):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "entries": [entry] * 4}))
        m = load_matrix(path)
        one = json.loads(run(capsys, "check", str(path), "--spec", "2")[1])
        pair = json.loads(run(capsys, "check", str(path), str(path), "--spec", "2")[1])
        report = run(capsys, "report", str(path), str(path), "--spec", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_unitary(m) is one["class"]["unitary"]
            assert is_hadamard(m) is one["hadamard"]
            assert asdict(classify(m)) == one["class"]
            assert perm_phase_certificate(m, m) is None and pair["equivalent"] is False
            # the CLI prints a NotHadamard from decompose_dpw as "dpw": null
            with pytest.raises(NotHadamard):
                decompose_dpw(m, (2,))
            assert one["dpw"] is None
            with pytest.raises(NotHadamard) as rejected:
                pair_report(m, m, (2,))
        assert report == (1, "", f"error: {rejected.value}\n")


class TestReport:
    def test_quarter_phase_pair(self, capsys, tmp_path):
        f2 = fourier(2)
        pu = write_matrix(tmp_path / "u.json", f2)
        pv = write_matrix(tmp_path / "v.json", np.diag([1, 1j]) @ f2)
        code, out, _ = run(capsys, "report", pu, pv, "--spec", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["index"] == {"num": 4, "den": 1}
        assert obj["vertex"] is True
        assert obj["certified"] is True
        assert abs(obj["entropy_h"] - math.log(2)) < 1e-12

    def test_identical_pair_exits_zero(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "f2.json", fourier(2))
        code, out, _ = run(capsys, "report", path, path, "--spec", "2")
        assert code == 0
        obj = json.loads(out)
        assert "identical" in obj["flags"]

    def test_sign_block_pair_text(self, capsys, tmp_path):
        f4 = fourier(4)
        pu = write_matrix(tmp_path / "u.json", f4)
        pv = write_matrix(tmp_path / "v.json", np.diag([1, 1, -1, -1]) @ f4)
        code, out, _ = run(capsys, "report", pu, pv, "--spec", "4", "--format", "text")
        assert code == 0
        assert "dimA: 2" in out
        assert "index: 8" in out
        assert "entropy_h: 0.693147" in out

    @pytest.mark.parametrize("payload", ['{"dim": 2, "entries": [[1, 0]]}', "[" * 100000], ids=["short", "deep"])
    def test_malformed_matrix(self, capsys, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        good = write_matrix(tmp_path / "good.json", fourier(2))
        code, _, err = run(capsys, "report", str(bad), good, "--spec", "2")
        assert code == 1
        assert err.startswith("error: ")

    def test_non_hadamard_matrix(self, capsys, tmp_path):
        pu = write_matrix(tmp_path / "u.json", np.eye(2))
        pv = write_matrix(tmp_path / "v.json", fourier(2))
        code, _, err = run(capsys, "report", pu, pv, "--spec", "2")
        assert code == 1

    def test_oracle_mismatch_exits_three(self, capsys, tmp_path, monkeypatch):
        from hadinv import cli
        from hadinv.errors import OracleMismatch

        def broken(u, v, spec, tol):
            raise OracleMismatch("forced disagreement")

        monkeypatch.setattr(cli, "pair_report", broken)
        pu = write_matrix(tmp_path / "u.json", fourier(2))
        pv = write_matrix(tmp_path / "v.json", np.diag([1, 1j]) @ fourier(2))
        code, _, err = run(capsys, "report", pu, pv, "--spec", "2")
        assert code == 3
        assert "forced disagreement" in err


    def test_relcomm_mismatch_exits_three(self, capsys, tmp_path, monkeypatch):
        from hadinv import invariants

        # the support graph reports the right dimA but a relative commutant
        # dimension other than N/|H|
        monkeypatch.setattr(
            invariants, "_support_graph_invariants", lambda u, x, eps: (np.full(len(u), 2), np.full(len(u), 1))
        )
        pu = write_matrix(tmp_path / "u.json", fourier(4))
        pv = write_matrix(tmp_path / "v.json", np.diag([1, 1, -1, -1]) @ fourier(4))
        code, _, err = run(capsys, "report", pu, pv, "--spec", "4")
        assert code == 3
        assert "relative commutant dimension 1" in err

    def test_phase_noise_below_loose_tolerance(self, capsys, tmp_path):
        # the dimA=4 staircase pair over (8,) with 1e-7 row phase noise: both
        # routes judge the noise at eps_entry = 1e-6 and agree on dimA
        f8 = fourier(8)
        noise = np.exp(1e-7j * np.random.default_rng(59).uniform(-1.0, 1.0, 8))
        pu = write_matrix(tmp_path / "u.json", f8)
        pv = write_matrix(tmp_path / "v.json", np.diag(noise * 1j ** (np.arange(8) // 2)) @ f8)
        code, out, err = run(
            capsys, "report", pu, pv, "--spec", "8", "--tolerance", "1e-6", "--format", "text"
        )
        assert code == 0, err
        assert "dimA: 4" in out
        assert "relcomm_dims: 2" in out

    def test_noisy_pair_admitted_at_a_loose_tolerance_exits_zero(self, capsys, tmp_path):
        # F4 and D F4, each plus 3e-4 Gaussian noise (seed 1): u has unitarity error 9.0e-4 and the
        # first row of |u* v|^2 sums to 1 - 1.0009e-3, past eps_entry but inside what the gate allows
        rng = np.random.default_rng(1)
        u = fourier(4) + 3e-4 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        d = np.exp(2j * np.pi * rng.random(4))
        v = d[:, None] * fourier(4) + 3e-4 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        pu, pv = write_matrix(tmp_path / "u.json", u), write_matrix(tmp_path / "v.json", v)
        code, _, err = run(capsys, "report", pu, pv, "--spec", "4", "--tolerance", "1e-3")
        assert code == 0, err
        assert err == ""

    def test_profile_off_the_doubly_stochastic_bound_exits_three(self, capsys, tmp_path, monkeypatch):
        from hadinv import invariants

        original = invariants._dense_entropies
        monkeypatch.setattr(invariants, "_dense_entropies", lambda x, eps: original(1.1 * x, eps))
        pu = write_matrix(tmp_path / "u.json", fourier(4))
        pv = write_matrix(tmp_path / "v.json", np.diag([1, 1j, -1, -1j]) @ fourier(4))
        code, _, err = run(capsys, "report", pu, pv, "--spec", "4", "--tolerance", "9e-3")
        assert code == 3
        assert "doubly stochastic" in err

    def test_non_conjugate_pair_exits_zero(self, capsys, tmp_path):
        # normal forms with different permutations: A is larger than the span
        # of the clock conjugates (dimA 2, subgroup of order 1)
        pu = write_matrix(tmp_path / "u.json", fourier(4))
        pv = write_matrix(tmp_path / "v.json", np.eye(4)[[0, 1, 3, 2]] @ fourier(4))
        code, out, err = run(capsys, "report", pu, pv, "--spec", "4")
        assert code == 0, err
        obj = json.loads(out)
        assert obj["conjugate"] is False
        assert obj["dimA"] == 2
        assert obj["relcomm_dims"] == 1
        assert obj["subgroup"]["members"] == [[0]]

    def test_phase_on_the_threshold_reports_the_support_subgroup(self, capsys, tmp_path):
        # a phase of 6e-9 on d(0) of the dimA=4 staircase moves decision
        # values to 1.5e-9, above eps_entry, but |f(g)| off the support only to
        # 7.5e-10: H comes from the support of f, as dimA does
        pu, pv = str(tmp_path / "u.json"), str(tmp_path / "v.json")
        perm = ["--spec", "8", "--kind", "dpw", "--perm", "0,1,2,3,4,5,6,7"]
        assert run(capsys, "gen", *perm, "--phases", "1,1,1,1,1,1,1,1", "--out", pu)[0] == 0
        assert run(capsys, "gen", *perm, "--phases", "1+6e-9j,1,1j,1j,-1,-1,-1j,-1j", "--out", pv)[0] == 0
        code, out, err = run(capsys, "report", pu, pv, "--spec", "8", "--format", "text")
        assert code == 0, err
        assert "dimA: 4" in out
        assert "subgroup: 0; 2; 4; 6" in out
        assert "certified: true" in out


class TestRealize:
    def test_half_order(self, capsys, tmp_path):
        out_u = tmp_path / "u.json"
        out_v = tmp_path / "v.json"
        code, out, _ = run(
            capsys,
            "realize", "--spec", "4", "--divisors", "2",
            "--out-u", str(out_u), "--out-v", str(out_v),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["subgroup"]["members"] == [[0], [2]]
        assert obj["index"] == {"num": 8, "den": 1}
        u = matrix_from_obj(json.loads(out_u.read_text()))
        v = matrix_from_obj(json.loads(out_v.read_text()))
        assert maxabs(u - fourier(4)) < 1e-12
        assert maxabs(v - np.diag([1, 1, -1, -1]) @ fourier(4)) < 1e-12

    def test_bad_divisor(self, capsys):
        code, _, _ = run(capsys, "realize", "--spec", "4", "--divisors", "3")
        assert code == 1

    def test_no_dense_extraction(self, capsys, monkeypatch):
        # the printed members come from the Fourier route of pair_report, which
        # extracts nothing on the conjugate pairs (W, S W)
        from hadinv import groups, invariants

        calls = []
        real = groups.extract_subgroup
        counting = lambda *a: calls.append(a) or real(*a)  # noqa: E731
        monkeypatch.setattr(groups, "extract_subgroup", counting)
        monkeypatch.setattr(invariants, "extract_subgroup", counting)
        code, out, _ = run(capsys, "realize", "--spec", "8,8", "--divisors", "2,4")
        assert code == 0
        assert len(json.loads(out)["subgroup"]["members"]) == 8
        code, out, _ = run(capsys, "sweep", "--spec", "2,2,2,2", "--mode", "realize")
        assert code == 0
        assert json.loads(out)["violations"] == 0
        assert calls == []

    def test_realization_miss_exits_three(self, capsys, monkeypatch):
        # a constructor mutant: every factor gets the staircase of m = 1, so H is trivial
        from hadinv import groups

        real = groups._staircase
        monkeypatch.setattr(groups, "_staircase", lambda n, m: real(n, 1))
        for argv in (["realize", "--spec", "4", "--divisors", "2"], ["sweep", "--spec", "4", "--mode", "realize"]):
            code, out, err = run(capsys, *argv)
            assert code == 3, argv
            assert out == ""
            assert "divisors (2,): subgroup order 1 in the report, expected 2" in err


class TestSweep:
    def test_realize_mode(self, capsys):
        code, out, _ = run(capsys, "sweep", "--spec", "4", "--mode", "realize")
        assert code == 0
        obj = json.loads(out)
        assert obj["violations"] == 0
        assert [row["index"]["num"] for row in obj["rows"]] == [16, 8, 4]

    def test_realize_mode_text_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--spec", "2", "--mode", "realize", "--format", "text")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # two divisor rows plus the summary
        assert lines[-1] == "rows=2 violations=0"

    def test_realize_mode_text_has_no_negative_zero(self, capsys):
        code, out, _ = run(capsys, "sweep", "--spec", "8", "--mode", "realize", "--format", "text")
        assert code == 0
        assert "-0.000000" not in out
        assert "divisors=8 dimA=8 index=8 h=0.000000 bound=0.000000 gap=0.000000" in out

    def test_realize_mode_json_keeps_raw_gap(self, capsys):
        from hadinv import realization_sweep

        code, out, _ = run(capsys, "sweep", "--spec", "8", "--mode", "realize")
        assert code == 0
        expected = [rep.entropy_upper - rep.entropy_h for _, rep in realization_sweep((8,))]
        assert [row["gap"] for row in json.loads(out)["rows"]] == expected

    def test_random_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--spec", "2,2", "--mode", "random", "--samples", "6", "--seed", "7",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["violations"] == 0
        assert len(obj["rows"]) == 6
        assert all(row["violations"] == [] for row in obj["rows"])

    def test_random_mode_deterministic(self, capsys):
        args = ["sweep", "--spec", "2", "--mode", "random", "--samples", "4", "--seed", "3"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_random_mode_jobs_invariant(self, capsys):
        base = ["sweep", "--spec", "2", "--mode", "random", "--samples", "4", "--seed", "3"]
        _, out1, _ = run(capsys, *base)
        _, out2, _ = run(capsys, *base, "--jobs", "3")
        assert out1 == out2

    def test_golden_sweeps_span_several_stacks(self):
        from hadinv.invariants import STACK_ENTRIES

        assert 40 > 2 * (STACK_ENTRIES // 64**2)

    def test_random_mode_needs_seed(self, capsys):
        code, _, err = run(capsys, "sweep", "--spec", "2", "--mode", "random")
        assert code == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_an_input_error(self, capsys, samples):
        # an empty campaign would check nothing and report zero violations
        code, out, err = run(
            capsys, "sweep", "--spec", "2", "--mode", "random", "--samples", samples, "--seed", "1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--samples" in err

    def test_negative_seed_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--spec", "2,2", "--mode", "random", "--samples", "2", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: --seed must be non-negative, got -1\n"

    def test_violation_rows_exit_three(self, capsys, monkeypatch):
        from hadinv import cli

        # force the symmetry cross-check to miss so every row records a violation
        monkeypatch.setattr(cli, "_checked_entropies", lambda u, v, eps: 123.0)
        code, out, _ = run(
            capsys,
            "sweep", "--spec", "2", "--mode", "random", "--samples", "2", "--seed", "1",
        )
        assert code == 3
        obj = json.loads(out)
        assert obj["violations"] > 0

    @pytest.mark.parametrize(
        "part,message",
        [(0, "not a permutation"), (1, "modulus one"), (2, "modulus one"), (3, "modulus one")],
        ids=["perm", "phases-u", "phases-v", "extra"],
    )
    def test_a_chunk_with_a_spoiled_draw_is_rejected(self, capsys, monkeypatch, part, message):
        from hadinv import cli

        # spoil one part of sample 30's draw in the stacks of its chunk; the chunk's check must catch it
        draws = cli._random_draws

        def spoiled(spec, seed, samples):
            parts = draws(spec, seed, samples)
            if 30 in samples:
                x = parts[part][samples.index(30)]
                x[:] = np.where(x == x[1], x[0], x) if part == 0 else x * (1 + 2e-9)
            return parts

        monkeypatch.setattr(cli, "_random_draws", spoiled)
        code, out, err = run(
            capsys, "sweep", "--spec", "8,8", "--mode", "random", "--samples", "40", "--seed", "5"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_rows_are_drawn_chunk_by_chunk(self, capsys, monkeypatch):
        from hadinv import cli

        chunks = []
        draws = cli._random_draws

        def counting(spec, seed, samples):
            chunks.append(samples)
            return draws(spec, seed, samples)

        monkeypatch.setattr(cli, "_random_draws", counting)
        code, _, _ = run(capsys, "sweep", "--spec", "8,8", "--mode", "random", "--samples", "40", "--seed", "5")
        # STACK_ENTRIES / 64^2 = 16 rows a chunk
        assert code == 0 and chunks == [range(0, 16), range(16, 32), range(32, 40)]

    # sha256 of seeded sweep output: a change to the sampler's draw order,
    # to how a row's pair is realized or to the row arithmetic shows up here
    GOLDEN = [
        (
            ("--spec", "2,4", "--mode", "random", "--samples", "60", "--seed", "7"),
            "5a7542a47910cc11d7cc13163602d0c2c6da63ef3a345eefdb8b61616567a34b",
        ),
        (
            ("--spec", "3,3", "--mode", "random", "--samples", "60", "--seed", "1", "--jobs", "2"),
            "f11231f98e5333c18d320de2fc2b1dc2119e096ad953e09907df5d313f5dc8ef",
        ),
        (
            ("--spec", "2,4", "--mode", "realize", "--format", "text"),
            "82e60e98abff640ed099022f78707fb923466609f158e803311cc140f130f86a",
        ),
        # N = 64: 40 samples span three stacks of STACK_ENTRIES / 64^2 = 16 rows
        (
            ("--spec", "8,8", "--mode", "random", "--samples", "40", "--seed", "5"),
            "083519a1bcae3878e2104552c75e32b2fae822eb2dd867a8e46e5e8f9cd036c7",
        ),
        (
            ("--spec", "64", "--mode", "random", "--samples", "40", "--seed", "2", "--jobs", "2"),
            "a6a7a6201038c90396d73ad43d73defacfe7bc82631440754b5c3b1f5202a558",
        ),
    ]

    @pytest.mark.parametrize(
        "argv,digest", GOLDEN, ids=["random-2,4", "random-3,3", "realize-2,4", "random-8,8", "random-64"]
    )
    def test_seeded_output_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "sweep", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestHelp:
    COMMANDS = [None, "gen", "check", "report", "realize", "sweep", "verify"]

    @pytest.mark.parametrize("columns", ["60", "200"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c or "hadinv")
    def test_help_is_what_the_default_formatter_writes(self, capsys, monkeypatch, columns, command):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"] if command else ["--help"])
        assert stop.value.code == 0
        got = capsys.readouterr().out
        # the reference: argparse's own formatter, which measures the terminal on every use
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for p in [parser, *commands.choices.values()]:
            p.formatter_class = argparse.HelpFormatter
        assert got == (parser if command is None else commands.choices[command]).format_help()


def _outcome(capsys, argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)``, whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserParity:
    """``main`` parses with one cached tree; every outcome equals a fresh ``build_parser()`` tree's."""

    COMMANDS = TestHelp.COMMANDS

    @staticmethod
    def _assert_parity(capsys, monkeypatch, argv):
        got = _outcome(capsys, argv)
        monkeypatch.setattr(cli, "_parse_args", lambda args: build_parser().parse_args(args))
        assert got == _outcome(capsys, argv)
        return got

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--spec", "2", "--kind", "fourier"],
            ["check", "{u}"],
            ["report", "{u}", "{v}", "--spec", "2", "--format", "text"],
            ["realize", "--spec", "4", "--divisors", "2"],
            ["sweep", "--spec", "2,2", "--mode", "random", "--samples", "2", "--seed", "1"],
            ["verify", "--max-order", "3", "--gamma-orders", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_command_runs_as_with_the_full_tree(self, capsys, monkeypatch, tmp_path, argv):
        paths = {"u": write_matrix(tmp_path / "u.json", fourier(2)), "v": write_matrix(tmp_path / "v.json", fourier(2))}
        code, out, _ = self._assert_parity(capsys, monkeypatch, [a.format(**paths) for a in argv])
        assert code == 0 and out

    @pytest.mark.parametrize(
        "argv,stderr_start",
        [
            ([], "usage: hadinv [-h] {gen,check,report,realize,sweep,verify}"),
            (["frobnicate"], "usage: hadinv [-h] {gen,check,report,realize,sweep,verify}"),
            (["verify", "--bogus"], "usage: hadinv [-h] {gen,check,report,realize,sweep,verify}"),
            (["verify", "extra"], "usage: hadinv [-h] {gen,check,report,realize,sweep,verify}"),
            (["--tolerance", "1e-9", "verify"], "usage: hadinv [-h] {gen,check,report,realize,sweep,verify}"),
            (["report", "u.json"], "usage: hadinv report"),
            (["verify", "--format", "xml"], "usage: hadinv verify"),
            (["sweep", "--spec", "2", "--mode", "bogus"], "usage: hadinv sweep"),
        ],
        ids=[
            "bare", "unknown-command", "unknown-flag", "leftover-argument", "flag-before-command", "missing-required",
            "bad-format", "bad-mode",
        ],
    )
    def test_usage_errors(self, capsys, monkeypatch, argv, stderr_start):
        code, out, err = self._assert_parity(capsys, monkeypatch, argv)
        assert (code, out) == (2, "")
        assert err.startswith(stderr_start)

    @pytest.mark.parametrize("columns", ["60", "200"])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c or "hadinv")
    def test_help(self, capsys, monkeypatch, columns, flag, command):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = self._assert_parity(capsys, monkeypatch, [command, flag] if command else [flag])
        assert (code, err) == (0, "")
        assert out.startswith("usage: hadinv")

    @pytest.mark.parametrize("columns", ["60", "200"])
    def test_help_before_a_command(self, capsys, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = self._assert_parity(capsys, monkeypatch, ["-h", "verify"])
        assert (code, err) == (0, "")
        assert out == build_parser().format_help()

    def test_a_process_builds_one_tree(self, capsys, monkeypatch):
        builds = []
        real = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda *a, **k: builds.append(a) or real(*a, **k))
        cli._parser.cache_clear()
        assert _outcome(capsys, ["verify", "--max-order", "2", "--gamma-orders", "2"])[0] == 0
        assert _outcome(capsys, ["verify", "--bogus"])[0] == 2
        assert _outcome(capsys, ["report", "--help"])[0] == 0
        # the top-level parser and one subparser per command, once
        assert len(builds) == 1 + len(cli._COMMANDS)


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "9", "--gamma-orders", "2,3")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_deterministic_output(self, capsys):
        args = ["verify", "--max-order", "6", "--gamma-orders", "2"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_reports_relcomm_dims(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "4", "--gamma-orders", "2,3,4")
        assert code == 0
        assert "relcomm dims 2,2" in out
        assert "relcomm dims 3,3" in out
        assert "relcomm dims 4,4" in out

    def test_tower_order_16(self, capsys):
        code, out, _ = run(capsys, "verify", "--gamma-orders", "16")
        assert code == 0
        assert "tower-base-square-16: " in out and "relcomm dims 16,16" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "argv,orders", [([], range(2, 5)), (["--gamma-orders", "2,3,4,5,6,7,8,9"], range(2, 10))]
    )
    def test_passes_at_the_tolerance_ceiling(self, capsys, argv, orders):
        code, out, err = run(capsys, "verify", "--tolerance", "9e-3", *argv)
        assert code == 0, err
        lines = out.splitlines()
        assert lines and all(" PASS" in line and "FAIL" not in line for line in lines)
        towers = [line for line in lines if line.startswith("tower-base-square-")]
        assert len(towers) == len(orders)
        for line, n in zip(towers, orders):
            assert line.startswith(f"tower-base-square-{n}: ") and f"relcomm dims {n},{n}" in line

    @pytest.mark.parametrize("tolerance", ["1e-2", "0"])
    def test_tolerance_outside_its_range_is_an_input_error(self, capsys, tolerance):
        code, out, err = run(capsys, "verify", "--tolerance", tolerance)
        assert code == 1
        assert out == ""
        assert err.startswith("error: eps_entry must lie in (0, 1e-2)")

    @pytest.mark.parametrize("max_order", ["1", "-5"])
    def test_max_order_below_two_is_an_input_error(self, capsys, max_order):
        # with no order to sweep, the order checks used to print a vacuous PASS
        code, out, err = run(capsys, "verify", "--max-order", max_order)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "max order" in err

    @pytest.mark.parametrize("argv", [["--max-order", "65"], ["--gamma-orders", "2,37"]])
    def test_order_above_its_cap_is_an_input_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_failure_exits_four_and_names_check(self, capsys, monkeypatch):
        from hadinv import cli
        from hadinv.verify import CheckResult

        def broken(**kwargs):
            return [CheckResult(name="clock-shift-commutation", passed=False, max_err=1.0)]

        monkeypatch.setattr(cli, "run_verification", broken)
        code, out, err = run(capsys, "verify")
        assert code == 4
        assert "clock-shift-commutation" in err


class TestToleranceOverride:
    def test_flag_overrides(self, capsys, tmp_path):
        # a coarse tolerance accepts a slightly perturbed Hadamard matrix
        noisy = fourier(2) + 1e-7
        path = write_matrix(tmp_path / "noisy.json", noisy)
        code, out, _ = run(capsys, "check", path)
        assert json.loads(out)["hadamard"] is False
        code, out, _ = run(capsys, "check", path, "--tolerance", "1e-4")
        assert json.loads(out)["hadamard"] is True


class TestCommaListFlags:
    @pytest.mark.parametrize(
        "argv,name,text",
        [
            (("gen", "--spec", "2,x", "--kind", "fourier-tensor"), "spec", "2,x"),
            (("gen", "--spec", "4", "--kind", "diag", "--k", "1,x"), "--k", "1,x"),
            (("gen", "--spec", "4", "--kind", "shift", "--k", ""), "--k", ""),
            (("gen", "--spec", "2", "--kind", "dpw", "--perm", "0,x", "--phases", "1,1"), "--perm", "0,x"),
            (("gen", "--spec", "2", "--kind", "dpw", "--perm", "0,1", "--phases", "1,q"), "--phases", "1,q"),
            (("realize", "--spec", "4", "--divisors", "2,"), "--divisors", "2,"),
            (("verify", "--gamma-orders", "2,x"), "--gamma-orders", "2,x"),
        ],
        ids=["spec", "k", "k-empty", "perm", "phases", "divisors", "gamma-orders"],
    )
    def test_a_bad_list_is_an_input_error_naming_its_flag(self, capsys, argv, name, text):
        # not int()'s "invalid literal for int() with base 10: 'x'"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse {name} {text!r}\n"
