"""The output checker accepts real outputs and counts corrupted ones as failures."""

import contextlib
import io
import json

import numpy as np
import pytest

from check import Checker, load_reference
from hadinv import cli
from inputs import REPORT_WARMUP, report_op, sweep_random_op, tower_op
from run import tally


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    op = report_op(REPORT_WARMUP, np.random.default_rng(3), str(tmp_path_factory.mktemp("m")), "t")
    return (op, *run_cli(op["argv"]))


@pytest.fixture(scope="module")
def sweeps():
    ops = [sweep_random_op("2,2", 11, 20, jobs) for jobs in (1, 2)]
    return [(op, *run_cli(op["argv"])) for op in ops]


def failures(checker, outcomes):
    """fail_frac's numerator over (op, rc, out) outcomes, as run.py counts it."""
    recs = [{"problems": checker.check(op, rc, out)} for op, rc, out in outcomes]
    return tally(recs, 0, 0)[1]


def corrupt_report(out, **changes):
    obj = json.loads(out)
    obj.update(changes)
    return json.dumps(obj)


def test_real_outputs_pass(report, sweeps):
    checker = Checker(load_reference())
    verify_op = tower_op(3)
    outcomes = [report, *sweeps, (verify_op, *run_cli(verify_op["argv"]))]
    assert failures(checker, outcomes) == 0


@pytest.mark.parametrize(
    "changes",
    [
        lambda rep: {"dimA": rep["dimA"] + 1},
        lambda rep: {"relcomm_dims": rep["relcomm_dims"] - 1},
        lambda rep: {"certified": not rep["certified"]},
        lambda rep: {"subgroup": None},
        lambda rep: {"index": {"num": rep["index"]["num"] + 1, "den": 1}},
        lambda rep: {"entropy_h": rep["entropy_upper"] + 1e-6},
    ],
)
def test_corrupted_report_counts_as_failed(report, changes):
    op, rc, out = report
    bad = corrupt_report(out, **changes(json.loads(out)))
    assert failures(Checker(load_reference()), [(op, rc, bad)]) == 1


def test_nonzero_exit_counts_as_failed(report):
    op, _, out = report
    assert failures(Checker(load_reference()), [(op, 3, out)]) == 1


def test_flipped_sweep_byte_counts_as_failed(sweeps):
    (op1, rc1, out1), (op2, rc2, out2) = sweeps
    # flip one digit of a phase: still valid JSON, no longer byte-identical
    at = out2.index('"phases_u"') + out2[out2.index('"phases_u"'):].index(".") + 3
    flipped = out2[:at] + chr(ord(out2[at]) ^ 1) + out2[at + 1:]
    assert flipped != out2
    assert failures(Checker(load_reference()), [(op1, rc1, out1), (op2, rc2, flipped)]) == 1


def test_sweep_violation_counts_as_failed(sweeps):
    op, rc, out = sweeps[0]
    obj = json.loads(out)
    obj["violations"] = 1
    obj["rows"][0]["violations"] = ["entropy-bound"]
    assert failures(Checker(load_reference()), [(op, rc, json.dumps(obj))]) == 1


def test_verify_fail_line_counts_as_failed():
    op = tower_op(3)
    rc, out = run_cli(op["argv"])
    failed_line = out.replace(" PASS\n", " FAIL\n", 1)
    wrong_dims = out.replace("relcomm dims 3,3", "relcomm dims 3,2")
    assert failures(Checker(load_reference()), [(op, rc, failed_line), (op, rc, wrong_dims)]) == 2
