"""Span bookkeeping: self time from nested spans, and wrappers that change no output."""

import contextlib
import io
import sys

import numpy as np

import hadinv
from hadinv import cli
from inputs import REPORT_WARMUP, report_op
from spans import Span, Tracer, layer_metrics, span_stats


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, None, 0, "cli.main", 0.0, 10.0),
        # two worker threads overlap on [2, 3]: covered once, not twice
        Span(2, 1, 0, "invariants.pair_report", 1.0, 3.0),
        Span(3, 1, 0, "invariants.pair_report", 2.0, 5.0),
        Span(4, 1, 0, "serialize.dumps", 8.0, 9.0),
        Span(5, 3, 0, "linalg.nullspace", 2.5, 4.0),
    ]
    stats = span_stats(spans)
    assert stats["cli.main"]["self_s"] == 10.0 - 4.0 - 1.0
    assert stats["invariants.pair_report"]["s"] == 5.0
    assert stats["invariants.pair_report"]["self_s"] == 2.0 + 3.0 - 1.5
    assert stats["linalg.nullspace"]["self_s"] == 1.5


def test_recursive_spans_count_inclusive_time_once():
    spans = [
        Span(1, None, 0, "linalg.orthonormal_basis", 0.0, 4.0),
        Span(2, 1, 0, "linalg.orthonormal_basis", 1.0, 2.0),
    ]
    stats = span_stats(spans)
    assert stats["linalg.orthonormal_basis"]["calls"] == 2
    assert stats["linalg.orthonormal_basis"]["s"] == 4.0
    metrics = layer_metrics(stats, passes=2)
    assert metrics["linalg.orthonormal_basis.calls"] == 1.0
    assert metrics["linalg.orthonormal_basis.keep_ratio"] == 0.0


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_wrappers_leave_report_output_unchanged(tmp_path):
    op = report_op(REPORT_WARMUP, np.random.default_rng(0), str(tmp_path), "t")
    plain = run_cli(op["argv"])
    originals = {name: getattr(sys.modules["hadinv.algebra"], name) for name in ("commutant", "nullspace")}
    tracer = Tracer()
    tracer.install()
    try:
        assert hadinv.invariants.commutant is not originals["commutant"]
        traced = run_cli(op["argv"])
    finally:
        tracer.uninstall()
    assert traced == plain
    assert hadinv.invariants.commutant is originals["commutant"]
    assert hadinv.algebra.nullspace is originals["nullspace"]
    stats = span_stats(tracer.spans)
    assert stats["invariants.pair_report"]["calls"] == 1
    assert stats["algebra.commutant"]["calls"] == 1
    assert stats["serialize.load_matrix"]["calls"] == 2
    assert stats["groups.extract_subgroup"]["counts"] == {"tested": 16, "found": 4}


def test_worker_thread_spans_hang_under_the_cli_call():
    tracer = Tracer()
    tracer.install()
    try:
        rc, _ = run_cli(["sweep", "--spec", "2,2", "--mode", "random", "--samples", "6", "--seed", "1", "--jobs", "2"])
    finally:
        tracer.uninstall()
    assert rc == 0
    (main,) = [s for s in tracer.spans if s.name == "cli.main"]
    reports = [s for s in tracer.spans if s.name == "invariants.pair_report"]
    assert len(reports) == 6
    assert all(s.parent == main.sid for s in reports)
