"""Tests for entropy, pair reports, and realization sweeps."""

import dataclasses
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadinv.invariants
from conftest import SPECS_UP_TO_16, SPECS_UP_TO_64, haar_unitary, maxabs, perm_matrix, random_dpw, same_bits
from hadinv import (
    DimMismatch,
    DomainError,
    DpwForm,
    FourierSpec,
    HadinvError,
    InvariantReport,
    NonUnitary,
    NotClosed,
    NotHadamard,
    OracleMismatch,
    OrderTooLarge,
    ToleranceConfig,
    commutant,
    decompose_dpw,
    diag_conj_algebra,
    diagonal_algebra,
    divisors,
    eta,
    extract_subgroup,
    fourier,
    fourier_tensor,
    intersect_algebras,
    is_hadamard,
    modified_entropy,
    pair_report,
    pair_reports,
    random_conjugate_forms,
    random_conjugate_pair,
    realization_sweep,
    realize_subgroup,
)
from hadinv.groups import extract_decisions, inverse_dft, subgroup_from_mask
from hadinv.invariants import (
    ENTROPY_BOUND_TOL,
    STACK_ENTRIES,
    _checked_entropies,
    _conjugate_diagonals,
    _fourier_sides,
    _FourierSide,
)
from oracles import fourier_decisions, shift_spectrum


class TestEta:
    def test_endpoints(self):
        assert eta(1.0) == 0.0
        assert eta(0.0) == 0.0

    def test_half(self):
        assert abs(eta(0.5) - math.log(2) / 2) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            eta(bad)


class TestModifiedEntropy:
    def test_equal_pair_vanishes(self):
        f2 = fourier(2)
        assert abs(modified_entropy(f2, f2)) < 1e-12

    def test_quarter_phase_pair(self):
        f2 = fourier(2)
        got = modified_entropy(f2, np.diag([1, 1j]) @ f2)
        assert abs(got - math.log(2)) < 1e-12

    def test_sign_block_pair(self):
        f4 = fourier(4)
        got = modified_entropy(f4, np.diag([1, 1, -1, -1]) @ f4)
        assert abs(got - math.log(2)) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(50)
        u = haar_unitary(5, rng)
        v = haar_unitary(5, rng)
        assert abs(modified_entropy(u, v) - modified_entropy(v, u)) < 1e-12

    def test_left_diagonal_invariance(self):
        rng = np.random.default_rng(51)
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        d = np.diag(np.exp(2j * np.pi * rng.random(4)))
        assert abs(modified_entropy(d @ u, d @ v) - modified_entropy(u, v)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(52)
        for n in (2, 3, 5):
            for _ in range(5):
                got = modified_entropy(haar_unitary(n, rng), haar_unitary(n, rng))
                assert -1e-12 <= got <= math.log(n) + 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitary):
            modified_entropy(np.ones((2, 2)), np.eye(2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            modified_entropy(fourier(2), fourier(3))

    def test_checked_entropies_keep_the_doubly_stochastic_check(self):
        # the sweep's route for stacks already checked unitary: same values, and the
        # squared-modulus profile is still checked
        rng = np.random.default_rng(53)
        us = np.array([haar_unitary(4, rng) for _ in range(3)])
        vs = np.array([haar_unitary(4, rng) for _ in range(3)])
        assert np.array_equal(_checked_entropies(us, vs, 1e-9), modified_entropy(us, vs))
        vs[1] *= 1 + 1e-8
        with pytest.raises(OracleMismatch, match="doubly stochastic"):
            _checked_entropies(us, vs, 1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_the_doubly_stochastic_bound_is_reached_and_kept(self, n):
        # v v* = 1 + 0.999 eps J (J all ones) and u = F_n, whose first column is constant, move the
        # first row sum of |u* v|^2 by about N eps, past eps itself: admitted at eps, the pair passes
        eps = 1e-3
        w, q = np.linalg.eigh(np.eye(n) + 0.999 * eps * np.ones((n, n)))
        v = (q * np.sqrt(w)) @ q.conj().T
        u = fourier(n)
        row = (np.abs(u.conj().T @ v) ** 2).sum(axis=1)
        assert 0.99 * n * eps < abs(row[0] - 1) < n * eps * (2 + n * eps)
        modified_entropy(u, v, ToleranceConfig(eps_entry=eps))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_noisy_pairs_the_hadamard_gate_admits(self, n):
        # F_n and D F_n, each plus 3e-4 Gaussian noise: a check of the row sums at eps_entry itself
        # raised on about half of these at eps_entry = 1e-3
        tol = ToleranceConfig(eps_entry=1e-3)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            u = fourier(n) + 3e-4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            d = np.exp(2j * np.pi * rng.random(n))
            v = d[:, None] * fourier(n) + 3e-4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            if is_hadamard(u, tol) and is_hadamard(v, tol):
                pair_report(u, v, (n,), tol)
                modified_entropy(u, v, tol)

    @pytest.mark.parametrize("eps", [1e-9, 9e-3])
    def test_a_profile_off_the_bound_still_raises(self, monkeypatch, eps):
        # X scaled by 1.1 moves every row sum of |X|^2 by 0.21, past N eps (2 + N eps) at N = 4
        original = hadinv.invariants._dense_entropies
        monkeypatch.setattr(hadinv.invariants, "_dense_entropies", lambda x, e: original(1.1 * x, e))
        tol = ToleranceConfig(eps_entry=eps)
        f4 = fourier(4)
        with pytest.raises(OracleMismatch, match="doubly stochastic"):
            pair_report(f4, np.diag([1, 1j, -1, -1j]) @ f4, (4,), tol)
        with pytest.raises(OracleMismatch, match="doubly stochastic"):
            modified_entropy(f4, f4, tol)


class TestPairReport:
    def test_quarter_phase_pair(self):
        f2 = fourier(2)
        rep = pair_report(f2, np.diag([1, 1j]) @ f2, (2,))
        assert rep.distinct and rep.conjugate
        assert rep.dim_a == 1
        assert rep.index == Fraction(4)
        assert rep.relcomm_dims == 2
        assert rep.vertex
        assert abs(rep.entropy_h - math.log(2)) < 1e-12
        assert abs(rep.entropy_upper - math.log(2)) < 1e-12
        assert rep.certified
        assert rep.subgroup is not None and rep.subgroup.size == 1

    @pytest.mark.parametrize("spec,orders", [("64", (64,)), ("8,8", (8, 8))])
    def test_spec_given_as_a_string(self, spec, orders):
        # "64" is the order 64, not the factors (6, 4)
        w = fourier_tensor(orders)
        rep = pair_report(w, np.diag(np.exp(2j * np.pi * np.arange(64) / 7)) @ w, spec)
        assert rep.spec == orders and rep.n == 64

    @pytest.mark.parametrize("spec,orders", [(4.0, (4,)), (np.float64(4), (4,))])
    def test_spec_given_as_an_integral_float(self, spec, orders):
        f4 = fourier(4)
        rep = pair_report(f4, np.diag([1, 1j, -1, -1j]) @ f4, spec)
        assert rep.spec == orders and rep.n == 4

    @pytest.mark.parametrize("spec", [4.5, None], ids=["4.5", "None"])
    def test_spec_that_is_no_integer_raises_a_hadinv_error(self, spec):
        f4 = fourier(4)
        with pytest.raises(HadinvError, match="factor orders must be integers"):
            pair_report(f4, np.diag([1, 1j, -1, -1j]) @ f4, spec)

    def test_sign_pair_not_distinct(self):
        f2 = fourier(2)
        rep = pair_report(f2, np.diag([1, -1]) @ f2, (2,))
        assert not rep.distinct
        assert rep.dim_a == 2
        assert rep.index == Fraction(2)
        assert not rep.vertex
        assert not rep.certified
        assert "hypotheses-unverified" in rep.flags

    def test_sign_block_pair(self):
        f4 = fourier(4)
        rep = pair_report(f4, np.diag([1, 1, -1, -1]) @ f4, (4,))
        assert rep.distinct and rep.conjugate
        assert rep.dim_a == 2
        assert rep.subgroup.sorted_members() == [(0,), (2,)]
        assert rep.index == Fraction(8)
        assert rep.relcomm_dims == 2
        assert not rep.vertex
        assert abs(rep.entropy_h - math.log(2)) < 1e-12
        assert abs(rep.entropy_upper - math.log(2)) < 1e-12
        assert rep.certified

    def test_identical_pair_flagged(self):
        f2 = fourier(2)
        rep = pair_report(f2, f2, (2,))
        assert "identical" in rep.flags
        assert not rep.distinct
        assert rep.dim_a == 2
        assert rep.subgroup is None
        assert abs(rep.entropy_h) < 1e-12
        assert not rep.certified

    def test_equivalent_pair_has_full_intersection(self):
        rng = np.random.default_rng(53)
        u = random_dpw((2, 2), rng)
        v = u @ perm_matrix(rng.permutation(4)) @ np.diag(np.exp(2j * np.pi * rng.random(4)))
        rep = pair_report(u, v, (2, 2))
        assert not rep.distinct
        assert rep.dim_a == 4
        assert rep.index == Fraction(4)

    def test_non_normal_form_pair_flagged(self):
        # F4 is Hadamard of dimension 4 but is not a normal form over (2, 2)
        f4 = fourier(4)
        v = np.diag([1, 1j, 1, 1j]) @ f4
        rep = pair_report(f4, v, (2, 2))
        assert "not-dpw-form" in rep.flags
        assert not rep.conjugate
        assert not rep.certified

    def test_dimension_symmetric(self):
        rng = np.random.default_rng(54)
        u, v = random_conjugate_pair((2, 2), rng)
        assert pair_report(u, v, (2, 2)).dim_a == pair_report(v, u, (2, 2)).dim_a

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            pair_report(fourier(2), fourier(2), (4,))

    def test_modulus_noise_under_coarse_tolerance(self):
        # rows of a dimA=4 staircase pair scaled by 1 +- 1e-4; at eps_entry
        # 1e-3 the normal form must accept the phases instead of leaking a
        # bare ValueError out of DpwForm
        f8 = fourier(8)
        v = np.diag(1j ** (np.arange(8) // 2)) @ f8
        noise = 1.0 + 1e-4 * np.random.default_rng(57).uniform(-1.0, 1.0, 8)
        try:
            rep = pair_report(f8, np.diag(noise) @ v, (8,), ToleranceConfig(eps_entry=1e-3))
        except HadinvError as exc:
            pytest.fail(f"noisy pair within tolerance raised {exc!r}")
        assert rep.dim_a == 4
        assert rep.relcomm_dims == 2
        assert rep.conjugate and rep.certified


def _dense_invariants(u, v) -> tuple[int, int]:
    """(dimA, relative commutant dimension) from the dense subspace and commutant routes."""
    inter = intersect_algebras(diag_conj_algebra(u), diag_conj_algebra(v))
    return inter.dim, commutant(inter, diagonal_algebra(u.shape[0])).dim


def _assert_matches_dense(u, v, spec):
    rep = pair_report(u, v, spec)
    assert (rep.dim_a, rep.relcomm_dims) == _dense_invariants(u, v)
    if rep.conjugate or not rep.distinct:
        assert rep.dim_a * rep.relcomm_dims == u.shape[0]


def _fixed_counts(dim_a, relcomm_dims):
    """A substitute for ``_support_graph_invariants`` that gives every pair of the stack the same counts."""
    return lambda u, x, eps: (np.full(len(u), dim_a), np.full(len(u), relcomm_dims))


class TestSupportGraphOracle:
    """The support-graph invariants of pair_report against the dense algebra routes."""

    @pytest.mark.parametrize("spec", SPECS_UP_TO_16, ids=lambda s: ",".join(map(str, s)))
    def test_every_realized_divisor_vector(self, spec):
        for mvec in itertools.product(*[divisors(order) for order in spec]):
            u, v = realize_subgroup(spec, mvec)
            _assert_matches_dense(u, v, spec)

    @pytest.mark.parametrize("spec", SPECS_UP_TO_16, ids=lambda s: ",".join(map(str, s)))
    def test_random_conjugate_and_non_distinct_pairs(self, spec):
        rng = np.random.default_rng(sum(spec) * 100 + len(spec))
        n = math.prod(spec)
        for _ in range(2):
            _assert_matches_dense(*random_conjugate_pair(spec, rng), spec)
        u = random_dpw(spec, rng)
        v = u @ perm_matrix(rng.permutation(n)) @ np.diag(np.exp(2j * np.pi * rng.random(n)))
        _assert_matches_dense(u, v, spec)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_phase_diagonals(self, data):
        spec = data.draw(st.sampled_from(SPECS_UP_TO_16), label="spec")
        n = math.prod(spec)
        # phases on a small root-of-unity grid hit non-trivial intersections
        grid = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, n]), label="grid")
        w = fourier_tensor(spec)
        mats = []
        for side in ("u", "v"):
            steps = data.draw(st.lists(st.integers(0, grid - 1), min_size=n, max_size=n), label=side)
            perm = data.draw(st.permutations(range(n)), label=f"perm_{side}")
            mats.append(np.diag(np.exp(2j * np.pi * np.array(steps) / grid)) @ perm_matrix(perm) @ w)
        _assert_matches_dense(*mats, spec)

    def test_a_report_imports_no_masked_arrays(self):
        # np.unique imports numpy.ma on its first call in a process, which once cost the first
        # report of a pair with dimA > 1 about 10 ms
        code = (
            "import sys; from hadinv import pair_report, realize_subgroup; "
            "assert pair_report(*realize_subgroup((8,), (4,)), (8,)).dim_a == 4; "
            "print('numpy.ma' in sys.modules)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(hadinv.__file__).parents[1]) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_relcomm_disagreement_raises(self, monkeypatch):
        f4 = fourier(4)
        monkeypatch.setattr(hadinv.invariants, "_support_graph_invariants", _fixed_counts(2, 1))
        with pytest.raises(OracleMismatch, match="relative commutant"):
            pair_report(f4, np.diag([1, 1, -1, -1]) @ f4, (4,))

    def test_dim_disagreement_raises(self, monkeypatch):
        f4 = fourier(4)
        monkeypatch.setattr(hadinv.invariants, "_support_graph_invariants", _fixed_counts(1, 4))
        with pytest.raises(OracleMismatch, match="subgroup order 2"):
            pair_report(f4, np.diag([1, 1, -1, -1]) @ f4, (4,))


def _conjugate_diagonal(form_u, form_v):
    """The d of one conjugate pair of normal forms: ``_conjugate_diagonals`` on a batch of one."""
    return _conjugate_diagonals(np.asarray(form_u.perm), np.asarray(form_u.phases), np.asarray(form_v.phases))


def _fourier_side(form_u, form_v, x):
    """The Fourier route of one conjugate pair: ``_fourier_sides`` on a batch of one."""
    sides = _fourier_sides(_conjugate_diagonal(form_u, form_v)[None], x[None], form_u.spec, 1e-9)
    return _FourierSide(*(field[0] for field in sides))


def _assert_fourier_route_matches(u, v, spec):
    """The Fourier route of a conjugate pair against the decision values, extract_subgroup and the dense entropy."""
    n = math.prod(spec)
    form_u, form_v = decompose_dpw(u, spec), decompose_dpw(v, spec)
    assert form_u.perm == form_v.perm
    d = _conjugate_diagonal(form_u, form_v)
    w = fourier_tensor(spec)
    x = u.conj().T @ v
    assert maxabs(d - np.diag(w @ x @ w.conj().T)) < 1e-12
    # the inverse DFT over the group is numpy's ifftn on the spec's axes
    f = inverse_dft(d, spec)
    assert maxabs(f - np.fft.ifftn(d.reshape(spec)).reshape(-1)) < 1e-12
    # every entry of X* D_r X, not only the maxima: (X* D_r X)_0j = chi_r(j) ê_r(j)
    spectrum = shift_spectrum(d, spec)
    characters = np.sqrt(n) * w
    for r, character in enumerate(characters):
        row = (x.conj().T @ (character[:, None] * x))[0]
        assert maxabs(row - character * spectrum[r]) < 1e-12
    values = fourier_decisions(d, spec)
    assert maxabs(values - extract_decisions(u, v, spec)) < 1e-12
    # H as the annihilator of the support of f, as the decision values give it, and by extraction
    side = _fourier_side(form_u, form_v, x)
    assert np.array_equal(side.magnitudes, np.abs(f))
    assert side.subgroup == subgroup_from_mask(values < 1e-9, spec) == extract_subgroup(u, v, spec)
    # the entropy of p = |ifftn(d)|^2, as pair_report computes it and by a plain loop
    assert side.allowance < 1e-11
    shannon = sum(eta(min(t, 1.0)) for t in np.abs(np.fft.ifftn(d.reshape(spec)).ravel()) ** 2)
    assert abs(shannon - modified_entropy(u, v)) < 1e-12
    assert abs(side.entropy - shannon) < 1e-12


class TestFourierRouteOracle:
    """The Fourier route's H and entropy against the decision values and the dense routes."""

    @pytest.mark.parametrize("spec", SPECS_UP_TO_16, ids=lambda s: ",".join(map(str, s)))
    def test_every_realized_divisor_vector(self, spec):
        for mvec in itertools.product(*[divisors(order) for order in spec]):
            _assert_fourier_route_matches(*realize_subgroup(spec, mvec), spec)

    @pytest.mark.parametrize(
        "spec", [(64,), (8, 8), (4, 4, 4), (2,) * 6, (6, 6), (2, 3, 5)], ids=lambda s: ",".join(map(str, s))
    )
    def test_random_conjugate_pairs(self, spec):
        rng = np.random.default_rng(math.prod(spec) + len(spec))
        for _ in range(2):
            _assert_fourier_route_matches(*random_conjugate_pair(spec, rng), spec)

    @pytest.mark.parametrize("spec", [(6,), (2, 4), (3, 3), (8, 8)], ids=lambda s: ",".join(map(str, s)))
    def test_conjugate_non_distinct_pair(self, spec):
        # d a scalar times a character: X is a complex permutation and H is the whole group
        rng = np.random.default_rng(61)
        n = math.prod(spec)
        (perm,), (phases_u,), _ = random_conjugate_forms(spec, [rng])
        form_u = DpwForm(spec, perm, phases_u)
        character = np.sqrt(n) * fourier_tensor(spec)[1 + int(rng.integers(n - 1))]
        d = np.exp(2j * np.pi * rng.random()) * character
        u = form_u.realize()
        v = np.diag(d[list(form_u.perm)]) @ u
        _assert_fourier_route_matches(u, v, spec)
        rep = pair_report(u, v, spec)
        assert not rep.distinct and rep.conjugate
        assert rep.dim_a == n and rep.subgroup.size == n

    def test_conjugate_pairs_take_no_dense_extraction(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hadinv.invariants, "extract_subgroup", lambda *a: calls.append(a))
        rng = np.random.default_rng(62)
        for spec in [(4,), (2, 3), (8, 8), (2,) * 6]:
            pair_report(*random_conjugate_pair(spec, rng), spec)
            for mvec in [(1,) * len(spec), spec]:
                pair_report(*realize_subgroup(spec, mvec), spec)
        assert calls == []

    def test_other_pairs_take_the_dense_extraction(self, monkeypatch):
        calls = []
        real = hadinv.invariants.extract_subgroup
        monkeypatch.setattr(hadinv.invariants, "extract_subgroup", lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(63)
        u = random_dpw((2, 4), rng)
        pair_report(u, u @ perm_matrix(rng.permutation(8)), (2, 4))  # V = U P
        pair_report(fourier(4), np.eye(4)[[0, 1, 3, 2]] @ fourier(4), (4,))  # different permutations
        pair_report(fourier(4), np.diag([1, 1j, 1, 1j]) @ fourier(4), (2, 2))  # not normal forms
        assert len(calls) == 3

    def test_decision_on_the_threshold_takes_no_extraction(self, monkeypatch):
        # eps_entry set to one of the pair's own decision values: the route
        # thresholds |f(g)| instead, as the support graph does, and agrees with it
        calls = []
        monkeypatch.setattr(hadinv.invariants, "extract_subgroup", lambda *a: calls.append(a))
        f8 = fourier(8)
        d = 1j ** (np.arange(8) // 2) * np.exp(1e-4j * (np.arange(8) % 3))
        values = fourier_decisions(d, (8,))
        eps = float(values[values > 1e-12].min())
        rep = pair_report(f8, np.diag(d) @ f8, (8,), ToleranceConfig(eps_entry=eps))
        assert calls == []
        assert rep.certified and rep.subgroup.size == rep.dim_a


def _noisy(m, kind, scale, rng):
    """``m`` with phase noise of size ``scale`` in steps of -1, 0 or 1 on each row, column or entry."""
    shape = {"row": (m.shape[0], 1), "column": (1, m.shape[1]), "entry": m.shape}[kind]
    return m * np.exp(1j * scale * rng.integers(-1, 2, size=shape))


class TestThresholdNoise:
    """Noise below, near and above eps_entry on conjugate pairs with non-trivial H.

    Row phases keep V a normal form of the same permutation; column phases
    keep the pair Hadamard, change no decision value and, above eps_entry,
    move V off its normal form.  Both leave every |X_ij| a value of |f|,
    so the support graph and the support of f threshold the same values
    and |H| = dimA at every level.  Independent entry phases break
    unitarity at their own scale, so only the scale below eps_entry gives
    a Hadamard pair for sure; near it, X and f differ by the noise, and
    an input whose two supports part at the threshold may raise
    ``OracleMismatch``.  Away from the threshold, and on pairs that are
    not conjugate, H equals the dense extraction.
    """

    @staticmethod
    def _check(spec, mvec, kind, level, seed):
        rng = np.random.default_rng(seed)
        n = math.prod(spec)
        u, v = realize_subgroup(spec, mvec)
        left = np.diag(np.exp(2j * np.pi * rng.random(n))) @ perm_matrix(rng.permutation(n))
        scale = {"below": 1e-12, "near": 1e-9 * rng.uniform(0.3, 3.0), "above": 1e-6}[level]
        u, v = left @ u, _noisy(left @ v, kind, scale, rng)
        if kind == "entry" and level != "below":
            try:
                rep = pair_report(u, v, spec)
            except (NotHadamard, OracleMismatch):
                return
        else:
            rep = pair_report(u, v, spec)
        if level == "near" and (kind != "entry" or rep.conjugate):
            assert rep.subgroup is not None and rep.subgroup.size == rep.dim_a
            return
        try:
            expected = extract_subgroup(u, v, spec)
        except NotClosed:
            expected = None
        assert rep.subgroup == expected

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["row", "column", "entry"]),
        level=st.sampled_from(["below", "near", "above"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_subgroup_equals_extraction_or_mismatch(self, data, kind, level, seed):
        spec = data.draw(st.sampled_from(SPECS_UP_TO_16), label="spec")
        mvec = tuple(data.draw(st.sampled_from(divisors(order)), label="m") for order in spec)
        self._check(spec, mvec, kind, level, seed)

    @pytest.mark.parametrize(
        "spec,mvec,seed",
        [((3, 5), (1, 5), 680), ((3, 4), (1, 4), 779), ((7, 2), (7, 1), 1004), ((14,), (14,), 1499)],
    )
    def test_entry_noise_on_the_threshold(self, spec, mvec, seed):
        # here the dense decision values of the noisy matrices give a set
        # that is not closed; the support of f gives H with |H| = dimA
        self._check(spec, mvec, "entry", "near", seed)

    def test_entry_noise_above_the_threshold_is_not_hadamard(self):
        rng = np.random.default_rng(64)
        u, v = realize_subgroup((4, 4), (2, 4))
        with pytest.raises(NotHadamard):
            pair_report(u, _noisy(v, "entry", 1e-6, rng), (4, 4))


class TestMismatchEvidence:
    """An OracleMismatch on H names the route and the value it thresholds nearest eps_entry."""

    def test_fourier_route(self, monkeypatch):
        f4 = fourier(4)
        monkeypatch.setattr(hadinv.invariants, "_support_graph_invariants", _fixed_counts(1, 4))
        message = r"subgroup order 2 .*fourier route.*nearest eps_entry 1e-09"
        with pytest.raises(OracleMismatch, match=message):
            pair_report(f4, np.diag([1, 1, -1, -1]) @ f4, (4,))

    def test_extract_route(self, monkeypatch):
        rng = np.random.default_rng(65)
        u = random_dpw((2, 4), rng)
        monkeypatch.setattr(hadinv.invariants, "_support_graph_invariants", _fixed_counts(1, 8))
        with pytest.raises(OracleMismatch, match=r"subgroup order 8 .*extract route.*at r=\(\d,\d\)"):
            pair_report(u, u @ perm_matrix(rng.permutation(8)), (2, 4))

    def test_names_the_value_on_the_threshold(self, monkeypatch):
        # a phase of 1.2e-8 on d(0) lifts |f(g)| from 0 to 1.5e-9 on the six g
        # off the support {3, 7} of the staircase's f: the values nearest eps_entry 1e-9
        f8 = fourier(8)
        d = 1j ** (np.arange(8) // 2)
        d = d * np.exp(1j * 1.5e-9 * 8 * (np.arange(8) == 0))
        magnitudes = np.abs(np.fft.ifft(d))
        off_support = {int(g) for g in np.flatnonzero(magnitudes < 1e-8)}
        assert len(off_support) == 6
        monkeypatch.setattr(hadinv.invariants, "_support_graph_invariants", _fixed_counts(3, 1))
        with pytest.raises(OracleMismatch) as info:
            pair_report(f8, np.diag(d) @ f8, (8,))
        nearest = magnitudes[sorted(off_support)[0]]
        assert f"{nearest:.3e}" == "1.500e-09"
        pattern = rf"fourier route; \|f\(g\)\| nearest eps_entry 1e-09: {nearest:.3e} at g=\((\d)\)"
        found = re.search(pattern, str(info.value))
        assert found and int(found.group(1)) in off_support


def _per_pair(u, v, spec):
    try:
        return pair_report(u, v, spec)
    except HadinvError as exc:
        return exc


class TestStackedReports:
    """pair_reports on one mixed stack against pair_report on each pair."""

    SPEC = (8,)

    def _mixed_stack(self):
        rng = np.random.default_rng(66)
        f8 = fourier(8)
        u = random_dpw(self.SPEC, rng)
        w = fourier_tensor((2, 4))
        # decision values of 1e-9 and |f(g)| of 5e-10 off the support: the Fourier route decides
        d = 1j ** (np.arange(8) // 2) * np.exp(4e-9j * (np.arange(8) == 0))
        pairs = [
            (np.eye(8), f8),  # not Hadamard; first, so that a mix-up of U across pairs shows
            (w, np.diag([1, 1j, 1, 1j, 1, 1, 1, 1]) @ w),  # not normal forms over (8,)
            random_conjugate_pair(self.SPEC, rng),
            realize_subgroup(self.SPEC, (4,)),
            (f8, perm_matrix([0, 1, 3, 2, 4, 5, 6, 7]) @ f8),  # different permutations
            (u, u @ perm_matrix(rng.permutation(8)) @ np.diag(np.exp(2j * np.pi * rng.random(8)))),
            (u, u),
            (f8, np.diag(d) @ f8),
            random_conjugate_pair(self.SPEC, rng),
        ]
        return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])

    def _assert_stack_matches_pairs(self, us, vs):
        stacked = pair_reports(us, vs, self.SPEC)
        assert len(stacked) == len(us)
        for k, got in enumerate(stacked):
            want = _per_pair(us[k], vs[k], self.SPEC)
            assert type(got) is type(want), k
            if isinstance(want, HadinvError):
                assert str(got) == str(want), k
                continue
            for field in dataclasses.fields(want):
                assert getattr(got, field.name) == getattr(want, field.name), (k, field.name)
        return stacked

    def test_mixed_stack(self, monkeypatch):
        calls = []
        real = hadinv.invariants.extract_subgroup
        monkeypatch.setattr(hadinv.invariants, "extract_subgroup", lambda *a: calls.append(a) or real(*a))
        us, vs = self._mixed_stack()
        stacked = self._assert_stack_matches_pairs(us, vs)
        # the stack and the per-pair calls take the same routes: three pairs extract each time
        assert len(calls) == 6
        kinds = [type(r).__name__ for r in stacked]
        assert kinds == ["NotHadamard"] + ["InvariantReport"] * 8
        assert "not-dpw-form" in stacked[1].flags and "identical" in stacked[6].flags
        assert stacked[3].subgroup.size == 4 and not stacked[5].distinct
        # the pair near the threshold: H from the support of f, |H| = dimA = 4
        assert stacked[7].subgroup.size == stacked[7].dim_a == 4 and stacked[7].certified

    def test_oracle_mismatch_stays_with_its_pair(self, monkeypatch):
        us, vs = self._mixed_stack()
        marker = us[2]
        real = hadinv.invariants._support_graph_invariants

        def skewed(u, x, eps):
            dims, relcomms = real(u, x, eps)
            marked = np.array([np.array_equal(m, marker) for m in u])
            return dims + marked, relcomms

        monkeypatch.setattr(hadinv.invariants, "_support_graph_invariants", skewed)
        stacked = self._assert_stack_matches_pairs(us, vs)
        assert isinstance(stacked[2], OracleMismatch) and "subgroup order 1" in str(stacked[2])
        assert isinstance(stacked[-1], InvariantReport)

    def test_entropy_stacks_match_pairs(self):
        us, vs = self._mixed_stack()
        keep = [1, 2, 3, 4, 5, 6, 8]
        got = modified_entropy(us[keep], vs[keep])
        assert got.shape == (len(keep),)
        assert [float(h) for h in got] == [modified_entropy(us[k], vs[k]) for k in keep]

    def _shared_mask_stack(self):
        """Pairs over (8,) whose H is trivial, of order 2 or of order 4, each H carried by two or more pairs."""
        rng = np.random.default_rng(67)
        pairs = [random_conjugate_pair(self.SPEC, rng) for _ in range(3)]
        for mvec in [(2,), (4,), (2,), (4,), (2,)]:
            # a shared left diagonal keeps the pair conjugate and its subgroup, and makes each pair new
            d = np.exp(2j * np.pi * rng.random(8))[:, None]
            u, v = realize_subgroup(self.SPEC, mvec)
            pairs.insert(int(rng.integers(len(pairs) + 1)), (d * u, d * v))
        return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])

    def test_pairs_that_share_a_mask_share_one_check(self, monkeypatch):
        us, vs = self._shared_mask_stack()
        masks = []
        real = hadinv.invariants.subgroup_from_mask
        monkeypatch.setattr(hadinv.invariants, "subgroup_from_mask", lambda m, g: masks.append(m) or real(m, g))
        stacked = pair_reports(us, vs, self.SPEC)
        # three distinct masks, one subgroup_from_mask call each
        assert sorted(int(m.sum()) for m in masks) == [1, 2, 4]
        by_size: dict = {}
        for report in stacked:
            assert report.certified
            by_size.setdefault(report.subgroup.size, []).append(report.subgroup)
        assert sorted(map(len, by_size.values())) == [2, 3, 3]
        for found in by_size.values():
            assert all(h is found[0] for h in found)
        self._assert_stack_matches_pairs(us, vs)

    def test_a_mask_that_is_not_closed_flags_every_pair_that_carries_it(self, monkeypatch):
        us, vs = self._shared_mask_stack()
        masks = []
        real = hadinv.invariants.subgroup_from_mask
        monkeypatch.setattr(hadinv.invariants, "subgroup_from_mask", lambda m, g: masks.append(m) or real(m, g))
        # {0, 1} is not closed in Z_8
        not_closed = np.zeros(8, dtype=bool)
        not_closed[:2] = True
        monkeypatch.setattr(hadinv.invariants, "annihilator_mask", lambda s, g: np.broadcast_to(not_closed, s.shape))
        stacked = pair_reports(us, vs, self.SPEC)
        assert len(masks) == 1
        for report in stacked:
            assert report.subgroup is None and not report.certified
            assert "subgroup-not-closed" in report.flags
        self._assert_stack_matches_pairs(us, vs)

    def test_rejects_mismatched_stacks(self):
        us, vs = self._mixed_stack()
        with pytest.raises(DimMismatch):
            pair_reports(us, vs[:-1], self.SPEC)
        with pytest.raises(DimMismatch):
            pair_reports(us, vs, (4,))
        with pytest.raises(ValueError):
            pair_reports(us[0], vs[0], self.SPEC)


class TestRealizationSweep:
    def test_cyclic_four(self):
        rows = realization_sweep((4,))
        assert [dv for dv, _ in rows] == [(1,), (2,), (4,)]
        assert {rep.index for _, rep in rows} == {Fraction(16), Fraction(8), Fraction(4)}

    def test_klein(self):
        rows = realization_sweep((2, 2))
        indices = [rep.index for _, rep in rows]
        assert sorted(indices) == [Fraction(4), Fraction(8), Fraction(8), Fraction(16)]

    def test_order_two(self):
        rows = realization_sweep((2,))
        assert {rep.index for _, rep in rows} == {Fraction(4), Fraction(2)}

    def test_order_cap(self):
        # the one cap is FourierSpec's DIM_CAP = 64
        with pytest.raises(OrderTooLarge, match="exceeds cap 64"):
            realization_sweep((2, 33))

    @pytest.mark.parametrize("spec", [(64,), (8, 8), (4, 4, 4), (2,) * 6], ids=lambda s: ",".join(map(str, s)))
    def test_whole_domain_at_n64(self, spec):
        rows = realization_sweep(spec)
        assert [mvec for mvec, _ in rows] == list(itertools.product(*[divisors(order) for order in spec]))
        for mvec, report in rows:
            # the full vector gives V = D_1 W, a column permutation of U: conjugate but not distinct
            assert report.conjugate and report.certified == (math.prod(mvec) < 64), mvec
            assert report.dim_a == report.subgroup.size == math.prod(mvec), mvec
            assert report.relcomm_dims == 64 // report.dim_a, mvec
            assert report.index == Fraction(64 * 64, report.dim_a), mvec

    @pytest.mark.parametrize("spec", SPECS_UP_TO_64, ids=lambda s: ",".join(map(str, s)))
    def test_the_paper_holds_on_the_whole_domain(self, spec):
        n = math.prod(spec)
        for mvec, report in realization_sweep(spec):
            m = math.prod(mvec)
            assert (report.dim_a, report.index, report.relcomm_dims) == (m, Fraction(n * n, m), n // m), mvec
            assert report.vertex == (m == 1), mvec
            assert report.entropy_h <= math.log(n / m) + ENTROPY_BOUND_TOL, mvec
            # m = N realizes diag(chi) W = W S, a pair equivalent to its first matrix
            assert report.distinct == report.certified == (m < n), mvec

    def test_dense_oracle_on_every_n64_pair(self):
        for mvec, report in realization_sweep((8, 8)):
            assert extract_subgroup(*realize_subgroup((8, 8), mvec), (8, 8)) == report.subgroup, mvec

    # (2,)^6 has 64 pairs in four chunks of STACK_ENTRIES // 64^2 = 16
    @pytest.mark.parametrize("spec", SPECS_UP_TO_16 + [(2,) * 6], ids=lambda s: ",".join(map(str, s)))
    def test_rows_equal_single_pair_reports(self, spec):
        for mvec, report in realization_sweep(spec):
            single = pair_report(*realize_subgroup(spec, mvec), spec)
            for field in dataclasses.fields(InvariantReport):
                assert getattr(report, field.name) == getattr(single, field.name), (mvec, field.name)

    def test_one_pair_reports_call(self, monkeypatch):
        batches, alone = [], []
        real_batch, real_pair = hadinv.invariants.pair_reports, hadinv.invariants.pair_report
        monkeypatch.setattr(hadinv.invariants, "pair_reports", lambda *a: batches.append(a) or real_batch(*a))

        def counting_pair(*a, **k):
            if k.get("stage") is None:  # a call made outside pair_reports
                alone.append(a)
            return real_pair(*a, **k)

        monkeypatch.setattr(hadinv.invariants, "pair_report", counting_pair)
        rows = realization_sweep((2, 2, 2, 2))
        assert len(rows) == 16 and len(batches) == 1 and len(batches[0][0]) == 16
        assert alone == []

    def test_chunks_of_stack_entries(self, monkeypatch):
        batches = []
        real = hadinv.invariants.pair_reports
        monkeypatch.setattr(hadinv.invariants, "pair_reports", lambda *a: batches.append(len(a[0])) or real(*a))
        assert len(realization_sweep((2,) * 6)) == 64
        assert batches == [STACK_ENTRIES // 64**2] * 4

    def test_raises_a_pairs_error(self, monkeypatch):
        real = hadinv.invariants._support_graph_invariants

        def skewed(u, x, eps):
            # one more dimension on every pair: pair_reports returns an OracleMismatch for each
            dims, relcomms = real(u, x, eps)
            return dims + 1, relcomms

        monkeypatch.setattr(hadinv.invariants, "_support_graph_invariants", skewed)
        with pytest.raises(OracleMismatch, match="subgroup order 1 disagrees"):
            realization_sweep((4,))


class TestRandomConjugatePair:
    @staticmethod
    def _drawn_alone(n, rng):
        """One generator's draw in the sampler's order: the permutation, then the angles of U, then of V."""
        perm = rng.permutation(n)
        phases_u = np.exp(2j * np.pi * rng.random(n))
        phases_v = np.exp(2j * np.pi * rng.random(n))
        return perm, phases_u, phases_v

    @pytest.mark.parametrize("spec", [(2, 3), (3, 3), (64,)], ids=lambda s: ",".join(map(str, s)))
    def test_a_stack_draws_what_each_generator_draws_alone(self, spec):
        n = math.prod(spec)
        rngs = [np.random.default_rng([4, k]) for k in range(12)]
        stacks = random_conjugate_forms(spec, rngs)
        assert [a.shape for a in stacks] == [(12, n)] * 3
        for k, rng in enumerate(rngs):
            alone = np.random.default_rng([4, k])
            for got, want in zip(stacks, self._drawn_alone(n, alone)):
                assert got[k].dtype == want.dtype and got[k].tobytes() == want.tobytes(), k
            # each generator is left where its own draw ends
            assert rng.random() == alone.random()

    def test_a_pair_is_a_stack_of_one(self):
        spec = FourierSpec((2, 4))
        (perm,), (phases_u,), (phases_v,) = random_conjugate_forms(spec, [np.random.default_rng(57)])
        u, v = random_conjugate_pair(spec, np.random.default_rng(57))
        assert same_bits(u, DpwForm(spec, perm, phases_u).realize())
        assert same_bits(v, DpwForm(spec, perm, phases_v).realize())

    def test_pair_is_conjugate_hadamard(self):
        from hadinv import are_conjugate, is_hadamard

        rng = np.random.default_rng(55)
        u, v = random_conjugate_pair((2, 3), rng)
        assert is_hadamard(u) and is_hadamard(v)
        assert are_conjugate(u, v, (2, 3))

    def test_distinct_draws(self):
        rng = np.random.default_rng(56)
        u, v = random_conjugate_pair((4,), rng)
        assert maxabs(u - v) > 1e-6
