"""Tests for expectations, commutants, intersections, and commuting squares."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadinv.algebra as algebra
from conftest import SPECS_UP_TO_16, SPECS_UP_TO_36, haar_unitary, maxabs, random_dpw
from oracles import (
    conditional_expectation,
    kept_translations,
    product_rank_nondegenerate,
    spin_square_unitaries,
    tower_rank_nondegenerate,
    tower_relcomm_dim,
)
from hadinv import (
    AlgebraBasis,
    InclusionViolation,
    NonUnitary,
    OrderTooLarge,
    DimMismatch,
    ToleranceConfig,
    block_unitary,
    commutant,
    commuting_squares,
    diag_conj_algebra,
    diagonal_algebra,
    fourier,
    fourier_tensor,
    full_matrix_algebra,
    intersect_algebras,
    is_biunitary,
    is_commuting_square,
    is_hadamard,
    is_unitary,
    random_conjugate_pair,
    scalar_algebra,
    shift_vec,
    span_algebra,
    tensor_algebra,
    vertex_model_square,
    vertex_square,
)


class TestConditionalExpectation:
    def test_onto_ambient_is_identity(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert maxabs(conditional_expectation(x, full_matrix_algebra(3)) - x) < 1e-10

    def test_offdiagonal_dies_on_diagonal(self):
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1
        assert maxabs(conditional_expectation(e12, diagonal_algebra(2))) < 1e-12

    def test_onto_scalars(self):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        got = conditional_expectation(e11, scalar_algebra(2))
        assert maxabs(got - np.eye(2) / 2) < 1e-12

    def test_projection_properties(self):
        rng = np.random.default_rng(41)
        alg = diag_conj_algebra(fourier(3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ex = conditional_expectation(x, alg)
        assert maxabs(conditional_expectation(ex, alg) - ex) < 1e-10
        assert abs(np.trace(ex) - np.trace(x)) < 1e-10
        xh = x + x.conj().T
        exh = conditional_expectation(xh, alg)
        assert maxabs(exh - exh.conj().T) < 1e-10

    def test_bimodule_identity(self):
        rng = np.random.default_rng(42)
        alg = diag_conj_algebra(fourier(3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = np.tensordot(rng.normal(size=3) + 1j * rng.normal(size=3), alg.basis, axes=1)
        b = np.tensordot(rng.normal(size=3) + 1j * rng.normal(size=3), alg.basis, axes=1)
        lhs = conditional_expectation(a @ x @ b, alg)
        rhs = a @ conditional_expectation(x, alg) @ b
        assert maxabs(lhs - rhs) < 1e-10


class TestCommutant:
    def test_diagonal_is_maximal_abelian(self):
        got = commutant(diagonal_algebra(3), full_matrix_algebra(3))
        assert got.dim == 3

    def test_full_algebra_has_scalar_commutant(self):
        assert commutant(full_matrix_algebra(3), full_matrix_algebra(3)).dim == 1

    def test_half_shift_inside_diagonals(self):
        alg = span_algebra([np.eye(4), shift_vec((4,), (2,))], 4)
        got = commutant(alg, diagonal_algebra(4))
        # oracle: a diagonal d commutes with the two-step shift iff d_j = d_{j+2}
        s = shift_vec((4,), (2,))
        count = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            d = np.diag(rng.normal(size=4))
            if maxabs(d @ s - s @ d) < 1e-12:
                count += 1
        assert count == 0  # generic diagonals do not commute: constraint is real
        assert got.dim == 2

    def test_double_commutant_contains_original(self):
        alg = diag_conj_algebra(fourier(4))
        ambient = full_matrix_algebra(4)
        double = commutant(commutant(alg, ambient), ambient)
        for b in alg.basis:
            assert double.contains(b)
        assert double.dim == alg.dim  # abelian maximal: equality here


class TestIntersectAlgebras:
    def test_idempotent(self):
        alg = diagonal_algebra(3)
        assert intersect_algebras(alg, alg).dim == 3

    def test_twisted_pair_gives_scalars(self):
        f2 = fourier(2)
        got = intersect_algebras(
            diag_conj_algebra(f2), diag_conj_algebra(np.diag([1, 1j]) @ f2)
        )
        assert got.dim == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonals_meet_circulants_in_scalars(self, n):
        # a circulant sum(c_r shift_r) is diagonal only when every c_r (r != 0)
        # vanishes: the shifts have disjoint supports off the diagonal
        got = intersect_algebras(diagonal_algebra(n), diag_conj_algebra(fourier(n)))
        assert got.dim == 1

    def test_contained_in_both(self):
        f4 = fourier(4)
        a = diag_conj_algebra(f4)
        b = diag_conj_algebra(np.diag([1, 1, -1, -1]) @ f4)
        inter = intersect_algebras(a, b)
        assert inter.dim == 2
        for m in inter.basis:
            assert a.contains(m) and b.contains(m)

    def test_dimension_order_independent(self):
        f4 = fourier(4)
        a = diag_conj_algebra(f4)
        b = diag_conj_algebra(np.diag([1, 1j, 1, -1j]) @ f4)
        assert intersect_algebras(a, b).dim == intersect_algebras(b, a).dim


class TestDiagConjAlgebra:
    def test_identity_gives_diagonals(self):
        got = diag_conj_algebra(np.eye(3))
        for b in got.basis:
            assert maxabs(b - np.diag(np.diag(b))) < 1e-12

    def test_fourier_gives_circulants(self):
        got = diag_conj_algebra(fourier(4))
        for r in range(4):
            assert got.contains(shift_vec((4,), (r,)))

    def test_dimension_always_n(self):
        rng = np.random.default_rng(43)
        assert diag_conj_algebra(haar_unitary(5, rng)).dim == 5

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitary):
            diag_conj_algebra(np.ones((2, 2)))


class TestCommutingSquare:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_spin_square(self, n):
        result = is_commuting_square(
            scalar_algebra(n),
            diag_conj_algebra(fourier(n)),
            diagonal_algebra(n),
            full_matrix_algebra(n),
        )
        assert result.commuting and result.nondegenerate

    def test_degenerate_counterexample(self):
        result = is_commuting_square(
            scalar_algebra(3),
            diagonal_algebra(3),
            diagonal_algebra(3),
            full_matrix_algebra(3),
        )
        assert not result.commuting
        assert not result.nondegenerate

    def test_rejects_bad_nesting(self):
        with pytest.raises(InclusionViolation):
            is_commuting_square(
                diagonal_algebra(2),
                scalar_algebra(2),
                diagonal_algebra(2),
                full_matrix_algebra(2),
            )


class TestCommutingSquaresBatch:
    def test_each_square_equals_its_batch_of_one(self):
        rng = np.random.default_rng(46)
        n = 4
        lefts = [diag_conj_algebra(u) for u in (fourier(n), random_dpw((n,), rng), haar_unitary(n, rng))]
        lefts.append(diagonal_algebra(n))  # degenerate: commutes with nothing off the scalars
        shared = (scalar_algebra(n), diagonal_algebra(n), full_matrix_algebra(n))
        batch = commuting_squares(shared[0], lefts, *shared[1:])
        singles = [is_commuting_square(shared[0], left, *shared[1:]) for left in lefts]
        assert batch == singles
        assert [s.commuting for s in batch] == [True, True, False, False]

    def test_one_unnested_left_fails_the_batch(self):
        with pytest.raises(InclusionViolation, match="corner in left"):
            commuting_squares(
                diagonal_algebra(2),
                [diagonal_algebra(2), diag_conj_algebra(fourier(2))],
                diagonal_algebra(2),
                full_matrix_algebra(2),
            )

    def test_lefts_of_different_dimensions_are_rejected(self):
        with pytest.raises(DimMismatch):
            commuting_squares(
                scalar_algebra(2),
                [diagonal_algebra(2), scalar_algebra(2)],
                diagonal_algebra(2),
                full_matrix_algebra(2),
            )


class TestNondegeneracyOracle:
    """The count of ``commuting_squares`` and ``vertex_model_square`` against the rank of the products by SVD."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_spin_squares(self, n):
        ((_, *unitaries),) = spin_square_unitaries([n])
        lefts = [diag_conj_algebra(u) for u in unitaries]
        shared = (diagonal_algebra(n), full_matrix_algebra(n))
        squares = commuting_squares(scalar_algebra(n), lefts, *shared)
        bound = algebra._count_bound(n * n, n, n * n)
        for left, square in zip(lefts, squares):
            assert square.commuting and square.max_commuting_err <= bound  # the count decides
            assert square.nondegenerate is True
            assert product_rank_nondegenerate(left, *shared) is True

    def test_spin_square_noise_across_the_bound(self):
        # near-Hadamard unitaries: the commuting error grows with the noise, past the count's bound
        rng = np.random.default_rng(47)
        n = 6
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        errs = []
        for noise in (1e-7, 1e-5, 1e-4, 1e-3, 1e-1):
            u, _ = np.linalg.qr(fourier(n) + noise * z)
            left, right, ambient = diag_conj_algebra(u), diagonal_algebra(n), full_matrix_algebra(n)
            square = is_commuting_square(scalar_algebra(n), left, right, ambient)
            assert square.nondegenerate == product_rank_nondegenerate(left, right, ambient)
            errs.append(square.max_commuting_err)
        assert errs[0] <= algebra._count_bound(n * n, n, n * n) < errs[-1]

    @staticmethod
    def _tower_cases():
        rng = np.random.default_rng(48)
        for spec in [spec for spec in SPECS_UP_TO_16 if math.prod(spec) <= 5]:
            yield fourier_tensor(spec), spec
            for _ in range(3):
                for u in random_conjugate_pair(spec, rng):
                    yield u, spec
        for a in (0.3, 1.1, np.pi / 2):
            for spec in ((4,), (2, 2)):
                yield _affine_f4(a), spec

    def test_tower_squares(self):
        for u, spec in self._tower_cases():
            n = math.prod(spec)
            got = vertex_model_square(u, spec)
            assert got.commuting and got.max_commuting_err <= algebra._count_bound(n**3, n * n, n)
            assert got.nondegenerate is True
            assert tower_rank_nondegenerate(got.blocks) is True

    @pytest.mark.parametrize("noise,counted", [(1e-6, True), (3e-6, True), (1e-5, False)])
    def test_tower_noise_across_the_bound(self, noise, counted):
        # at N = 5 the bound 1 / (2 * 5^6.5) is about 1.4e-5; a coarse tolerance admits the noisy input
        rng = np.random.default_rng(5)
        u = fourier(5) + noise * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        got = vertex_model_square(u, (5,), ToleranceConfig(eps_entry=1e-3))
        assert (got.max_commuting_err <= algebra._count_bound(125, 25, 5)) == counted
        assert got.nondegenerate == tower_rank_nondegenerate(got.blocks)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_commuting_but_degenerate(self, n):
        # (C, C, Delta_n, M_n): E_L = E_C, so the square commutes, but dim L * dim R = n < n^2
        corner, right, ambient = scalar_algebra(n), diagonal_algebra(n), full_matrix_algebra(n)
        square = is_commuting_square(corner, corner, right, ambient)
        assert square.commuting
        assert square.nondegenerate is False
        assert product_rank_nondegenerate(corner, right, ambient) is False

    def test_non_scalar_corner_takes_the_rank(self):
        # (Delta, Delta, Delta, M_n) commutes; the count does not apply and the rank says degenerate
        n = 3
        diag = diagonal_algebra(n)
        square = is_commuting_square(diag, diag, diag, full_matrix_algebra(n))
        assert square.commuting
        assert square.nondegenerate is product_rank_nondegenerate(diag, diag, full_matrix_algebra(n)) is False


class TestVertexSquare:
    @pytest.mark.parametrize("nk", [(2, 2), (2, 3)])
    def test_matches_biunitarity_on_randoms(self, nk):
        n, k = nk
        rng = np.random.default_rng(44)
        for _ in range(8):
            z = haar_unitary(n * k, rng)
            assert vertex_square(z, n, k).commuting == is_biunitary(z, n, k)

    def test_tensor_positive(self):
        rng = np.random.default_rng(45)
        z = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
        assert is_biunitary(z, 2, 3)
        result = vertex_square(z, 2, 3)
        assert result.commuting and result.nondegenerate

    def test_order_38_rejected_before_allocating(self):
        # nk = 38 > TOWER_DIM_CAP; M_38 would hold 38^4 entries
        z = np.ones((38, 38), dtype=complex)
        tracemalloc.start()
        try:
            with pytest.raises(OrderTooLarge):
                vertex_square(z, 2, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 38 * 38 * 16


class TestVertexModelSquare:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_base_square_for_fourier(self, n):
        result = vertex_model_square(fourier(n), (n,))
        assert result.commuting
        assert result.nondegenerate
        assert result.relcomm_dim == n

    def test_invariant_under_normal_form_twist(self):
        rng = np.random.default_rng(46)
        u = random_dpw((2, 2), rng)
        base = vertex_model_square(fourier(2), (2,))
        twisted = vertex_model_square(u, (2, 2))
        assert twisted.commuting == base.commuting
        assert bool(twisted.nondegenerate) == bool(base.nondegenerate)
        assert twisted.relcomm_dim == 4

    def test_multi_factor_spec(self):
        result = vertex_model_square(fourier_tensor((2, 2)), (2, 2))
        assert result.commuting and result.nondegenerate and result.relcomm_dim == 4


def _dense_tower_square(u, spec):
    """The tower base square built densely in M_{N^2}: (commuting, nondegenerate, relcomm_dim).

    Right algebra ``Ad_{U1}(I x W Delta W*)`` from the full ``block_unitary``,
    left ``I x M_N``, ambient ``Delta_N x M_N``; the generic commuting-square
    test on the N^3 ambient basis, the rank of the dense products up to
    N = 5 (None beyond, as the library reports) and the stacked-commutator
    commutant.
    """
    n = math.prod(spec)
    w = fourier_tensor(spec)
    u1 = block_unitary(u)
    diag = diagonal_algebra(n)
    right_stack = np.stack(
        [u1 @ np.kron(np.eye(n), w @ d @ w.conj().T) @ u1.conj().T for d in diag.basis]
    )
    right = AlgebraBasis(ambient_dim=n * n, basis=right_stack)
    left = tensor_algebra(scalar_algebra(n), full_matrix_algebra(n))
    ambient = tensor_algebra(diag, full_matrix_algebra(n))
    square = is_commuting_square(scalar_algebra(n * n), left, right, ambient)
    nondegenerate = product_rank_nondegenerate(left, right, ambient) if n <= 5 else None
    return square.commuting, nondegenerate, commutant(right, left).dim


def _affine_f4(a):
    """The one-parameter affine family F4(a); a = 0 gives F4."""
    e = np.exp(1j * a)
    return np.array([[1, 1, 1, 1], [1, 1j * e, -1, -1j * e], [1, -1, 1, -1], [1, -1j * e, -1, 1j * e]]) / 2


def _affine_f6(a, b):
    """The two-parameter affine family F6(a, b): odd rows of F6 phased by (0, a, b, 0, a, b)."""
    phases = np.zeros((6, 6))
    phases[1::2] = [0, a, b, 0, a, b]
    return fourier(6) * np.exp(1j * phases)


SMALL_SPECS = [spec for spec in SPECS_UP_TO_16 if math.prod(spec) <= 6]

OFF_CLASS = (
    [("F2xF2 under 4", fourier_tensor((2, 2)), (4,)), ("F4 under 2,2", fourier(4), (2, 2))]
    + [(f"F4({a:.2f}) under {s}", _affine_f4(a), s) for a in (0.3, 1.1, np.pi / 2) for s in ((4,), (2, 2))]
    + [
        (f"F6({a},{b}) under {s}", _affine_f6(a, b), s)
        for a, b in ((0.0, 0.0), (0.4, 1.3))
        for s in ((6,), (2, 3), (3, 2))
    ]
)


class TestTowerDenseOracle:
    """The block route of ``vertex_model_square`` against the dense M_{N^2} square."""

    @staticmethod
    def _assert_routes_agree(u, spec):
        got = vertex_model_square(u, spec)
        commuting, nondegenerate, relcomm = _dense_tower_square(u, spec)
        assert got.commuting == commuting
        assert got.nondegenerate == nondegenerate
        assert got.relcomm_dim == relcomm
        # blocks[i] is the i-th diagonal block of block_unitary(u) (I x W)
        n = math.prod(spec)
        dense = (block_unitary(u) @ np.kron(np.eye(n), fourier_tensor(spec))).reshape(n, n, n, n)
        idx = np.arange(n)
        assert maxabs(got.blocks - dense[idx, :, idx, :]) < 1e-12
        return relcomm

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: ",".join(map(str, s)))
    def test_fourier_class(self, spec):
        rng = np.random.default_rng(math.prod(spec) * 10 + len(spec))
        cases = [fourier_tensor(spec)]
        for _ in range(3):
            cases.extend(random_conjugate_pair(spec, rng))
        for u in cases:
            assert self._assert_routes_agree(u, spec) == math.prod(spec)

    @pytest.mark.parametrize("case", OFF_CLASS, ids=lambda c: c[0])
    def test_off_class(self, case):
        _, u, spec = case
        assert is_hadamard(u)
        self._assert_routes_agree(u, spec)

    def test_off_class_cases_separate_the_routes(self):
        # relcomm values other than N, so a route that always answered N would fail
        dims = {vertex_model_square(u, spec).relcomm_dim for _, u, spec in OFF_CLASS}
        assert {1, 2, 3, 4, 6} <= dims


class TestTowerRelcommOracle:
    """The subgroup count of ``vertex_model_square`` against the null space of the linear system in d.

    The count also equals the number of translations whose phase ratios every row
    ``e_i = N u[0, :] conj(u[i, :])`` keeps constant, the definition of K.
    """

    @staticmethod
    def _assert_count_matches(u, spec):
        got = vertex_model_square(u, spec)
        assert got.relcomm_dim == tower_relcomm_dim(got.blocks)
        n = u.shape[0]
        assert got.relcomm_dim == kept_translations(n * u[0] * u[1:].conj(), spec).sum()
        return got

    @pytest.mark.parametrize("n", range(2, 37))
    def test_cyclic(self, n):
        u, _ = random_conjugate_pair((n,), np.random.default_rng(n))
        for candidate in (fourier(n), u):
            got = self._assert_count_matches(candidate, (n,))
            assert got.commuting and got.relcomm_dim == n

    @pytest.mark.parametrize(
        "spec", [spec for spec in SPECS_UP_TO_36 if len(spec) > 1], ids=lambda s: ",".join(map(str, s))
    )
    def test_multi_factor(self, spec):
        n = math.prod(spec)
        u, _ = random_conjugate_pair(spec, np.random.default_rng(n * 10 + len(spec)))
        for candidate in (fourier_tensor(spec), u):
            assert self._assert_count_matches(candidate, spec).relcomm_dim == n

    @pytest.mark.parametrize("case", OFF_CLASS, ids=lambda c: c[0])
    def test_off_class(self, case):
        _, u, spec = case
        self._assert_count_matches(u, spec)

    @pytest.mark.parametrize("n", [4, 36])
    def test_an_entry_scaled_just_inside_the_tolerance_keeps_every_translation(self, n):
        # the entry's modulus moves by 0.9 eps_entry: u passes as Hadamard at the default tolerance,
        # and its rows e_i move by up to 0.9 sqrt(N) eps_entry at x = 0
        u = fourier(n)
        u[0, 0] *= 1 + 0.9e-9 * np.sqrt(n)
        assert vertex_model_square(u, (n,)).relcomm_dim == n

    @pytest.mark.parametrize("noise", [1e-6, 1e-5])
    def test_noise_within_the_tolerance_keeps_every_translation(self, noise):
        # the null space cut at EPS_RANK loses even the scalars here; the Fourier supports stay exact
        rng = np.random.default_rng(5)
        u = fourier(5) + noise * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        got = vertex_model_square(u, (5,), ToleranceConfig(eps_entry=1e-3))
        assert got.relcomm_dim == 5
        assert tower_relcomm_dim(got.blocks) == 0


class TestTowerFullDomain:
    def test_order_36(self):
        spec = (36,)
        u, _ = random_conjugate_pair(spec, np.random.default_rng(36))
        for candidate in (fourier(36), u):
            result = vertex_model_square(candidate, spec)
            assert result.commuting
            assert result.nondegenerate is None
            assert result.relcomm_dim == 36

    def test_order_37_rejected_before_allocating(self):
        # pass a non-Hadamard matrix: the cap must win before any check of u
        u = np.ones((37, 37), dtype=complex)
        tracemalloc.start()
        try:
            with pytest.raises(OrderTooLarge):
                vertex_model_square(u, (37,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 37 * 37 * 16


class TestContainmentAtTheGate:
    """Span containment is judged at the ``eps_entry`` that admitted the inputs, by one rule."""

    TOLERANCES = [1e-9, 1e-6, 1e-3, 9e-3]
    # every (n, k) with n, k >= 2 and nk <= 16
    VERTEX_SHAPES = [(n, k) for n in range(2, 9) for k in range(2, 9) if n * k <= 16]

    @staticmethod
    def _noisy(m, eps, rng, admitted):
        """``m`` plus complex Gaussian noise of scale eps, halved until ``admitted`` passes: noise up to the gate."""
        noise = eps * (rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape))
        while not admitted(m + noise):
            noise /= 2
        return m + noise

    @staticmethod
    def _extremal(n, eps):
        """``(1 + 0.999 eps J)^(1/2) F_n``, J all ones: admitted as unitary with every entry of ``u u* - 1`` near eps."""
        w, v = np.linalg.eigh(np.eye(n) + 0.999 * eps * np.ones((n, n)))
        return (v * np.sqrt(w)) @ v.conj().T @ fourier(n)

    @settings(max_examples=80, deadline=None)
    @given(eps=st.sampled_from(TOLERANCES), n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_spin_and_tower_squares_the_hadamard_gate_admits(self, eps, n, seed):
        tol = ToleranceConfig(eps_entry=eps)
        u = self._noisy(fourier(n), eps, np.random.default_rng(seed), lambda m: is_hadamard(m, tol))
        corner, right, ambient = scalar_algebra(n), diagonal_algebra(n), full_matrix_algebra(n)
        commuting_squares(corner, [diag_conj_algebra(u, tol)], right, ambient, tol)
        vertex_model_square(u, (n,), tol)

    @settings(max_examples=60, deadline=None)
    @given(eps=st.sampled_from(TOLERANCES), shape=st.sampled_from(VERTEX_SHAPES), seed=st.integers(0, 2**32 - 1))
    def test_vertex_squares_the_unitary_gate_admits(self, eps, shape, seed):
        n, k = shape
        tol = ToleranceConfig(eps_entry=eps)
        rng = np.random.default_rng(seed)
        z = self._noisy(haar_unitary(n * k, rng), eps, rng, lambda m: is_unitary(m, tol))
        vertex_square(z, n, k, tol)

    def test_noisy_f5_at_a_loose_tolerance(self):
        # F5 plus 1e-4 Gaussian noise passes as Hadamard at eps_entry = 1e-3; a fixed 1e-4 containment
        # threshold called its tower square an inclusion violation
        tol = ToleranceConfig(eps_entry=1e-3)
        rng = np.random.default_rng(5)
        u = fourier(5) + 1e-4 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert is_hadamard(u, tol)
        got = vertex_model_square(u, (5,), tol)
        assert got.commuting and got.relcomm_dim == 5

    @pytest.mark.parametrize("eps", [1e-6, 1e-3, 9e-3])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_the_bound_is_reached_and_kept(self, n, eps):
        # the unit's residual in u Delta u*, I - sum_i |c_i|^2 c_i c_i* over the columns c_i, comes
        # within 1% of sqrt(n) eps (2 + n eps) on this input and stays below it
        tol = ToleranceConfig(eps_entry=eps)
        u = self._extremal(n, eps)
        assert is_unitary(u, tol)
        res = np.eye(n) - (u * (np.abs(u) ** 2).sum(axis=0)) @ u.conj().T
        ratio = np.sqrt((np.abs(res) ** 2).sum() / n) / (np.sqrt(n) * eps * (2 + n * eps))
        assert 0.99 < ratio < 1
        left = diag_conj_algebra(u, tol)
        commuting_squares(scalar_algebra(n), [left], diagonal_algebra(n), full_matrix_algebra(n), tol)

    @pytest.mark.parametrize("eps", [1e-9, 9e-3])
    def test_unnested_quadruples_raise_at_every_tolerance(self, eps):
        tol = ToleranceConfig(eps_entry=eps)
        with pytest.raises(InclusionViolation):
            is_commuting_square(
                diagonal_algebra(2), scalar_algebra(2), diagonal_algebra(2), full_matrix_algebra(2), tol
            )
        with pytest.raises(InclusionViolation, match="corner in left"):
            commuting_squares(
                diagonal_algebra(2),
                [diagonal_algebra(2), diag_conj_algebra(fourier(2))],
                diagonal_algebra(2),
                full_matrix_algebra(2),
                tol,
            )


class TestSpanAlgebra:
    def test_detects_adjoint_closure_failure(self):
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1
        with pytest.raises(ValueError):
            span_algebra([np.eye(2), e12], 2)

    def test_detects_missing_identity(self):
        # span{E_11} is *-closed and closed under products, but not unital
        with pytest.raises(ValueError, match="identity"):
            span_algebra([np.diag([1.0, 0.0]).astype(complex)], 2)

    def test_detects_product_closure_failure(self):
        # span{I, diag(0,1,2)} is *-closed but the square diag(0,1,4) escapes it
        with pytest.raises(ValueError):
            span_algebra([np.eye(3), np.diag([0.0, 1.0, 2.0]).astype(complex)], 3)

    def test_accepts_group_algebra(self):
        alg = span_algebra([shift_vec((4,), (k,)) for k in range(4)], 4)
        assert alg.dim == 4
