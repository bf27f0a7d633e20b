"""Tests for the dense matrix kernel."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, maxabs, perm_matrix
from oracles import trace_inner
from hadinv import (
    ToleranceConfig,
    classify,
    clock_vec,
    fourier,
    is_complex_permutation,
    is_unitary,
    orthonormal_basis,
    shift_vec,
    subspace_intersection,
    tensor,
)
from hadinv.linalg import EPS_RANK


def diag_units(n):
    return [np.diag(np.eye(n)[i]).astype(complex) for i in range(n)]


class TestTensor:
    def test_identity(self):
        assert maxabs(tensor(np.eye(2), np.eye(2)) - np.eye(4)) < 1e-15

    def test_diagonal(self):
        got = tensor(np.diag([1, -1]), np.eye(2))
        assert maxabs(got - np.diag([1, 1, -1, -1])) < 1e-15

    def test_fourier_corner_entry(self):
        got = tensor(fourier(2), fourier(2))
        assert abs(got[0, 0] - 0.5) < 1e-12

    def test_dim_multiplies(self):
        assert tensor(np.eye(3), np.eye(4)).shape == (12, 12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_kron_bit_for_bit(self, m, n, seed):
        # gen --kind diag --spec 2,3 --k 1,2 prints ten -0.0 entries, so signed zeros must match too
        rng = np.random.default_rng(seed)

        def with_signed_zeros(k):
            out = np.empty((k, k), dtype=complex)
            for part in ("real", "imag"):
                values = rng.normal(size=(k, k))
                hit = rng.random((k, k)) < 0.4
                values[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
                setattr(out, part, values)
            return out

        a, b = with_signed_zeros(m), with_signed_zeros(n)
        for x, y in ((a, b), (np.eye(m), b), (a, np.eye(n))):
            got, want = tensor(x, y), np.kron(x, y)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


    def test_stacks_pair_up_and_broadcast(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        b = rng.normal(size=(3, 3, 3)) - 0.0j
        got = tensor(a, b)
        assert got.shape == (3, 6, 6)
        for i in range(3):
            assert got[i].tobytes() == np.kron(a[i], b[i]).tobytes()
        assert tensor(a[0], b).tobytes() == np.stack([np.kron(a[0], y) for y in b]).tobytes()


class TestClassify:
    def test_shift_is_permutation(self):
        flags = classify(shift_vec((3,), (1,)))
        assert flags.permutation and flags.unitary and flags.complex_permutation
        assert not flags.diagonal

    def test_phase_permutation(self):
        flags = classify(np.diag([1, 1j]) @ shift_vec((2,), (1,)))
        assert flags.complex_permutation and not flags.permutation
        assert flags.unitary

    def test_fourier(self):
        flags = classify(fourier(2))
        assert flags.unitary
        assert not flags.diagonal and not flags.permutation

    def test_projection(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        flags = classify(p)
        assert flags.projection and flags.selfadjoint
        assert not flags.unitary

    def test_product_of_permutations_is_permutation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = perm_matrix(rng.permutation(6))
            q = perm_matrix(rng.permutation(6))
            assert classify(p @ q).permutation


class TestHugeFiniteEntries:
    """The kernels silence overflow only while they run, and each call restores the state it found."""

    def test_nested_kernels_restore_the_callers_state(self):
        huge = np.full((2, 2), 1e200)
        with np.errstate(over="raise", invalid="raise"):
            # classify calls is_unitary, which calls unitary_mask: three silenced kernels, nested
            assert classify(huge).unitary is False
            assert np.geterr()["over"] == "raise" and np.geterr()["invalid"] == "raise"
            with pytest.raises(FloatingPointError):
                huge @ huge

    def test_threads_keep_their_own_state(self):
        def run(state):
            with np.errstate(over=state):
                for _ in range(50):
                    is_unitary(np.full((3, 3), 1e200))
                return np.geterr()["over"]

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(run, ["raise", "warn"] * 4)) == ["raise", "warn"] * 4


class TestSingleFlagPredicates:
    def matrices(self):
        rng = np.random.default_rng(8)
        return [
            np.eye(3),
            shift_vec((3,), (1,)),
            np.diag([1, 1j]) @ shift_vec((2,), (1,)),
            fourier(4),
            haar_unitary(5, rng),
            np.array([[0.5, 0.5], [0.5, 0.5]]),
            np.diag([1.0, 2.0]),
            np.zeros((2, 2)),
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            perm_matrix(rng.permutation(6)) * np.exp(2j * np.pi * rng.random(6)),
        ]

    def test_agree_with_classify(self):
        for m in self.matrices():
            flags = classify(m)
            assert is_unitary(m) == flags.unitary
            assert is_complex_permutation(m) == flags.complex_permutation

    @pytest.mark.parametrize("noise", [1e-11, 1e-7])
    def test_entry_noise_against_the_threshold(self, noise):
        # eps_entry = 1e-9: noise below it is absorbed, noise above it is not
        m = np.diag([1, 1j, -1]) @ shift_vec((3,), (1,))
        noisy = m + noise * np.ones((3, 3))
        below = noise < 1e-9
        assert is_complex_permutation(noisy) == below
        assert is_unitary(noisy) == below
        loose = ToleranceConfig(eps_entry=1e-5)
        assert is_complex_permutation(noisy, loose) and is_unitary(noisy, loose)

    def test_stack_masks_agree_with_each_matrix(self):
        from hadinv.linalg import as_stack, complex_permutation_mask, unitary_mask

        rng = np.random.default_rng(7)
        mats = [m for m in self.matrices() if m.shape == (2, 2)] + [
            haar_unitary(2, rng),
            np.diag([1j, -1]) @ shift_vec((2,), (1,)) + 1e-7,
        ]
        stack = as_stack(mats)
        assert unitary_mask(stack).tolist() == [is_unitary(m) for m in mats]
        assert complex_permutation_mask(stack).tolist() == [is_complex_permutation(m) for m in mats]
        with pytest.raises(ValueError):
            as_stack(mats[0])

    def test_permutation_mask_agrees_with_classify(self):
        from hadinv.linalg import permutation_mask

        rng = np.random.default_rng(9)
        mats = self.matrices() + [perm_matrix(rng.permutation(4)), perm_matrix(rng.permutation(4)) * -1]
        for m in mats:
            assert bool(permutation_mask(np.asarray(m, dtype=complex))) == classify(m).permutation
        stack = np.stack([perm_matrix(rng.permutation(5)) for _ in range(3)] + [shift_vec((5,), (2,)) * 1j])
        assert permutation_mask(stack).tolist() == [True, True, True, False]

    def test_a_modulus_off_one_is_not_a_complex_permutation(self):
        assert not is_complex_permutation(np.diag([1.0, 0.5]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)))
        with pytest.raises(ValueError):
            is_complex_permutation(np.ones((2, 3)))


class TestTraceInner:
    """The orthonormality oracle of ``TestOrthonormalBasis``."""

    def test_identity_has_unit_norm(self):
        assert abs(trace_inner(np.eye(5), np.eye(5)) - 1) < 1e-15

    def test_orthogonal_units(self):
        e11 = np.diag([1.0, 0.0])
        e22 = np.diag([0.0, 1.0])
        assert abs(trace_inner(e11, e22)) < 1e-15

    def test_shift_has_unit_norm(self):
        s = shift_vec((2,), (1,))
        assert abs(trace_inner(s, s) - 1) < 1e-15

    def test_sesquilinear(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z = 0.3 - 1.7j
        assert abs(trace_inner(z * a, b) - z * trace_inner(a, b)) < 1e-12
        assert abs(trace_inner(a, z * b) - np.conj(z) * trace_inner(a, b)) < 1e-12


class TestOrthonormalBasis:
    def test_collinear_collapses(self):
        assert len(orthonormal_basis([np.eye(2), 2 * np.eye(2)])) == 1

    def test_independent_diagonals(self):
        assert len(orthonormal_basis(diag_units(2))) == 2

    def test_clock_family_spans_diagonals(self):
        # the four clock tensors of (2,2) are a basis of the diagonal algebra
        family = [clock_vec((2, 2), r) for r in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        assert len(orthonormal_basis(family)) == 4

    def test_output_is_orthonormal(self):
        rng = np.random.default_rng(7)
        mats = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(6)]
        basis = orthonormal_basis(mats)
        for i, gi in enumerate(basis):
            for j, gj in enumerate(basis):
                assert abs(trace_inner(gi, gj) - (i == j)) <= 1e-10


class TestSubspaceIntersection:
    def test_self_intersection(self):
        basis = diag_units(2)
        assert len(subspace_intersection(basis, basis)) == 2

    def test_scalars_only(self):
        # span{I, s} meets span{I, D s D*} (D = diag(1, i)) exactly in the scalars:
        # matching coefficients on the off-diagonal forces both to vanish
        s = shift_vec((2,), (1,))
        other = np.array([[0, -1j], [1j, 0]])
        got = subspace_intersection([np.eye(2), s], [np.eye(2), other])
        assert len(got) == 1
        # independent oracle: dim(A & B) = dim A + dim B - rank(A u B)
        union = np.stack([m.reshape(-1) for m in [np.eye(2), s, np.eye(2), other]])
        assert len(got) == 2 + 2 - np.linalg.matrix_rank(union, tol=1e-10)

    def test_conjugated_diagonal_pair(self):
        f4 = fourier(4)
        d = np.diag([1.0, 1.0, -1.0, -1.0])
        a = [f4 @ e @ f4.conj().T for e in diag_units(4)]
        b = [(d @ f4) @ e @ (d @ f4).conj().T for e in diag_units(4)]
        got = subspace_intersection(a, b)
        # oracle: scan which conjugates d shift(4,r) d* stay scalar multiples of shift(4,r)
        expected = 0
        for r in range(4):
            s = shift_vec((4,), (r,))
            conj = d @ s @ d.conj().T
            scale = conj[0, (0 + r) % 4] / s[0, (0 + r) % 4]
            expected += int(maxabs(conj - scale * s) < 1e-12)
        assert expected == 2
        assert len(got) == expected

    def test_dimension_bounds(self):
        s = shift_vec((4,), (1,))
        small = [np.eye(4), s]
        big = [np.linalg.matrix_power(s, k) for k in range(4)]
        inter = subspace_intersection(small, big)
        assert len(inter) <= min(len(small), len(big))
        assert len(inter) == 2  # small family lies inside the big span

    def test_permutation_invariant_dimension(self):
        rng = np.random.default_rng(8)
        mats_a = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
        mats_b = mats_a[:2] + [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))]
        base = len(subspace_intersection(mats_a, mats_b))
        flipped = len(subspace_intersection(mats_a[::-1], mats_b[::-1]))
        assert base == flipped


class TestToleranceConfig:
    def test_defaults(self):
        assert ToleranceConfig().eps_entry == 1e-9
        assert EPS_RANK == 1e-8
        with pytest.raises(TypeError):  # the rank pivot is a constant, not an option
            ToleranceConfig(eps_rank=1e-6)

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1e-2, 0.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ToleranceConfig(eps_entry=bad)
