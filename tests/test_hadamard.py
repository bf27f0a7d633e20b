"""Tests for Fourier-tensor generators, normal forms, and biunitarity."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPECS_UP_TO_16, haar_unitary, maxabs, perm_matrix, random_dpw, same_bits
from oracles import dense_clock, dense_shift, entry_diagonal
from hadinv import (
    DimMismatch,
    DpwForm,
    FourierSpec,
    IndexOutOfRange,
    NotDpwForm,
    OrderOutOfRange,
    OrderTooLarge,
    are_conjugate,
    block_transpose,
    block_unitary,
    clock_stack,
    clock_vec,
    decompose_dpw,
    fourier,
    fourier_tensor,
    is_biunitary,
    is_hadamard,
    tensor,
    perm_phase_certificate,
    shift_stack,
    shift_vec,
)
from hadinv.hadamard import _fourier_tensor, comma_list, diag_times, realize_forms, require_forms


class TestFourier:
    def test_order_two(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert maxabs(fourier(2) - expected) < 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_is_hadamard(self, n):
        assert is_hadamard(fourier(n))

    def test_order_four_entry(self):
        assert abs(fourier(4)[1, 1] - 0.5j) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 65])
    def test_rejects_bad_order(self, n):
        with pytest.raises(OrderOutOfRange):
            fourier(n)


class TestFourierTensor:
    def test_dim_product(self):
        assert fourier_tensor((2, 2)).shape == (4, 4)

    def test_tensor_is_hadamard(self):
        assert is_hadamard(fourier_tensor((2, 3)))

    def test_single_factor(self):
        assert maxabs(fourier_tensor((2,)) - fourier(2)) < 1e-15

    def test_spec_cap(self):
        with pytest.raises(OrderOutOfRange):
            FourierSpec((5, 17))  # product 85 > 64

    @pytest.mark.parametrize("orders", [(4.7,), (2, 2.5), (float("nan"),), (float("inf"), 2), (2 + 1j,)])
    def test_rejects_non_integer_orders(self, orders):
        # an integer cast would read 4.7 as 4
        with pytest.raises(OrderOutOfRange, match="factor orders must be integers"):
            FourierSpec(orders)

    @pytest.mark.parametrize("orders", [(2, 3), (np.int64(2), np.int32(3)), np.array([2, 3]), (2.0, 3)])
    def test_accepts_integers(self, orders):
        spec = FourierSpec(orders)
        assert spec.orders == (2, 3) and {type(n) for n in spec.orders} == {int}

    @pytest.mark.parametrize(
        "spec,orders",
        [
            ("23", (23,)),
            ("64", (64,)),
            ("2,3", (2, 3)),
            (np.int64(4), (4,)),
            (np.int32(4), (4,)),
            (np.array(4), (4,)),
            ((n for n in (2, 3)), (2, 3)),
            (4.0, (4,)),
            (np.float64(4), (4,)),
            (np.array(4.0), (4,)),
        ],
    )
    def test_of_parses_a_string(self, spec, orders):
        # a string is a comma list, never a sequence of one-digit orders; any integer is one order
        got = FourierSpec.of(spec)
        assert got == FourierSpec(orders) and {type(n) for n in got.orders} == {int}

    @pytest.mark.parametrize("spec", [4.5, None, float("nan"), object()], ids=["4.5", "None", "nan", "object"])
    def test_of_rejects_a_scalar_that_is_no_integer(self, spec):
        # a scalar is one order, so it meets the integer check rather than tuple()
        with pytest.raises(OrderOutOfRange, match="factor orders must be integers"):
            FourierSpec.of(spec)

    def test_of_rejects_a_malformed_string(self):
        with pytest.raises(OrderOutOfRange):
            FourierSpec.of("2,x")

    def test_returns_a_fresh_writable_array(self):
        # the tensor is cached per spec; writing into one result must not
        # reach the cache, later calls, or the constructors that read it
        spec = FourierSpec((2, 3))
        rng = np.random.default_rng(21)
        form = DpwForm(spec, rng.permutation(6), np.exp(2j * np.pi * rng.random(6)))
        realized = form.realize()
        first = fourier_tensor(spec)
        assert first.flags.writeable
        first[:] = 7.0
        assert np.array_equal(fourier_tensor(spec), np.kron(fourier(2), fourier(3)))
        assert fourier_tensor(spec) is not fourier_tensor(spec)
        assert np.array_equal(form.realize(), realized)
        back = decompose_dpw(form.realize(), spec)
        assert back.perm == form.perm
        assert maxabs(np.asarray(back.phases) - np.asarray(form.phases)) < 1e-9

    @pytest.mark.parametrize("orders", [(2,), (2, 3)])
    def test_cache_is_read_only(self, orders):
        # realize_forms and dpw_parts read the cached tensor itself, not a copy
        with pytest.raises(ValueError, match="read-only"):
            _fourier_tensor(orders)[0, 0] = 7.0

    @pytest.mark.parametrize("orders", [(2,), (2, 3), (3, 2), (2, 2, 2)])
    def test_cached_equals_fresh_kronecker(self, orders):
        fresh = fourier(orders[0])
        for n in orders[1:]:
            fresh = np.kron(fresh, fourier(n))
        assert np.array_equal(fourier_tensor(orders), fresh)


class TestClockShift:
    def test_clock_two(self):
        assert maxabs(clock_vec((2,), (1,)) - np.diag([1, -1])) < 1e-12

    def test_clock_zero_power(self):
        assert maxabs(clock_vec((5,), (0,)) - np.eye(5)) < 1e-15

    def test_clock_four_squared(self):
        assert maxabs(clock_vec((4,), (2,)) - np.diag([1, -1, 1, -1])) < 1e-12

    def test_shift_two(self):
        assert maxabs(shift_vec((2,), (1,)) - np.array([[0, 1], [1, 0]])) < 1e-15

    def test_shift_full_cycle(self):
        assert maxabs(shift_vec((5,), (5,)) - np.eye(5)) < 1e-15

    def test_shift_power(self):
        one = shift_vec((3,), (1,))
        assert maxabs(shift_vec((3,), (2,)) - one @ one) < 1e-15

    @pytest.mark.parametrize("k", [-1, 6])
    def test_rejects_bad_power(self, k):
        with pytest.raises(IndexOutOfRange):
            clock_vec((5,), (k,))
        with pytest.raises(IndexOutOfRange):
            shift_vec((5,), (k,))


class TestVectorGenerators:
    def test_identity_element(self):
        assert maxabs(clock_vec((2, 2), (0, 0)) - np.eye(4)) < 1e-15

    def test_single_active_leg(self):
        expected = np.kron(shift_vec((2,), (1,)), np.eye(2))
        assert maxabs(shift_vec((2, 2), (1, 0)) - expected) < 1e-15

    @pytest.mark.parametrize("orders", [(2, 3), (2, 2, 2), (3, 3), (2, 4)])
    def test_tensor_conjugation_identity(self, orders):
        import itertools

        spec = FourierSpec(orders)
        w = fourier_tensor(spec)
        for r in itertools.product(*[range(n) for n in orders]):
            got = w @ clock_vec(spec, r) @ w.conj().T
            assert maxabs(got - shift_vec(spec, r)) < 1e-10

    def test_rejects_wrong_length(self):
        with pytest.raises(IndexOutOfRange):
            clock_vec((2, 2), (1,))

    @pytest.mark.parametrize("r", [(1.9,), (0.5,), (float("nan"),), (1 + 1j,)])
    def test_rejects_non_integer_powers(self, r):
        # an integer cast would read 1.9 as the clock power 1
        with pytest.raises(IndexOutOfRange, match="must be integers"):
            clock_vec((4,), r)

    @pytest.mark.parametrize("r", [(1,), (np.int64(1),), np.array([1]), (1.0,)])
    def test_accepts_integer_powers(self, r):
        assert np.array_equal(clock_vec((4,), r), clock_vec((4,), (1,)))


class TestStackedConstructors:
    """The stacks and their stacks of one against the dense ``np.diag``/``np.kron``/index-fill references."""

    SPECS = [(2, 3), (2, 2, 2), (3, 3), (2, 4), (2,), (3,), (5,), (7,), (12,), (4, 4)]

    @staticmethod
    def every_power(orders):
        # 0 <= r_i <= n_i: the power n_i is accepted and equals the power 0
        return np.indices([n + 1 for n in orders]).reshape(len(orders), -1).T

    @pytest.mark.parametrize("orders", SPECS)
    def test_stacks_match_the_dense_references_bit_for_bit(self, orders):
        rs = self.every_power(orders)
        clocks, shifts = clock_stack(orders, rs), shift_stack(orders, rs)
        assert clocks.shape == shifts.shape == (len(rs), np.prod(orders), np.prod(orders))
        for r, c, s in zip(rs, clocks, shifts):
            assert same_bits(c, dense_clock(orders, r))
            assert same_bits(s, dense_shift(orders, r))

    @pytest.mark.parametrize("orders", SPECS)
    def test_stacks_of_one_match_the_dense_references_bit_for_bit(self, orders):
        for r in self.every_power(orders).tolist():
            assert same_bits(clock_vec(orders, r), dense_clock(orders, r))
            assert same_bits(shift_vec(orders, r), dense_shift(orders, r))

    def test_signed_zeros_are_exercised(self):
        # gen --kind diag --spec 2,3 --k 1,2 prints -0.0 entries off the diagonal
        assert np.signbit(clock_vec((2, 3), (1, 2)).real).any()

    @pytest.mark.parametrize(
        "r,message",
        [
            ((1, 5), "component 5 out of range for order 4"),
            ((-1, 0), "component -1 out of range for order 2"),
            ((1, 2.5), "vector components must be integers, got [1.0, 2.5]"),
            # integers beyond int64 (an object array) or within uint64 only: out of range, not non-integers
            ((1, 99999999999999999999), "component 99999999999999999999 out of range for order 4"),
            ((1, -(10**30)), "component -1000000000000000000000000000000 out of range for order 4"),
            ((1, 2**63), "component 9223372036854775808 out of range for order 4"),
        ],
    )
    def test_stacks_reject_with_the_vector_messages(self, r, message):
        # the stack's message names its offending row, here the second
        for stack, single in ((clock_stack, clock_vec), (shift_stack, shift_vec)):
            for build in (lambda: stack((2, 4), [(0, 0), r]), lambda: single((2, 4), r)):
                with pytest.raises(IndexOutOfRange) as info:
                    build()
                assert str(info.value) == message

    def test_rejects_the_wrong_length(self):
        for build in (lambda: clock_stack((2, 4), [(1,), (0,)]), lambda: shift_vec((2, 4), (1,))):
            with pytest.raises(IndexOutOfRange, match=r"vector length 1 does not match spec \(2, 4\)"):
                build()
        with pytest.raises(IndexOutOfRange, match="vectors must all have length 2"):
            shift_stack((2, 4), [(0, 0), (1,)])

    def test_stacks_accept_integer_valued_floats_and_numpy_ints(self):
        want = clock_stack((2, 4), [[1, 3]])
        assert same_bits(clock_stack((2, 4), [[1.0, 3.0]]), want)
        assert same_bits(clock_stack((2, 4), np.array([[1, 3]], dtype=np.int32)), want)

    def test_rejects_a_flat_vector_as_a_stack(self):
        with pytest.raises(IndexOutOfRange, match="stack of vectors"):
            clock_stack((2, 4), [1, 3])


class TestEntryDiagonal:
    """The dense oracle of ``TestBlockUnitary::test_matches_dense_diagonal_product``."""

    def test_fourier_two(self):
        assert maxabs(entry_diagonal(fourier(2)) - np.diag([1, 1, 1, -1])) < 1e-12

    def test_last_entry(self):
        assert abs(entry_diagonal(fourier(2))[3, 3] - (-1)) < 1e-12

    def test_unitary_for_random_form(self):
        rng = np.random.default_rng(11)
        d = entry_diagonal(random_dpw((2, 2), rng))
        assert maxabs(d @ d.conj().T - np.eye(16)) < 1e-9


class TestBlockUnitary:
    def test_fourier_two_blocks(self):
        f2 = fourier(2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = f2
        expected[2:, 2:] = f2 @ np.diag([1, -1])
        assert maxabs(block_unitary(f2) - expected) < 1e-12

    def test_unitary(self):
        rng = np.random.default_rng(12)
        u1 = block_unitary(random_dpw((3,), rng))
        assert maxabs(u1 @ u1.conj().T - np.eye(9)) < 1e-9

    def test_permutation_times_embedded_fourier(self):
        f2 = fourier(2)
        p = np.zeros((4, 4), dtype=complex)
        p[0, 0] = p[1, 1] = 1  # block 0: identity
        p[2, 3] = p[3, 2] = 1  # block 1: the two-cycle
        assert maxabs(block_unitary(f2) - p @ np.kron(np.eye(2), f2)) < 1e-12


    @pytest.mark.parametrize("orders", [o for o in SPECS_UP_TO_16 if np.prod(o) <= 6])
    def test_matches_dense_diagonal_product(self, orders):
        # the column-scaled form against the dense (I x u) @ entry_diagonal(u)
        rng = np.random.default_rng(13)
        n = int(np.prod(orders))
        for u in (fourier_tensor(orders), random_dpw(orders, rng)):
            dense = tensor(np.eye(n), u) @ entry_diagonal(u)
            assert maxabs(block_unitary(u) - dense) < 1e-12

    def test_order_37_rejected_before_allocating(self):
        # F37 is Hadamard; the cap must win before the 1369 x 1369 matrix, or any check of u, is built
        u = fourier(37)
        tracemalloc.start()
        try:
            with pytest.raises(OrderTooLarge):
                block_unitary(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 37 * 37 * 16


class TestPermPhaseCertificate:
    def test_constructed_instance(self):
        f2 = fourier(2)
        cert = perm_phase_certificate(f2, f2 @ shift_vec((2,), (1,)))
        assert cert is not None
        perm, phases = cert
        assert list(perm) == [1, 0]
        assert maxabs(phases - 1.0) < 1e-12

    def test_absent_for_phase_twist(self):
        f2 = fourier(2)
        v = np.diag([1, 1j]) @ f2
        # u* v has four entries of modulus 1/sqrt(2): not a complex permutation
        product = f2.conj().T @ v
        assert maxabs(product - np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2) < 1e-12
        assert perm_phase_certificate(f2, v) is None

    def test_present_for_sign_twist(self):
        f2 = fourier(2)
        assert perm_phase_certificate(np.diag([1, -1]) @ f2, f2) is not None

    def test_certificate_reconstructs(self):
        rng = np.random.default_rng(13)
        u = random_dpw((2, 2), rng)
        p = perm_matrix(rng.permutation(4))
        d = np.diag(np.exp(2j * np.pi * rng.random(4)))
        v = u @ p @ d
        cert = perm_phase_certificate(u, v)
        assert cert is not None
        perm, phases = cert
        assert maxabs(u @ perm_matrix(perm) @ np.diag(phases) - v) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(14)
        u = random_dpw((4,), rng)
        v = u @ perm_matrix(rng.permutation(4)) @ np.diag(np.exp(2j * np.pi * rng.random(4)))
        assert perm_phase_certificate(u, v) is not None
        assert perm_phase_certificate(v, u) is not None

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            perm_phase_certificate(fourier(2), fourier(3))

    @pytest.mark.parametrize("entry", [1e200, 1e308 + 1e308j])
    def test_an_overflowed_product_is_no_certificate(self, entry):
        # both inputs are finite; u* v is inf or NaN, which is no complex permutation and no input error
        big = np.full((2, 2), entry)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(big.conj().T @ big).all()
            assert perm_phase_certificate(big, big) is None


class TestDecomposeDpw:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        form = DpwForm(
            spec=FourierSpec((2, 2)),
            perm=tuple(int(p) for p in rng.permutation(4)),
            phases=tuple(np.exp(2j * np.pi * rng.random(4))),
        )
        back = decompose_dpw(form.realize(), (2, 2))
        assert back.perm == form.perm
        assert maxabs(np.asarray(back.phases) - np.asarray(form.phases)) < 1e-9

    def test_fourier_tensor_is_trivial_form(self):
        form = decompose_dpw(fourier_tensor((2, 3)), (2, 3))
        assert form.perm == tuple(range(6))
        assert maxabs(np.asarray(form.phases) - 1.0) < 1e-9

    def test_adjoint_of_fourier_two(self):
        # F2 is real symmetric, so its adjoint decomposes trivially
        form = decompose_dpw(fourier(2).conj().T, (2,))
        assert form.perm == (0, 1)
        assert maxabs(np.asarray(form.phases) - 1.0) < 1e-9

    def test_rejects_non_member(self):
        with pytest.raises(NotDpwForm):
            decompose_dpw(fourier(4), (2, 2))

    @pytest.mark.parametrize("orders", SPECS_UP_TO_16)
    def test_realize_equals_three_factor_product(self, orders):
        # realize indexes the rows of W instead of multiplying by P; the
        # result must be bitwise the old diag(phases) @ P @ W
        rng = np.random.default_rng(17)
        spec = FourierSpec(orders)
        for _ in range(3):
            perm = rng.permutation(spec.dim)
            phases = np.exp(2j * np.pi * rng.random(spec.dim))
            form = DpwForm(spec, perm, phases)
            oracle = np.diag(phases) @ perm_matrix(perm) @ fourier_tensor(spec)
            assert np.array_equal(form.realize(), oracle)

    def test_realize_is_hadamard(self):
        rng = np.random.default_rng(16)
        form = decompose_dpw(random_dpw((2, 3), rng), (2, 3))
        assert is_hadamard(form.realize())


class TestAreConjugate:
    def test_phase_only_pairs(self):
        f2 = fourier(2)
        assert are_conjugate(f2, np.diag([1, 1j]) @ f2, (2,))

    def test_distinct_permutations(self):
        f2 = fourier(2)
        swapped = perm_matrix([1, 0]) @ f2
        assert not are_conjugate(f2, swapped, (2,))

    def test_reflexive(self):
        rng = np.random.default_rng(17)
        x = random_dpw((2, 2), rng)
        assert are_conjugate(x, x, (2, 2))


class TestBiunitary:
    def test_identity(self):
        assert is_biunitary(np.eye(4), 2, 2)

    def test_block_transpose_involution(self):
        rng = np.random.default_rng(18)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert maxabs(block_transpose(block_transpose(m, 2, 3), 2, 3) - m) < 1e-15

    def test_tensor_products_are_biunitary(self):
        rng = np.random.default_rng(19)
        z = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
        assert is_biunitary(z, 2, 3)

    def test_random_unitary_usually_is_not(self):
        rng = np.random.default_rng(20)
        hits = sum(is_biunitary(haar_unitary(6, rng), 2, 3) for _ in range(5))
        assert hits == 0

    def test_rejects_bad_factorization(self):
        with pytest.raises(DimMismatch):
            block_transpose(np.eye(5), 2, 2)

    @pytest.mark.parametrize("entry", [1e200, 1e308 + 1e308j])
    def test_huge_finite_entries_are_not_biunitary_and_raise_no_warning(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_biunitary(np.full((4, 4), entry), 2, 2) is False


class TestDpwFormValidation:
    def test_rejects_non_integer_perm_entries(self):
        # an integer cast would read 1.7 as 1 and accept the permutation (0, 1)
        for perm in [(0, 1.7), (0.5, 1)]:
            with pytest.raises(ValueError, match="perm entries must be integers"):
                DpwForm(spec=FourierSpec((2,)), perm=perm, phases=(1.0, 1.0))

    def test_rejects_non_real_and_non_finite_perm_entries_without_a_warning(self):
        # the integer cast would warn (ComplexWarning, RuntimeWarning) before the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for perm in [(0, 1 + 0.5j), (0, float("nan")), (0, float("inf"))]:
                with pytest.raises(ValueError, match="perm entries must be integers"):
                    DpwForm(spec=FourierSpec((2,)), perm=perm, phases=(1.0, 1.0))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            DpwForm(spec=FourierSpec((2,)), perm=(0, 0), phases=(1.0, 1.0))

    def test_rejects_non_unit_phases(self):
        with pytest.raises(ValueError):
            DpwForm(spec=FourierSpec((2,)), perm=(0, 1), phases=(1.0, 0.5))

    def test_rejects_wrong_length(self):
        with pytest.raises(DimMismatch):
            DpwForm(spec=FourierSpec((2, 2)), perm=(0, 1), phases=(1.0, 1.0))

    def test_stores_python_ints_and_complexes(self):
        # arrays, numpy scalars and plain numbers all store the same tuples
        rng = np.random.default_rng(21)
        perm = rng.permutation(6)
        phases = np.exp(2j * np.pi * rng.random(6))
        inputs = [(perm, phases), (list(perm), list(phases)), (tuple(perm.tolist()), tuple(phases.tolist()))]
        for p, z in inputs:
            form = DpwForm(spec=FourierSpec((2, 3)), perm=p, phases=z)
            assert form.perm == tuple(int(i) for i in perm)
            assert form.phases == tuple(complex(c) for c in phases)
            assert {type(i) for i in form.perm} == {int}
            assert {type(c) for c in form.phases} == {complex}
        real = DpwForm(spec=FourierSpec((2,)), perm=(1.0, 0.0), phases=(1, -1))
        assert real.perm == (1, 0) and real.phases == (1 + 0j, -1 + 0j)


class TestRequireForms:
    """The checks of ``DpwForm`` on a stack, as the random sweep makes them once per chunk."""

    def _stack(self, rng):
        # six draws over N = 9: perms (6, 9), and the phases of U, of V and the extra ones (3, 6, 9)
        perms = np.array([rng.permutation(9) for _ in range(6)])
        return perms, np.exp(2j * np.pi * rng.random((3, 6, 9)))

    def test_accepts_sampled_forms_and_phase_noise_below_eps(self):
        perms, phases = self._stack(np.random.default_rng(5))
        require_forms(perms, phases)
        phases[1, 2, 3] *= 1 + 0.5e-9
        require_forms(perms, phases)

    def test_rejects_one_non_permutation(self):
        perms, phases = self._stack(np.random.default_rng(6))
        perms[4, 0] = perms[4, 1]
        with pytest.raises(ValueError, match="not a permutation of 0..8"):
            require_forms(perms, phases)

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_rejects_one_non_unit_phase_in_any_row(self, row):
        perms, phases = self._stack(np.random.default_rng(7))
        phases[row, 3, 5] *= 1 + 2e-9
        with pytest.raises(ValueError, match="modulus one"):
            require_forms(perms, phases)

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), complex(1.0, np.nan)])
    def test_rejects_a_nan_phase(self, bad):
        # NaN compares false, so a test of the form "error >= eps" would let it through
        perms, phases = self._stack(np.random.default_rng(8))
        phases[1, 2, 3] = bad
        with pytest.raises(ValueError, match="modulus one"):
            require_forms(perms, phases)
        with pytest.raises(ValueError, match="modulus one"):
            DpwForm((3, 3), perms[2], phases[1, 2])


class TestRealizeForms:
    """The stacked realization against the dense product ``np.diag(phases) @ W[perm]``, bit for bit."""

    @pytest.mark.parametrize("spec", [(2,), (3, 3), (2, 3, 5), (8, 8), (64,)], ids=lambda s: ",".join(map(str, s)))
    def test_rows_match_the_dense_product(self, spec):
        rng = np.random.default_rng(len(spec) + spec[0])
        n = int(np.prod(spec))
        perms = np.array([rng.permutation(n) for _ in range(5)])
        phases = np.exp(2j * np.pi * rng.random((5, n)))
        w = fourier_tensor(spec)
        stacked = realize_forms(perms, phases, spec)
        extra = np.exp(2j * np.pi * rng.random((5, n)))
        twice = diag_times(extra, stacked)
        for k in range(5):
            dense = np.diag(phases[k]) @ w[perms[k]]
            assert np.array_equal(stacked[k], dense)
            assert np.array_equal(DpwForm(FourierSpec(spec), perms[k], phases[k]).realize(), dense)
            assert np.array_equal(twice[k], np.diag(extra[k]) @ dense)


class TestCommaList:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(), min_size=1))
    def test_integer_lists_round_trip(self, values):
        assert comma_list(",".join(map(str, values)), int, ValueError, "x") == tuple(values)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=1))
    def test_complex_lists_round_trip(self, values):
        assert comma_list(",".join(map(str, values)), complex, ValueError, "x") == tuple(values)

    @pytest.mark.parametrize("text", ["2,x", "", "2,", ",2", "2;3", "2.5", "1,,2"])
    @pytest.mark.parametrize("error,name", [(OrderOutOfRange, "spec"), (IndexOutOfRange, "--k"), (ValueError, "--perm")])
    def test_a_bad_integer_list_raises_the_given_error_naming_the_list(self, text, error, name):
        with pytest.raises(error) as info:
            comma_list(text, int, error, name)
        assert str(info.value) == f"cannot parse {name} {text!r}"

    @pytest.mark.parametrize("text", ["1,q", "1,", "1j,(1", "1,1 j"])
    def test_a_bad_complex_list_names_the_list(self, text):
        with pytest.raises(ValueError, match="cannot parse --phases"):
            comma_list(text, complex, ValueError, "--phases")
