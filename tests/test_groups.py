"""Tests for group enumeration, subgroup extraction, and realization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SPECS_UP_TO_16, maxabs, perm_matrix, random_dpw
from hadinv import (
    DEFAULT_TOL,
    DimMismatch,
    FourierSpec,
    IndexOutOfRange,
    NotClosed,
    NotDivisor,
    OrderTooLarge,
    SubgroupSet,
    clock_vec,
    divisors,
    extract_subgroup,
    fourier,
    fourier_tensor,
    is_subgroup,
    pair_report,
    random_conjugate_pair,
    realize_subgroup,
    subspace_intersection,
)
from hadinv.groups import annihilator_mask, subgroup_from_mask
from oracles import kept_translations, staircase_pair


class TestIsSubgroup:
    def test_index_two(self):
        assert is_subgroup((4,), {(0,), (2,)})

    def test_closure_failure(self):
        assert not is_subgroup((4,), {(0,), (1,)})

    def test_trivial(self):
        assert is_subgroup((2, 3), {(0, 0)})

    def test_missing_identity(self):
        assert not is_subgroup((4,), {(2,)})

    @pytest.mark.parametrize("member", [(2.5,), (2.7,), (np.float64(2.5),)])
    def test_rejects_non_integral_members(self, member):
        # int() would read 2.5 and 2.7 as the element 2
        with pytest.raises(IndexOutOfRange, match="subgroup members must be integers"):
            is_subgroup((4,), [(0,), member])
        with pytest.raises(IndexOutOfRange, match="subgroup members must be integers"):
            SubgroupSet(orders=(4,), members={(0,), member})

    @pytest.mark.parametrize("two", [2, np.int64(2), np.int32(2), np.uint8(2), 2.0])
    def test_accepts_python_and_numpy_integers(self, two):
        assert is_subgroup((4,), [(0,), (two,)])
        assert SubgroupSet(orders=(4,), members={(0,), (two,)}).members == {(0,), (2,)}


class TestSubgroupSet:
    def test_valid_construction(self):
        s = SubgroupSet(orders=(4,), members=frozenset({(0,), (2,)}))
        assert s.size == 2
        assert s.sorted_members() == [(0,), (2,)]

    def test_not_closed_carries_members(self):
        with pytest.raises(NotClosed) as info:
            SubgroupSet(orders=(4,), members=frozenset({(0,), (1,)}))
        assert info.value.members == frozenset({(0,), (1,)})

    @pytest.mark.parametrize(
        "orders,members",
        [
            ((4,), {(0,), (4,)}),
            ((4,), {(0,), (-1,), (1,)}),
            ((2, 3), {(0, 0), (0, 3)}),
            ((2, 2), {(0, 0, 0)}),
        ],
    )
    def test_rejects_non_elements(self, orders, members):
        # (4,) + (4,) = (0,) mod 4, so closure alone would accept {(0,), (4,)}
        assert not is_subgroup(orders, members)
        with pytest.raises(NotClosed):
            SubgroupSet(orders=orders, members=frozenset(members))

    def test_closure_matches_pairwise_sums(self):
        # the table lookup against the plain |H|^2 loop of additions, on every
        # subset of Z_2 x Z_4 that holds the identity
        orders = (2, 4)

        def add(a, b):
            return tuple((x + y) % n for x, y, n in zip(a, b, orders))

        identity, *rest = itertools.product(*map(range, orders))
        for size in range(len(rest) + 1):
            for extra in itertools.combinations(rest, size):
                members = {identity, *extra}
                expected = all(add(a, b) in members for a in members for b in members)
                assert is_subgroup(orders, members) == expected

    def test_full_group_of_order_64(self):
        members = frozenset(itertools.product(range(8), range(8)))
        assert SubgroupSet(orders=(8, 8), members=members).size == 64
        with pytest.raises(NotClosed):
            SubgroupSet(orders=(8, 8), members=members - {(3, 5)})

    def test_group_order_cap(self):
        with pytest.raises(OrderTooLarge):
            is_subgroup((128,), {(0,)})


class TestSubgroupBelow:
    """``subgroup_from_mask`` on the mask of values below a threshold, as ``extract_subgroup`` passes it.

    It checks the membership mask as the ``SubgroupSet`` constructor checks members.
    """

    @staticmethod
    def _values(orders, members):
        values = np.ones(math.prod(orders))
        for m in members:
            values[np.ravel_multi_index(m, orders)] = 0.0
        return values

    @classmethod
    def _below(cls, orders, members):
        return subgroup_from_mask(cls._values(orders, members) < 0.5, orders)

    @pytest.mark.parametrize(
        "orders,members",
        [
            ((4,), {(0,), (1,)}),  # not closed
            ((4,), {(2,)}),  # without the identity
            ((6,), {(0,), (1,), (2,), (3,)}),  # size 4 does not divide 6
            ((2, 3), {(0, 0), (1, 1), (0, 2), (1, 2)}),  # size 4 does not divide 6
            ((2, 2), set()),  # no value below eps
        ],
        ids=["not-closed", "no-identity", "size-4-of-6", "size-4-of-2x3", "empty"],
    )
    def test_non_subgroups_raise_as_the_constructor_does(self, orders, members):
        with pytest.raises(NotClosed) as from_mask:
            self._below(orders, members)
        with pytest.raises(NotClosed) as from_members:
            SubgroupSet(orders=orders, members=frozenset(members))
        assert str(from_mask.value) == str(from_members.value)
        assert from_mask.value.members == from_members.value.members == frozenset(members)

    def test_every_subset_of_z2_x_z4(self):
        group = FourierSpec((2, 4))
        for size in range(group.dim + 1):
            for members in itertools.combinations(itertools.product(*map(range, group.orders)), size):
                if is_subgroup(group, members):
                    found = self._below(group.orders, members)
                    assert found == SubgroupSet(orders=group.orders, members=frozenset(members))
                    assert {type(x) for m in found.members for x in m} == {int}
                else:
                    with pytest.raises(NotClosed):
                        self._below(group.orders, members)

    def test_each_set_is_verified_once(self, monkeypatch):
        from hadinv import groups

        calls = []
        check = groups._mask_is_subgroup
        monkeypatch.setattr(groups, "_mask_is_subgroup", lambda *args: calls.append(1) or check(*args))
        self._below((8, 8), list(itertools.product(range(8), range(8))))
        assert len(calls) == 1
        SubgroupSet(orders=(4,), members=frozenset({(0,), (2,)}))
        assert len(calls) == 2

    def test_rejects_a_wrong_number_of_values(self):
        with pytest.raises(DimMismatch):
            subgroup_from_mask(np.zeros(5, dtype=bool), (2, 3))


def _generated(orders, generators):
    """The subgroup generated by ``generators``: {0} closed under adding a generator."""
    zero = (0,) * len(orders)
    found, frontier = {zero}, [zero]
    while frontier:
        a = frontier.pop()
        for g in generators:
            b = tuple((x + y) % n for x, y, n in zip(a, g, orders))
            if b not in found:
                found.add(b)
                frontier.append(b)
    return found


ANNIHILATOR_SPECS = SPECS_UP_TO_16 + [(64,), (8, 8), (2,) * 6]


class TestAnnihilatorMask:
    """The integer annihilator of ``S - S`` against the complex characters ``sqrt(N) W``."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        orders = data.draw(st.sampled_from(ANNIHILATOR_SPECS), label="spec")
        n = math.prod(orders)
        flat = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n), label="support")
        support = np.zeros(n, dtype=bool)
        support[list(flat)] = True
        got = annihilator_mask(support, orders)

        characters = np.sqrt(n) * fourier_tensor(orders)
        g0 = min(flat)
        want = (np.abs(characters[:, support] - characters[:, [g0]]) < 1e-9).all(axis=1)
        assert np.array_equal(got, want)

        members = [tuple(int(c) for c in np.unravel_index(r, orders)) for r in np.flatnonzero(got)]
        assert is_subgroup(orders, members)
        points = [np.unravel_index(g, orders) for g in sorted(flat)]
        differences = [tuple(int(a - b) % m for a, b, m in zip(p, points[0], orders)) for p in points]
        assert len(members) * len(_generated(orders, differences)) == n

    @pytest.mark.parametrize("orders", [(12,), (2, 2, 3), (8, 8)], ids=lambda s: ",".join(map(str, s)))
    def test_stack_matches_rows(self, orders):
        rng = np.random.default_rng(sum(orders))
        n = math.prod(orders)
        supports = rng.random((5, n)) < rng.uniform(0.05, 0.5, size=(5, 1))
        supports[np.arange(5), rng.integers(n, size=5)] = True
        got = annihilator_mask(supports, orders)
        assert got.shape == (5, n)
        for row, support in zip(got, supports):
            assert np.array_equal(row, annihilator_mask(support, orders))


def _pair_subgroup_mask(d, orders) -> np.ndarray:
    """H of the pair ``(W, diag(d) W)`` from ``pair_report``, the Fourier-support route, as a flat mask."""
    w = fourier_tensor(orders)
    members = pair_report(w, d[:, None] * w, orders).subgroup.sorted_members()
    inside = np.zeros(math.prod(orders), dtype=bool)
    inside[np.ravel_multi_index(tuple(np.array(members).T), orders)] = True
    return inside


class TestKeptTranslations:
    """The translations whose phase ratios ``diag(d)`` keeps constant against the pair's H: one subgroup.

    ``vertex_model_square`` counts these translations, for the rows of its tower, as the annihilator of
    the Fourier supports, which is how ``pair_report`` finds H.
    """

    @pytest.mark.parametrize("spec", SPECS_UP_TO_16, ids=lambda s: ",".join(map(str, s)))
    def test_realized_divisor_vectors(self, spec):
        for mvec in itertools.product(*[divisors(order) for order in spec]):
            u, v = realize_subgroup(spec, mvec)
            d = np.diagonal(v @ u.conj().T)
            got = kept_translations(d, spec)
            assert got.sum() == math.prod(mvec)
            assert np.array_equal(got, _pair_subgroup_mask(d, spec))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_constant_on_cosets(self, data):
        orders = data.draw(st.sampled_from(SPECS_UP_TO_16), label="spec")
        n = math.prod(orders)
        generators = data.draw(
            st.lists(st.tuples(*(st.integers(0, m - 1) for m in orders)), max_size=2), label="generators"
        )
        below = _generated(orders, generators)
        # one phase on a root-of-unity grid per coset of the subgroup, so d is constant on each coset
        grid = data.draw(st.sampled_from([2, 3, 4, 6, 8, 12]), label="grid")
        coset = {}
        steps = np.empty(n, dtype=int)
        for flat, x in enumerate(itertools.product(*map(range, orders))):
            base = min(tuple((a - b) % m for a, b, m in zip(x, h, orders)) for h in below)
            if base not in coset:
                coset[base] = data.draw(st.integers(0, grid - 1), label=f"coset {base}")
            steps[flat] = coset[base]
        assume(steps.any())  # d = 1 would give the identical pair, which has no H
        d = np.exp(2j * np.pi * steps / grid)
        got = kept_translations(d, orders)
        assert got[np.ravel_multi_index(tuple(np.array(sorted(below)).T), orders)].all()
        assert np.array_equal(got, _pair_subgroup_mask(d, orders))


class TestExtractSubgroup:
    def test_sign_block_pair(self):
        f4 = fourier(4)
        v = np.diag([1, 1, -1, -1]) @ f4
        got = extract_subgroup(f4, v, (4,))
        assert got.sorted_members() == [(0,), (2,)]
        # oracle: the weight sequence d_j conj(d_{j+r}) must be constant
        d = np.array([1, 1, -1, -1], dtype=complex)
        expected = []
        for r in range(4):
            weights = d.conj() * d[(np.arange(4) + r) % 4]
            if maxabs(weights - weights[0]) < 1e-12:
                expected.append((r,))
        assert got.sorted_members() == expected

    def test_quarter_phase_pair_is_trivial(self):
        f2 = fourier(2)
        got = extract_subgroup(f2, np.diag([1, 1j]) @ f2, (2,))
        assert got.sorted_members() == [(0,)]

    def test_sign_pair_is_full(self):
        f2 = fourier(2)
        got = extract_subgroup(f2, np.diag([1, -1]) @ f2, (2,))
        assert got.sorted_members() == [(0,), (1,)]

    def test_rejects_identical_pair(self):
        f2 = fourier(2)
        with pytest.raises(ValueError):
            extract_subgroup(f2, f2, (2,))

    @pytest.mark.parametrize("orders", [(2, 2), (4,), (2, 3), (2, 2, 2)])
    def test_conjugate_pairs_give_subgroups(self, orders):
        rng = np.random.default_rng(30)
        for _ in range(15):
            u, v = random_conjugate_pair(orders, rng)
            got = extract_subgroup(u, v, orders)
            assert is_subgroup(orders, got.members)

    @pytest.mark.parametrize("orders", [(2, 2), (4,), (2, 3), (2, 2, 2)])
    def test_order_matches_intersection_dimension(self, orders):
        rng = np.random.default_rng(31)
        n = math.prod(orders)
        units = [np.diag(np.eye(n)[i]).astype(complex) for i in range(n)]
        for _ in range(15):
            u, v = random_conjugate_pair(orders, rng)
            got = extract_subgroup(u, v, orders)
            a = [u @ e @ u.conj().T for e in units]
            b = [v @ e @ v.conj().T for e in units]
            assert got.size == len(subspace_intersection(a, b))


def _kronecker_clock_members(u, v, orders) -> frozenset:
    """Reference route: r with ``V* U D_r U* V`` diagonal, ``D_r`` built by ``clock_vec``."""
    spec = FourierSpec(orders)
    left = v.conj().T @ u
    right = u.conj().T @ v
    found = set()
    for r in itertools.product(*map(range, orders)):
        m = left @ clock_vec(spec, r) @ right
        if np.abs(m - np.diag(np.diag(m))).max() < DEFAULT_TOL.eps_entry:
            found.add(r)
    return frozenset(found)


def _extracted_members(u, v, orders) -> frozenset:
    """Members of the extracted subgroup, or the raw set a ``NotClosed`` carries."""
    try:
        return extract_subgroup(u, v, orders).members
    except NotClosed as exc:
        return exc.members


class TestKroneckerClockOracle:
    """extract_subgroup's characters read off W against Kronecker-built clock diagonals."""

    @pytest.mark.parametrize("spec", SPECS_UP_TO_16, ids=lambda s: ",".join(map(str, s)))
    def test_every_realized_divisor_vector(self, spec):
        for mvec in itertools.product(*[divisors(order) for order in spec]):
            u, v = realize_subgroup(spec, mvec)
            assert _extracted_members(u, v, spec) == _kronecker_clock_members(u, v, spec)

    @pytest.mark.parametrize("spec", SPECS_UP_TO_16, ids=lambda s: ",".join(map(str, s)))
    def test_random_pairs(self, spec):
        rng = np.random.default_rng(sum(spec) * 100 + len(spec))
        n = math.prod(spec)
        w = fourier_tensor(spec)
        pairs = [random_conjugate_pair(spec, rng) for _ in range(3)]
        for _ in range(3):
            # equivalent pairs: V = U P D
            u = random_dpw(spec, rng)
            pairs.append((u, u @ perm_matrix(rng.permutation(n)) @ np.diag(np.exp(2j * np.pi * rng.random(n)))))
        for grid in (2, 4, n):
            # independent permutations; root-of-unity phases reach non-trivial sets
            u, v = (
                np.diag(np.exp(2j * np.pi * rng.integers(0, grid, n) / grid)) @ perm_matrix(rng.permutation(n)) @ w
                for _ in range(2)
            )
            pairs.append((u, v))
        for u, v in pairs:
            if np.abs(u - v).max() > DEFAULT_TOL.eps_entry:
                assert _extracted_members(u, v, spec) == _kronecker_clock_members(u, v, spec)


class TestRealizeSubgroup:
    def test_order_four_halving(self):
        u, v = realize_subgroup((4,), (2,))
        assert maxabs(u - fourier(4)) < 1e-12
        assert maxabs(v - np.diag([1, 1, -1, -1]) @ fourier(4)) < 1e-12

    def test_trivial_divisors(self):
        u, v = realize_subgroup((2, 2), (1, 1))
        assert extract_subgroup(u, v, (2, 2)).size == 1

    def test_full_divisors(self):
        u, v = realize_subgroup((2, 2), (2, 2))
        assert extract_subgroup(u, v, (2, 2)).size == 4

    @pytest.mark.parametrize("mvec", [(2.5,), (1.5,), (float("nan"),), (2 + 1j,)])
    def test_rejects_non_integer_divisors(self, mvec):
        # an integer cast would read 2.5 as 2 and realize the order-2 subgroup
        with pytest.raises(NotDivisor, match="divisors must be integers"):
            realize_subgroup((4,), mvec)

    @pytest.mark.parametrize("mvec", [(2,), (np.int64(2),), np.array([2]), (2.0,)])
    def test_accepts_integer_divisors(self, mvec):
        u, v = realize_subgroup((4,), mvec)
        want_u, want_v = realize_subgroup((4,), (2,))
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)

    def test_rejects_non_divisor(self):
        with pytest.raises(NotDivisor):
            realize_subgroup((4,), (3,))
        with pytest.raises(NotDivisor):
            realize_subgroup((2, 2), (2,))

    @pytest.mark.parametrize("orders", [(4,), (2, 2), (6,), (2, 4)])
    def test_every_divisor_vector(self, orders):
        import itertools

        for mvec in itertools.product(*[divisors(n) for n in orders]):
            u, v = realize_subgroup(orders, mvec)
            expected = int(np.prod(mvec))
            assert extract_subgroup(u, v, orders).size == expected

    @pytest.mark.parametrize("spec", SPECS_UP_TO_16, ids=lambda s: ",".join(map(str, s)))
    def test_equals_dense_staircase_product(self, spec):
        # the normal forms (W, diag(d) W) from realize_forms, bit for bit the dense product
        for mvec in itertools.product(*[divisors(order) for order in spec]):
            u, v = realize_subgroup(spec, mvec)
            w, dense_v = staircase_pair(spec, mvec)
            assert np.array_equal(u, w) and np.array_equal(v, dense_v)

    def test_pair_differs_from_base(self):
        for mvec in [(1,), (2,), (4,)]:
            u, v = realize_subgroup((4,), mvec)
            assert maxabs(u - v) > 1e-6


class TestDivisors:
    def test_values(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(7) == [1, 7]
