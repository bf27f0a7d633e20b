"""The identity suite: batched checks against the per-power oracles, mutants and order caps."""

import numpy as np
import pytest

import hadinv.verify as verify
from oracles import (
    block_unitary_permutation_form,
    clock_shift_commutation,
    fourier_diag_conjugation,
    spin_squares,
    tensor_diag_conjugation,
)
from hadinv import (
    FourierSpec,
    OrderOutOfRange,
    OrderTooLarge,
    block_unitary,
    fourier,
    fourier_tensor,
    run_verification,
)
from hadinv.hadamard import clock_stack, shift_stack


def check(name: str, **kwargs):
    results = run_verification(**{"gamma_orders": (), "spin_orders": (), **kwargs})
    return next(r for r in results if r.name == name)


class TestBatchedChecksMatchThePerPowerLoops:
    @pytest.mark.parametrize("max_order", [12, 64])
    def test_fourier_diag_conjugation(self, max_order):
        _, got = verify._fourier_checks([fourier(n) for n in range(2, max_order + 1)])
        assert got.name == "fourier-diag-conjugation"
        assert (got.passed, got.max_err) == fourier_diag_conjugation(max_order)

    def test_tensor_diag_conjugation(self):
        tensors = [(FourierSpec(orders), fourier_tensor(orders)) for orders in verify.TENSOR_SPECS]
        got = verify._tensor_diag_conjugation(tensors)
        assert (got.passed, got.max_err) == tensor_diag_conjugation()

    def test_run_verification_wires_the_same_checks(self):
        for name, oracle in (
            ("fourier-diag-conjugation", fourier_diag_conjugation(12)),
            ("tensor-diag-conjugation", tensor_diag_conjugation()),
        ):
            got = check(name, max_order=12)
            assert (got.passed, got.max_err) == oracle


class TestEveryCheckMatchesItsOracle:
    @pytest.mark.parametrize(
        "kwargs", [{"max_order": 12, "gamma_orders": (2, 3, 4, 5, 6, 9)}, {"max_order": 64}]
    )
    def test_passed_and_max_err(self, kwargs):
        results = {r.name: (r.passed, r.max_err) for r in run_verification(**kwargs)}
        max_order = kwargs["max_order"]
        assert results["clock-shift-commutation"] == clock_shift_commutation(max_order)
        assert results["fourier-diag-conjugation"] == fourier_diag_conjugation(max_order)
        assert results["tensor-diag-conjugation"] == tensor_diag_conjugation()
        assert results["block-unitary-permutation-form"] == block_unitary_permutation_form()
        orders = (2, 3, 4, 5, 6)
        assert [results[f"spin-square-{n}"] for n in orders] == spin_squares(orders)


class TestMutantsFail:
    def test_shift_one_power_off(self, monkeypatch):
        def off_by_one(spec, rs):
            rs = np.asarray(rs)
            return shift_stack(spec, np.where(rs >= 2, (rs + 1) % np.array(FourierSpec.of(spec).orders), rs))

        monkeypatch.setattr(verify, "shift_stack", off_by_one)
        assert not check("fourier-diag-conjugation").passed

    def test_shift_vec_with_last_component_negated(self, monkeypatch):
        def negated(spec, rs):
            rs = np.array(rs)
            rs[:, -1] = -rs[:, -1] % FourierSpec.of(spec).orders[-1]
            return shift_stack(spec, rs)

        monkeypatch.setattr(verify, "shift_stack", negated)
        assert not check("tensor-diag-conjugation").passed

    def test_conjugated_clock(self, monkeypatch):
        monkeypatch.setattr(verify, "clock_stack", lambda spec, rs: clock_stack(spec, rs).conj())
        assert not check("clock-shift-commutation").passed

    @staticmethod
    def _mutated_block_unitary(monkeypatch, row, col, mutate):
        def mutant(w):
            m = block_unitary(w)
            m[row, col] = mutate(m[row, col])
            return m

        monkeypatch.setattr(verify, "block_unitary", mutant)
        return check("block-unitary-permutation-form")

    def test_block_unitary_with_an_off_diagonal_block_entry(self, monkeypatch):
        # column 9 lies in block column 1 for every N = 6..9 of TENSOR_SPECS; a 1e-14 entry is
        # below the identity threshold, so only the exact-zero rule for off-diagonal blocks sees it
        result = self._mutated_block_unitary(monkeypatch, 0, 9, lambda x: 1e-14)
        assert not result.passed

    def test_block_unitary_with_a_scaled_diagonal_block_entry(self, monkeypatch):
        result = self._mutated_block_unitary(monkeypatch, 1, 1, lambda x: 2 * x)
        assert not result.passed
        assert result.max_err > 1e-2


class TestCapsCheckedFirst:
    @pytest.mark.parametrize(
        "kwargs,error,message",
        [
            ({"max_order": 65}, OrderOutOfRange, "fourier order must be in [2, 64], got 65"),
            ({"gamma_orders": (36, 37)}, OrderTooLarge, "tower base square capped at dimension 36"),
            ({"gamma_orders": (3, 1)}, OrderOutOfRange, "every factor order must be >= 2, got (1,)"),
            ({"gamma_orders": (65,)}, OrderTooLarge, "product of orders 65 exceeds cap 64"),
            ({"gamma_orders": (37, 1)}, OrderTooLarge, "tower base square capped at dimension 36"),
            ({"max_order": 65, "gamma_orders": (37,)}, OrderOutOfRange, "fourier order must be in [2, 64], got 65"),
        ],
    )
    def test_rejected_before_any_check_runs(self, monkeypatch, kwargs, error, message):
        def never(*args):
            raise AssertionError("a check ran before the caps were checked")

        monkeypatch.setattr(verify, "_fourier_checks", never)
        with pytest.raises(OrderOutOfRange) as info:
            run_verification(**kwargs)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_max_order_at_the_cap_runs(self):
        assert all(r.passed for r in run_verification(max_order=64, gamma_orders=(2,), spin_orders=()))
