"""Deterministic verification suite over the package's structural identities.

Each check reports its worst absolute error and a pass flag at the 1e-10
threshold; the identities are exact in exact arithmetic, so a failure here
means a bug, not conditioning.  The suite is pure and ordered, so repeated
runs print byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    TOWER_NONDEG_CAP,
    diag_conj_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    is_commuting_square,
    scalar_algebra,
    vertex_model_square,
)
from .errors import OrderOutOfRange
from .groups import elements
from .hadamard import (
    FourierSpec,
    block_unitary,
    clock,
    clock_vec,
    fourier,
    fourier_tensor,
    realize_forms,
    shift,
    shift_vec,
)
from .invariants import random_conjugate_pair
from .linalg import DEFAULT_TOL, ToleranceConfig, classify, dagger

__all__ = ["CheckResult", "run_verification", "IDENTITY_THRESHOLD"]

IDENTITY_THRESHOLD = 1e-10

TENSOR_SPECS = ((2, 3), (2, 2, 2), (3, 3), (2, 4))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.name}: max err {self.max_err:.2e} {status}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def _clock_shift_commutation(max_order: int) -> CheckResult:
    worst = 0.0
    for n in range(2, max_order + 1):
        f = fourier(n)
        worst = max(worst, float(np.abs(clock(n, 1) @ f - f @ shift(n, n - 1)).max()))
        worst = max(worst, float(np.abs(shift(n, 1) @ f - f @ clock(n, 1)).max()))
    return CheckResult("clock-shift-commutation", worst <= IDENTITY_THRESHOLD, worst)


def _fourier_diag_conjugation(max_order: int) -> CheckResult:
    worst = 0.0
    for n in range(2, max_order + 1):
        f = fourier(n)
        fstar = dagger(f)
        for k in range(n):
            d = clock(n, k)
            worst = max(worst, float(np.abs(f @ d @ fstar - shift(n, k)).max()))
            worst = max(worst, float(np.abs(fstar @ d @ f - shift(n, (n - k) % n)).max()))
    return CheckResult("fourier-diag-conjugation", worst <= IDENTITY_THRESHOLD, worst)


def _tensor_diag_conjugation() -> CheckResult:
    worst = 0.0
    for orders in TENSOR_SPECS:
        spec = FourierSpec(orders)
        w = fourier_tensor(spec)
        wstar = dagger(w)
        for r in elements(orders):
            d = clock_vec(spec, r)
            nr = tuple((n - x) % n for n, x in zip(orders, r))
            worst = max(worst, float(np.abs(w @ d @ wstar - shift_vec(spec, r)).max()))
            worst = max(worst, float(np.abs(wstar @ d @ w - shift_vec(spec, nr)).max()))
    return CheckResult("tensor-diag-conjugation", worst <= IDENTITY_THRESHOLD, worst)


def _block_unitary_permutation_form() -> CheckResult:
    """block_unitary(W) equals P (I x W) with P a block-diagonal permutation."""
    worst = 0.0
    ok = True
    for orders in TENSOR_SPECS:
        spec = FourierSpec(orders)
        w = fourier_tensor(spec)
        n = spec.dim
        p = block_unitary(w) @ dagger(np.kron(np.eye(n), w))
        ok = ok and classify(p).permutation
        worst = max(worst, float(np.abs(p - np.round(p.real)).max()))
        blocks = p.reshape(n, n, n, n).transpose(0, 2, 1, 3)
        worst = max(worst, float(np.abs(blocks[~np.eye(n, dtype=bool)]).max()))
    return CheckResult("block-unitary-permutation-form", ok and worst <= IDENTITY_THRESHOLD, worst)


def _spin_squares(orders, tol: ToleranceConfig) -> list[CheckResult]:
    rng = np.random.default_rng(0)
    out = []
    for n in orders:
        f = fourier(n)
        # the phases are drawn before the permutation
        phases = np.exp(2j * np.pi * rng.random(n))
        (dpw,) = realize_forms([rng.permutation(n)], [phases], (n,))
        worst = 0.0
        ok = True
        for u in (f, dpw):
            square = is_commuting_square(
                scalar_algebra(n),
                diag_conj_algebra(u, tol),
                diagonal_algebra(n),
                full_matrix_algebra(n),
                tol,
            )
            ok = ok and square.commuting and bool(square.nondegenerate)
            worst = max(worst, square.max_commuting_err)
        out.append(CheckResult(f"spin-square-{n}", ok, worst))
    return out


def _tower_base_squares(gamma_orders, tol: ToleranceConfig) -> list[CheckResult]:
    rng = np.random.default_rng(0)
    out = []
    for n in gamma_orders:
        spec = FourierSpec((n,))
        w = fourier_tensor(spec)
        u, _ = random_conjugate_pair(spec, rng)
        skipped = n > TOWER_NONDEG_CAP
        results = [vertex_model_square(candidate, spec, tol) for candidate in (w, u)]
        ok = all(r.commuting and (skipped or r.nondegenerate) and r.relcomm_dim == n for r in results)
        worst = max(r.max_commuting_err for r in results)
        detail = f"relcomm dims {results[0].relcomm_dim},{results[1].relcomm_dim}"
        if skipped:
            detail += "; nondegeneracy skipped"
        out.append(CheckResult(f"tower-base-square-{n}", ok, worst, detail))
    return out


def run_verification(
    max_order: int = 12,
    gamma_orders=(2, 3, 4),
    spin_orders=(2, 3, 4, 5, 6),
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[CheckResult]:
    """Run every structural check and return the ordered result list."""
    if max_order < 2:  # the order sweeps would check nothing and pass vacuously
        raise OrderOutOfRange(f"max order must be at least 2, got {max_order}")
    results = [
        _clock_shift_commutation(max_order),
        _fourier_diag_conjugation(max_order),
        _tensor_diag_conjugation(),
        _block_unitary_permutation_form(),
    ]
    results.extend(_spin_squares(spin_orders, tol))
    results.extend(_tower_base_squares(gamma_orders, tol))
    return results
