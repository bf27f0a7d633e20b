"""Deterministic verification suite over the package's structural identities.

Each check reports its worst absolute error and a pass flag at the 1e-10
threshold; the identities are exact in exact arithmetic, so a failure here
means a bug, not conditioning.  Each identity is checked on the stack of
all powers of one order, or of all r of one spec, in one batched product;
the constructors are still called once per power, and each ``F_n`` and
each spec's Fourier tensor is built once per run.  The suite is pure and
ordered, so repeated runs print byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    TOWER_DIM_CAP,
    TOWER_NONDEG_CAP,
    diag_conj_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    is_commuting_square,
    scalar_algebra,
    vertex_model_square,
)
from .errors import OrderOutOfRange, OrderTooLarge
from .groups import elements
from .hadamard import (
    DIM_CAP,
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
from .linalg import DEFAULT_TOL, ToleranceConfig, classify, dagger, tensor

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


def _clock_shift_commutation(fouriers) -> CheckResult:
    worst = 0.0
    for f in fouriers:
        n = f.shape[0]
        worst = max(worst, float(np.abs(clock(n, 1) @ f - f @ shift(n, n - 1)).max()))
        worst = max(worst, float(np.abs(shift(n, 1) @ f - f @ clock(n, 1)).max()))
    return CheckResult("clock-shift-commutation", worst <= IDENTITY_THRESHOLD, worst)


def _conjugation_err(w, diags, shifts, inverse) -> float:
    """Worst entry of ``W D_r W* - S_r`` and ``W* D_r W - S_{-r}`` over stacks of all r."""
    wstar = dagger(w)
    return max(
        float(np.abs(w @ diags @ wstar - shifts).max()),
        float(np.abs(wstar @ diags @ w - shifts[inverse]).max()),
    )


def _fourier_diag_conjugation(fouriers) -> CheckResult:
    worst = 0.0
    for f in fouriers:
        n = f.shape[0]
        diags = np.stack([clock(n, k) for k in range(n)])
        shifts = np.stack([shift(n, k) for k in range(n)])
        # the power n - k of the shift is row (-k) % n of the same stack
        worst = max(worst, _conjugation_err(f, diags, shifts, -np.arange(n) % n))
    return CheckResult("fourier-diag-conjugation", worst <= IDENTITY_THRESHOLD, worst)


def _tensor_diag_conjugation(tensors) -> CheckResult:
    worst = 0.0
    for spec, w in tensors:
        rs = elements(spec.orders)
        diags = np.stack([clock_vec(spec, r) for r in rs])
        shifts = np.stack([shift_vec(spec, r) for r in rs])
        # the elements are in lexicographic order, so -r sits at the flat index of -r mod the orders
        inverse = np.ravel_multi_index(-np.array(rs).T, spec.orders, mode="wrap")
        worst = max(worst, _conjugation_err(w, diags, shifts, inverse))
    return CheckResult("tensor-diag-conjugation", worst <= IDENTITY_THRESHOLD, worst)


def _block_unitary_permutation_form(tensors) -> CheckResult:
    """block_unitary(W) equals P (I x W) with P a block-diagonal permutation."""
    worst = 0.0
    ok = True
    for spec, w in tensors:
        n = spec.dim
        p = block_unitary(w) @ dagger(tensor(np.eye(n), w))
        ok = ok and classify(p).permutation
        worst = max(worst, float(np.abs(p - np.round(p.real)).max()))
        blocks = p.reshape(n, n, n, n).transpose(0, 2, 1, 3)
        worst = max(worst, float(np.abs(blocks[~np.eye(n, dtype=bool)]).max()))
    return CheckResult("block-unitary-permutation-form", ok and worst <= IDENTITY_THRESHOLD, worst)


def _spin_squares(orders, fouriers, tol: ToleranceConfig) -> list[CheckResult]:
    rng = np.random.default_rng(0)
    out = []
    for n in orders:
        f = fouriers[n]
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


def _tower_spec(n: int) -> FourierSpec:
    """The spec of gamma order n, with the errors ``vertex_model_square`` would raise on it."""
    spec = FourierSpec((n,))
    if n > TOWER_DIM_CAP:
        raise OrderTooLarge(f"tower base square capped at dimension {TOWER_DIM_CAP}")
    return spec


def _tower_base_squares(specs, tol: ToleranceConfig) -> list[CheckResult]:
    rng = np.random.default_rng(0)
    out = []
    for spec in specs:
        n = spec.dim
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
    """Run every structural check and return the ordered result list.

    The order caps are checked before any check runs: ``max_order`` in
    ``[2, DIM_CAP]`` and every gamma order in ``[2, TOWER_DIM_CAP]``.
    """
    if max_order < 2:  # the order sweeps would check nothing and pass vacuously
        raise OrderOutOfRange(f"max order must be at least 2, got {max_order}")
    if max_order > DIM_CAP:
        raise OrderOutOfRange(f"fourier order must be in [2, {DIM_CAP}], got {max_order}")
    tower_specs = [_tower_spec(n) for n in gamma_orders]

    fouriers = {n: fourier(n) for n in {*range(2, max_order + 1), *spin_orders}}
    sweep = [fouriers[n] for n in range(2, max_order + 1)]
    tensors = [(spec, fourier_tensor(spec)) for spec in map(FourierSpec, TENSOR_SPECS)]
    results = [
        _clock_shift_commutation(sweep),
        _fourier_diag_conjugation(sweep),
        _tensor_diag_conjugation(tensors),
        _block_unitary_permutation_form(tensors),
    ]
    results.extend(_spin_squares(spin_orders, fouriers, tol))
    results.extend(_tower_base_squares(tower_specs, tol))
    return results
