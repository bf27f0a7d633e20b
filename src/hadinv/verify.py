"""Deterministic verification suite over the package's structural identities.

Each check reports its worst absolute error and a pass flag at the 1e-10
threshold; the identities are exact in exact arithmetic, so a failure here
means a bug, not conditioning.  Each identity is checked on the stack of
all powers of one order, or of all r of one spec, in one batched product.
The stacks come from one ``clock_stack`` and one ``shift_stack`` call per
order or spec; each order's stacks, ``F_n`` and each spec's Fourier tensor
are built once per run, and both spin squares of an order are checked in
one ``commuting_squares`` pass, whose nondegeneracy is the count
``n * n == dim M_n`` (the commuting error being far inside the count's
bound).  The block-unitary form is checked on the N diagonal blocks of
``block_unitary(W)``, each times ``W*``, with the off-diagonal blocks
exactly zero; the dense ``N^2 x N^2`` product is the test oracle.  The
suite is pure and ordered, so repeated runs print byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    TOWER_NONDEG_CAP,
    _tower_spec,
    commuting_squares,
    diag_conj_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    scalar_algebra,
    vertex_model_square,
)
from .errors import OrderOutOfRange
from .hadamard import (
    DIM_CAP,
    FourierSpec,
    block_unitary,
    clock_stack,
    fourier,
    fourier_tensor,
    realize_forms,
    shift_stack,
)
from .invariants import random_conjugate_pair
from .linalg import DEFAULT_TOL, ToleranceConfig, dagger, permutation_mask

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


def _conjugation_err(w, diags, shifts, inverse) -> float:
    """Worst entry of ``W D_r W* - S_r`` and ``W* D_r W - S_{-r}`` over stacks of all r."""
    wstar = dagger(w)
    return max(
        float(np.abs(w @ diags @ wstar - shifts).max()),
        float(np.abs(wstar @ diags @ w - shifts[inverse]).max()),
    )


def _fourier_checks(fouriers) -> list[CheckResult]:
    """``clock-shift-commutation`` and ``fourier-diag-conjugation``, from one pair of k = 0..n-1 stacks per order."""
    commutation = 0.0
    conjugation = 0.0
    for f in fouriers:
        n = f.shape[0]
        powers = np.arange(n)[:, None]
        clocks = clock_stack((n,), powers)
        shifts = shift_stack((n,), powers)
        commutation = max(commutation, float(np.abs(clocks[1] @ f - f @ shifts[n - 1]).max()))
        commutation = max(commutation, float(np.abs(shifts[1] @ f - f @ clocks[1]).max()))
        # the power n - k of the shift is row (-k) % n of the same stack
        conjugation = max(conjugation, _conjugation_err(f, clocks, shifts, -np.arange(n) % n))
    return [
        CheckResult("clock-shift-commutation", commutation <= IDENTITY_THRESHOLD, commutation),
        CheckResult("fourier-diag-conjugation", conjugation <= IDENTITY_THRESHOLD, conjugation),
    ]


def _tensor_diag_conjugation(tensors) -> CheckResult:
    worst = 0.0
    for spec, w in tensors:
        # every r of the group in lexicographic order, one row each
        rs = np.indices(spec.orders).reshape(len(spec.orders), -1).T
        # so -r sits at the flat index of -r mod the orders
        inverse = np.ravel_multi_index(tuple(-rs.T), spec.orders, mode="wrap")
        worst = max(worst, _conjugation_err(w, clock_stack(spec, rs), shift_stack(spec, rs), inverse))
    return CheckResult("tensor-diag-conjugation", worst <= IDENTITY_THRESHOLD, worst)


def _block_unitary_permutation_form(tensors) -> CheckResult:
    """block_unitary(W) equals P (I x W) with P a block-diagonal permutation.

    Block (i, j) of ``block_unitary(W) (I x W)*`` is block (i, j) of
    ``block_unitary(W)`` times ``W*``, so the off-diagonal blocks of
    ``block_unitary(W)`` must be exactly zero and each diagonal block
    times ``W*`` a permutation: N products in M_N, not one in M_{N^2}.
    """
    worst = 0.0
    ok = True
    for spec, w in tensors:
        n = spec.dim
        blocks = block_unitary(w).reshape(n, n, n, n).transpose(0, 2, 1, 3)
        off = float(np.abs(blocks[~np.eye(n, dtype=bool)]).max())
        p = blocks[np.arange(n), np.arange(n)] @ dagger(w)
        ok = ok and off == 0.0 and bool(permutation_mask(p).all())
        worst = max(worst, off, float(np.abs(p - np.round(p.real)).max()))
    return CheckResult("block-unitary-permutation-form", ok and worst <= IDENTITY_THRESHOLD, worst)


def _spin_squares(orders, fouriers, tol: ToleranceConfig) -> list[CheckResult]:
    """The spin squares of ``F_n`` and of a random DPW matrix of each order, both in one stacked pass."""
    rng = np.random.default_rng(0)
    out = []
    for n in orders:
        # the phases are drawn before the permutation
        phases = np.exp(2j * np.pi * rng.random(n))
        (dpw,) = realize_forms([rng.permutation(n)], [phases], (n,))
        squares = commuting_squares(
            scalar_algebra(n),
            [diag_conj_algebra(u, tol) for u in (fouriers[n], dpw)],
            diagonal_algebra(n),
            full_matrix_algebra(n),
            tol,
        )
        ok = all(square.commuting and bool(square.nondegenerate) for square in squares)
        worst = max(0.0, *(square.max_commuting_err for square in squares))
        out.append(CheckResult(f"spin-square-{n}", ok, worst))
    return out


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
    tower_specs = [_tower_spec((n,)) for n in gamma_orders]

    fouriers = {n: fourier(n) for n in {*range(2, max_order + 1), *spin_orders}}
    sweep = [fouriers[n] for n in range(2, max_order + 1)]
    tensors = [(spec, fourier_tensor(spec)) for spec in map(FourierSpec, TENSOR_SPECS)]
    results = [
        *_fourier_checks(sweep),
        _tensor_diag_conjugation(tensors),
        _block_unitary_permutation_form(tensors),
    ]
    results.extend(_spin_squares(spin_orders, fouriers, tol))
    results.extend(_tower_base_squares(tower_specs, tol))
    return results
