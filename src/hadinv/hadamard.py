"""Generators and normal forms for Hadamard matrices built from Fourier tensors.

The letter ``W`` below always denotes a Kronecker product of discrete
Fourier matrices ``F_{n_1} x ... x F_{n_k}``.  One global root-of-unity
convention, ``omega = exp(+2*pi*i/n)``, is used for both the Fourier matrix
and the clock diagonal; the identity and conjugation checks in
:mod:`hadinv.verify` hold exactly under this choice.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    IndexOutOfRange,
    NotDpwForm,
    NotHadamard,
    OrderOutOfRange,
    OrderTooLarge,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _overflow_fails,
    as_matrix,
    complex_permutation_mask,
    dagger,
    tensor,
    unitary_mask,
)

__all__ = [
    "DIM_CAP",
    "TOWER_DIM_CAP",
    "integer_tuple",
    "comma_list",
    "FourierSpec",
    "DpwForm",
    "require_forms",
    "diag_times",
    "realize_forms",
    "fourier",
    "fourier_tensor",
    "clock_vec",
    "shift_vec",
    "clock_stack",
    "shift_stack",
    "hadamard_mask",
    "is_hadamard",
    "require_hadamard",
    "block_unitary",
    "perm_phase_certificate",
    "dpw_parts",
    "decompose_dpw",
    "are_conjugate",
    "block_transpose",
    "is_biunitary",
]

DIM_CAP = 64
# the tower constructions in M_{N^2} (``block_unitary`` and the squares of
# :mod:`hadinv.algebra`) are capped at this N, checked before they allocate
TOWER_DIM_CAP = 36


def integer_tuple(values, error: type[Exception], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints; ``error`` unless every entry is a finite real integer.

    Python and numpy integers pass through ``operator.index`` alone.  Any
    other entry sends the whole sequence through one array check, made
    before the cast, which warns on a complex or non-finite entry and
    truncates 1.7 to 1; integer-valued floats such as ``2.0`` pass.
    """
    entries = tuple(values)
    try:
        return tuple(operator.index(x) for x in entries)
    except TypeError:
        raw = np.asarray(entries)
    if raw.dtype.kind not in "biuf" or not np.isfinite(raw).all() or (raw != np.trunc(raw)).any():
        raise error(f"{what} must be integers, got {raw.tolist()}")
    return tuple(raw.astype(int).tolist())


def comma_list(text: str, convert, error: type[Exception], name: str) -> tuple:
    """``convert`` of each entry of a comma list such as ``"2,3"``; ``error`` naming ``name`` if one fails."""
    try:
        return tuple(map(convert, text.split(",")))
    except ValueError:
        raise error(f"cannot parse {name} {text!r}") from None


@dataclass(frozen=True)
class FourierSpec:
    """Factor orders (n_1, ..., n_k) of a Fourier tensor product."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = integer_tuple(self.orders, OrderOutOfRange, "factor orders")
        object.__setattr__(self, "orders", orders)
        if not orders:
            raise OrderOutOfRange("spec needs at least one factor")
        if any(n < 2 for n in orders):
            raise OrderOutOfRange(f"every factor order must be >= 2, got {orders}")
        if self.dim > DIM_CAP:
            raise OrderTooLarge(f"product of orders {self.dim} exceeds cap {DIM_CAP}")

    @property
    def dim(self) -> int:
        return math.prod(self.orders)

    def require_dim(self, *mats) -> None:
        """``DimMismatch`` unless every matrix, or every matrix of a stack, is ``dim x dim``."""
        if any(m.shape[-1] != self.dim for m in mats):
            raise DimMismatch(f"matrices must have dimension {self.dim} for spec {self.orders}")

    @classmethod
    def of(cls, spec) -> "FourierSpec":
        if isinstance(spec, FourierSpec):
            return spec
        if isinstance(spec, str):  # tuple("64") would read the digits as the orders (6, 4)
            return cls.parse(spec)
        # any scalar (an integer, 4.0, None, a 0-d array) is one order for the integer check
        return cls(spec if np.iterable(spec) else (spec,))

    @classmethod
    def parse(cls, text: str) -> "FourierSpec":
        """Parse a comma list such as ``"2,3"``."""
        return cls(comma_list(text, int, OrderOutOfRange, "spec"))


def fourier(n: int) -> np.ndarray:
    """Discrete Fourier matrix ``(omega^{jk} / sqrt(n))`` with omega = exp(2*pi*i/n)."""
    if not 2 <= n <= DIM_CAP:
        raise OrderOutOfRange(f"fourier order must be in [2, {DIM_CAP}], got {n}")
    omega = np.exp(2j * np.pi / n)
    powers = np.arange(n)
    return omega ** (powers[:, None] * powers) / np.sqrt(n)


def fourier_tensor(spec) -> np.ndarray:
    """Left-to-right Kronecker product of the Fourier matrices of a spec.

    The tensor is built once per spec and cached read-only (one N x N
    matrix per spec, N <= DIM_CAP); each call returns a fresh writable
    copy, so no caller shares or can alter the cached array.
    """
    return _fourier_tensor(FourierSpec.of(spec).orders).copy()


@functools.lru_cache(maxsize=None)
def _fourier_tensor(orders: tuple[int, ...]) -> np.ndarray:
    out = fourier(orders[0])
    for n in orders[1:]:
        out = tensor(out, fourier(n))
    out.flags.writeable = False
    return out


def clock_stack(spec, rs) -> np.ndarray:
    """The clock tensors ``clock_vec(spec, r)`` of the rows r of a ``(B, k)`` array, as a ``(B, N, N)`` stack.

    Each factor's ``(B, n_i, n_i)`` stack of clock powers is built once and
    the factors are joined by the stacked ``tensor``, the product ``np.kron``
    takes, so every entry matches the per-vector Kronecker product bit for
    bit, signed zeros included.
    """
    orders = FourierSpec.of(spec).orders
    factors = []
    for n, k in zip(orders, _exponent_stack(orders, rs).T):
        omega = np.exp(2j * np.pi / n)
        m = np.zeros((len(k), n, n), dtype=complex)
        m.reshape(len(k), -1)[:, :: n + 1] = omega ** (k[:, None] * np.arange(n))
        factors.append(m)
    return functools.reduce(tensor, factors)


def shift_stack(spec, rs) -> np.ndarray:
    """The shift tensors ``shift_vec(spec, r)`` of the rows r of a ``(B, k)`` array, as a ``(B, N, N)`` stack."""
    orders = FourierSpec.of(spec).orders
    factors = []
    for n, k in zip(orders, _exponent_stack(orders, rs).T):
        m = np.zeros((len(k), n, n), dtype=complex)
        rows = np.arange(n)
        m[np.arange(len(k))[:, None], rows, (rows + k[:, None]) % n] = 1.0
        factors.append(m)
    return functools.reduce(tensor, factors)


def clock_vec(spec, r) -> np.ndarray:
    """Kronecker product of the per-factor clock powers ``diag(1, omega_i^{r_i}, omega_i^{2 r_i}, ...)``."""
    return clock_stack(spec, [r])[0]


def shift_vec(spec, r) -> np.ndarray:
    """Kronecker product of the per-factor shift powers, each sending e_j to e_{j - r_i mod n_i}."""
    return shift_stack(spec, [r])[0]


def _exponent_stack(orders: tuple[int, ...], rs) -> np.ndarray:
    """``rs`` as a ``(B, k)`` int array with ``0 <= r_i <= n_i``; ``IndexOutOfRange`` otherwise.

    Entries must be finite real integers (``2.0`` passes, as in
    ``integer_tuple``).  Each message names the first offending vector or
    component.
    """
    try:
        raw = np.asarray(rs)
    except ValueError:  # ragged rows
        raise IndexOutOfRange(f"vectors must all have length {len(orders)}") from None
    if raw.ndim != 2:
        raise IndexOutOfRange(f"expected a stack of vectors, got an array of shape {raw.shape}")
    # ints beyond int64 infer an object array; they are integers, only out of range
    if raw.dtype.kind not in "biu" and not (raw.dtype.kind == "O" and all(type(x) is int for x in raw.flat)):
        bad = ~np.isfinite(raw) | (raw != np.trunc(raw)) if raw.dtype.kind == "f" else np.ones(raw.shape, bool)
        if bad.any():
            row, _ = np.argwhere(bad)[0]
            raise IndexOutOfRange(f"vector components must be integers, got {raw[row].tolist()}")
    if raw.shape[1] != len(orders):
        raise IndexOutOfRange(f"vector length {raw.shape[1]} does not match spec {orders}")
    # compared before the cast, which would wrap a component beyond int64
    bad = (raw < 0) | (raw > np.array(orders))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise IndexOutOfRange(f"component {int(raw[row, col])} out of range for order {orders[col]}")
    return raw.astype(int)


def hadamard_mask(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``is_hadamard`` of each matrix of a stack ``(..., N, N)``, as a boolean array."""
    even = np.abs(np.abs(m) - 1.0 / np.sqrt(m.shape[-1])).max(axis=(-2, -1)) < tol.eps_entry
    return unitary_mask(m, tol) & even


def is_hadamard(m, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when unitary and every entry has modulus ``1/sqrt(N)``, within tolerance."""
    return bool(hadamard_mask(as_matrix(m), tol))


def require_hadamard(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    a = as_matrix(m)
    if not is_hadamard(a, tol):
        raise NotHadamard("matrix is not complex Hadamard within tolerance")
    return a


def block_unitary(u, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Block-diagonal unitary ``(I_N x u) * E`` of dimension N^2.

    ``E`` is diagonal with ``sqrt(N) * conj(u[i, j])`` at entry ``i*N + j``
    (unitary for Hadamard u), so block i equals
    ``u @ diag(sqrt(N) * conj(u[i, :]))``.  For a Fourier tensor input this
    matrix factors as a block-diagonal permutation times ``I_N x u``
    (checked in the verification suite).  N is capped at ``TOWER_DIM_CAP``
    before the dense matrix is built.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if n > TOWER_DIM_CAP:
        raise OrderTooLarge(f"block unitary capped at dimension {TOWER_DIM_CAP}")
    u = require_hadamard(u, tol)
    # right multiplication by the diagonal scales the columns
    return tensor(np.eye(n), u) * (np.sqrt(n) * u.conj().reshape(-1))


def _split_complex_permutation(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a complex permutation matrix, or each of a stack, into (row -> column map, row phases)."""
    perm = np.argmax(np.abs(m), axis=-1)
    phases = np.take_along_axis(m, perm[..., None], axis=-1)[..., 0]
    return perm, phases


@_overflow_fails
def perm_phase_certificate(u, v, tol: ToleranceConfig = DEFAULT_TOL):
    """Certificate that ``v = u @ P @ D`` for a permutation P and diagonal unitary D.

    Computes ``u* v``; when that product is a complex permutation matrix the
    pair generates one and the same subfactor, and the certificate
    ``(perm, phases)`` is returned, with ``D = diag(phases)`` and P the
    permutation matrix whose row i has its 1 at column ``perm[i]``.
    Otherwise returns ``None``, which certifies that the two subfactors are
    distinct.
    """
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape != v.shape:
        raise DimMismatch(f"cannot compare {u.shape} with {v.shape}")
    m = dagger(u) @ v
    # the product is not caller input: an entry that overflowed fails the test, it is not an input error
    if not complex_permutation_mask(m, tol):
        return None
    perm, row_phases = _split_complex_permutation(m)
    # m = P D, so the diagonal phase sits at the column index of each row
    phases = np.zeros(m.shape[0], dtype=complex)
    phases[perm] = row_phases
    return perm, phases


@dataclass(frozen=True)
class DpwForm:
    """Normal form ``diag(phases) @ P @ fourier_tensor(spec)``, row i of P having its 1 at column ``perm[i]``.

    ``tol`` decides the unit-modulus check on the phases; it is not part of
    the form and takes no part in comparisons.
    """

    spec: FourierSpec
    perm: tuple[int, ...]
    phases: tuple[complex, ...]
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self):
        spec = FourierSpec.of(self.spec)
        object.__setattr__(self, "spec", spec)
        perm = integer_tuple(self.perm, ValueError, "perm entries")
        phases = np.asarray(self.phases, dtype=complex)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "phases", tuple(phases.tolist()))
        n = spec.dim
        if np.shape(perm) != (n,) or phases.shape != (n,):
            raise DimMismatch(f"perm/phases must have length {n}")
        require_forms(np.array(perm), phases, self.tol)

    @property
    def dim(self) -> int:
        return self.spec.dim

    def realize(self) -> np.ndarray:
        """The matrix of the form: ``realize_forms`` on a batch of one."""
        return realize_forms([self.perm], [self.phases], self.spec)[0]


def require_forms(perms: np.ndarray, phases: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """The checks of ``DpwForm`` on a whole stack of normal-form parts; ``ValueError`` on a miss.

    Each row of ``perms`` (shape ``(..., N)``) must be a permutation of
    0..N-1, and every entry of ``phases`` must have modulus one within
    ``tol.eps_entry``.
    """
    n = perms.shape[-1]
    if (np.sort(perms, axis=-1) != np.arange(n)).any():
        raise ValueError(f"perm is not a permutation of 0..{n - 1}")
    # written so that a NaN phase, which compares false, fails the test
    if not np.abs(np.abs(phases) - 1.0).max() < tol.eps_entry:
        raise ValueError("phases must have modulus one")


def diag_times(phases, mats) -> np.ndarray:
    """``diag(phases[b]) @ mats[b]`` for each matrix of a stack ``(B, N, N)``.

    Taken as a dense matrix product, not as a row scaling, so every entry
    comes out bit for bit as ``np.diag(phases[b]) @ mats[b]``; the sha256
    goldens of ``hadinv sweep`` pin these bits.
    """
    mats = np.asarray(mats, dtype=complex)
    diag = np.zeros(mats.shape, dtype=complex)
    idx = np.arange(mats.shape[-1])
    diag[:, idx, idx] = phases
    return diag @ mats


def realize_forms(perms, phases, spec) -> np.ndarray:
    """The matrices ``diag(phases[b]) @ P_b @ W`` of a stack of normal forms, ``P_b`` as in ``DpwForm`` for ``perms[b]``."""
    w = _fourier_tensor(FourierSpec.of(spec).orders)
    # row i of P W is row perm[i] of W
    return diag_times(phases, w[np.asarray(perms)])


def dpw_parts(x: np.ndarray, spec: FourierSpec, tol: ToleranceConfig = DEFAULT_TOL):
    """``(is_form, perm, phases)`` of a matrix, or of each of a stack ``(..., N, N)``, already validated.

    The caller has checked that each matrix is Hadamard of dimension
    ``spec.dim``.  ``is_form`` says whether ``x @ W*`` is a complex
    permutation matrix; only there are ``perm`` and ``phases`` the normal
    form ``D @ P @ W``.
    """
    m = x @ dagger(_fourier_tensor(spec.orders))
    return (complex_permutation_mask(m, tol), *_split_complex_permutation(m))


def decompose_dpw(x, spec, tol: ToleranceConfig = DEFAULT_TOL) -> DpwForm:
    """Factor a Hadamard matrix as ``D @ P @ W`` against the spec's Fourier tensor.

    ``x @ W*`` must be a complex permutation matrix; row i then carries the
    phase ``D[i]`` at column ``perm[i]``.  The factorization is unique.
    """
    spec = FourierSpec.of(spec)
    x = require_hadamard(x, tol)
    if x.shape[0] != spec.dim:
        raise DimMismatch(f"matrix dimension {x.shape[0]} does not match spec {spec.orders}")
    is_form, perm, phases = dpw_parts(x, spec, tol)
    if not is_form:
        raise NotDpwForm("input is not diagonal * permutation * Fourier tensor for this spec")
    return DpwForm(spec=spec, perm=perm, phases=phases, tol=tol)


def are_conjugate(x, y, spec, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when both normal forms share one permutation.

    Equality of the permutation parts certifies that the two subfactors are
    conjugate by an inner automorphism (implemented by the quotient of the
    two diagonals).  Raises ``NotDpwForm`` when either input fails to
    decompose.
    """
    fx = decompose_dpw(x, spec, tol)
    fy = decompose_dpw(y, spec, tol)
    return fx.perm == fy.perm


def block_transpose(m, n: int, k: int) -> np.ndarray:
    """Swap the outer (M_n) indices of ``m`` in ``M_n x M_k``, fixing the inner ones."""
    m = as_matrix(m)
    if m.shape[0] != n * k:
        raise DimMismatch(f"dimension {m.shape[0]} is not {n}*{k}")
    return m.reshape(n, k, n, k).transpose(2, 1, 0, 3).reshape(n * k, n * k)


def is_biunitary(m, n: int, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Unitary whose block-transpose is also unitary."""
    return bool(unitary_mask(np.stack([as_matrix(m), block_transpose(m, n, k)]), tol).all())
