"""Dense complex matrix kernel over the normalized trace inner product.

Everything else in the package is built on this module: Kronecker products
(of two matrices or of two stacks), the single-flag predicates
``is_unitary`` and ``is_complex_permutation`` (with ``unitary_mask`` and
``complex_permutation_mask``, their forms over stacks of matrices, and
``permutation_mask``), structural classification (all flags at once,
composed from those predicates), Gram-Schmidt orthonormalization in the
inner product ``<A, B> = tr(B* A) / N``, and subspace intersection via a
stacked null-space computation.

Matrices are plain complex ndarrays.  Comparisons are absolute and
per-entry; all identities checked downstream are exact in exact arithmetic,
so a failure at the default thresholds signals a bug rather than
conditioning.  Indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "EPS_RANK",
    "MatrixClass",
    "as_matrix",
    "as_stack",
    "dagger",
    "tensor",
    "unitary_mask",
    "is_unitary",
    "complex_permutation_mask",
    "is_complex_permutation",
    "permutation_mask",
    "classify",
    "orthonormal_basis",
    "nullspace",
    "subspace_intersection",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """``eps_entry``, the absolute per-entry comparison threshold."""

    eps_entry: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.eps_entry < 1e-2:
            raise ValueError(f"eps_entry must lie in (0, 1e-2), got {self.eps_entry!r}")


DEFAULT_TOL = ToleranceConfig()

# the pivot of every rank cut (SVD, Gram-Schmidt, null spaces); a constant,
# as ``--tolerance`` moves only eps_entry, and span membership reads eps_entry
EPS_RANK = 1e-8
# the state of the kernels that multiply caller matrices: an inf or NaN product of huge finite
# entries fails every threshold; as a decorator (numpy >= 2) it sets a fresh state on every call
_overflow_fails = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class MatrixClass:
    """Structural flags of a square matrix, each decided within eps_entry.

    ``complex_permutation`` means exactly one entry of modulus one per row
    and per column with every other entry negligible; ``permutation``
    additionally requires the surviving entries to equal one.
    """

    unitary: bool = False
    diagonal: bool = False
    permutation: bool = False
    complex_permutation: bool = False
    selfadjoint: bool = False
    projection: bool = False


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex ndarray with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def as_stack(m) -> np.ndarray:
    """Coerce to a stack ``(B, N, N)`` of square complex matrices with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack."""
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def tensor(a, b) -> np.ndarray:
    """Kronecker product, of two matrices or of each pair of two stacks; block (i, j) equals ``a[..., i, j] * b``.

    The broadcast product ``np.kron`` takes, without its per-call overhead,
    so every entry matches ``np.kron`` bit for bit, signed zeros included.
    The stack axes broadcast as in any numpy product.
    """
    a, b = (as_stack(x) if np.ndim(x) == 3 else as_matrix(x) for x in (a, b))
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-1] * b.shape[-1], -1)


@_overflow_fails
def unitary_mask(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``is_unitary`` of each matrix of a stack ``(..., N, N)``, as a boolean array."""
    err = np.abs(m @ dagger(m) - np.eye(m.shape[-1])).max(axis=(-2, -1))
    return err < tol.eps_entry


def is_unitary(m, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when ``m m*`` equals the identity entrywise within ``tol.eps_entry``."""
    return bool(unitary_mask(as_matrix(m), tol))


def complex_permutation_mask(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``is_complex_permutation`` of each matrix of a stack ``(..., N, N)``, as a boolean array."""
    mag = np.abs(m)
    return _monomial_mask(mag > tol.eps_entry, np.abs(mag - 1.0), tol)


def _monomial_mask(big: np.ndarray, off: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Exactly one ``big`` entry per row and per column of each matrix, each with ``off`` below eps_entry."""
    one_each = (big.sum(axis=-2) == 1).all(axis=-1) & (big.sum(axis=-1) == 1).all(axis=-1)
    return one_each & (np.where(big, off, 0.0).max(axis=(-2, -1)) < tol.eps_entry)


def is_complex_permutation(m, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when every row and column has exactly one entry above ``tol.eps_entry``, of modulus one."""
    return bool(complex_permutation_mask(as_matrix(m), tol))


def permutation_mask(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Whether each matrix of a stack ``(..., N, N)`` is a permutation matrix, as a boolean array.

    One entry per row and per column above ``tol.eps_entry``, each within
    ``tol.eps_entry`` of one (hence of modulus one); ``classify`` reads its
    ``permutation`` flag here.
    """
    return _monomial_mask(np.abs(m) > tol.eps_entry, np.abs(m - 1.0), tol)


@_overflow_fails
def classify(m, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixClass:
    """Classify a matrix by per-entry comparison within ``tol.eps_entry``."""
    a = as_matrix(m)
    eps = tol.eps_entry
    complex_permutation = is_complex_permutation(a, tol)
    selfadjoint = bool(np.abs(a - dagger(a)).max() < eps)
    return MatrixClass(
        unitary=is_unitary(a, tol),
        diagonal=bool(np.abs(a - np.diag(np.diag(a))).max() < eps),
        permutation=bool(permutation_mask(a, tol)),
        complex_permutation=complex_permutation,
        selfadjoint=selfadjoint,
        projection=selfadjoint and bool(np.abs(a @ a - a).max() < eps),
    )


def orthonormal_basis(mats) -> list[np.ndarray]:
    """Gram-Schmidt in the trace inner product.

    Returns a trace-orthonormal basis of the span of ``mats``; vectors whose
    post-projection norm falls below ``EPS_RANK`` are discarded, so the
    output length is the rank of the input family.
    """
    basis: list[np.ndarray] = []
    for m in mats:
        v = as_matrix(m)
        if basis and v.shape != basis[0].shape:
            raise DimMismatch("all matrices must share one dimension")
        n = v.shape[0]
        # second projection pass controls roundoff from nearly dependent inputs
        for _ in range(2):
            for g in basis:
                v = v - (np.vdot(g, v) / n) * g
        norm = float(np.sqrt(np.vdot(v, v).real / n))
        if norm > EPS_RANK:
            basis.append(v / norm)
    return basis


def nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis, as columns, of an (possibly tall) matrix; the rank cut is ``EPS_RANK``."""
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    # reduced SVD suffices for tall systems; wide ones need the full V for
    # the kernel rows beyond min(rows, cols)
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    rank = int((s > EPS_RANK).sum())
    return vh[rank:].conj().T


def subspace_intersection(a, b) -> list[np.ndarray]:
    """Trace-orthonormal basis of ``span(a) & span(b)``.

    Flattens the matrices to vectors, stacks the coefficient system
    ``[A | -B]``, computes its kernel, and maps the A-side kernel
    coordinates back to matrices.  The dimension of the result is invariant
    under permutations of either input family.
    """
    abasis = orthonormal_basis(a)
    bbasis = orthonormal_basis(b)
    if not abasis or not bbasis:
        return []
    if abasis[0].shape != bbasis[0].shape:
        raise DimMismatch("subspace intersection needs one ambient dimension")

    stacked = np.stack([m.reshape(-1) for m in abasis] + [-m.reshape(-1) for m in bbasis], axis=1)
    kernel = nullspace(stacked)

    astack = np.stack(abasis)
    members = [np.tensordot(coeff[: len(abasis)], astack, axes=1) for coeff in kernel.T]
    return orthonormal_basis(members)
