"""Finite-dimensional *-algebra machinery inside M_n.

An algebra is carried by a trace-orthonormal basis.  On top of that sit the
trace-preserving conditional expectation (``AlgebraBasis.project_many``,
the orthogonal projection in the trace inner product, which is the unique
trace-preserving expectation onto a *-subalgebra in finite dimension),
commutants via a stacked commutator kernel, algebra intersection and the
commuting-square test (``commuting_squares``, stacked over a batch of left
algebras; ``is_commuting_square`` is its batch of one), whose nesting, as
all span containment, is judged at ``eps_entry`` (``_span_contained``).  The base square
of the vertex-model tower of a Hadamard matrix sits in M_{N^2} but is block
diagonal, so it is computed on its N diagonal blocks in M_N; it commutes
exactly when the expectation onto ``I x M_N`` maps the right algebra into
the scalars (``E_L(R) ⊆ C``), and its relative commutant is the order of
an annihilator of Fourier supports.  The dense routes stay as its oracle.
A square with scalar corner that commutes within ``_count_bound`` is
nondegenerate exactly when ``dim L * dim R`` is the ambient dimension, as
the products of orthonormal bases of L and R are then linearly
independent; the rank of the products is taken by SVD only outside that
lemma, and the SVD route stays as the test oracle of the count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InclusionViolation, NonUnitary, OrderTooLarge
from .groups import annihilator_mask, inverse_dft
from .hadamard import TOWER_DIM_CAP, FourierSpec, fourier_tensor, require_hadamard
from .linalg import (
    DEFAULT_TOL,
    EPS_RANK,
    ToleranceConfig,
    as_matrix,
    dagger,
    is_unitary,
    nullspace,
    orthonormal_basis,
    subspace_intersection,
    tensor,
)

__all__ = [
    "AlgebraBasis",
    "span_algebra",
    "scalar_algebra",
    "diagonal_algebra",
    "full_matrix_algebra",
    "tensor_algebra",
    "commutant",
    "intersect_algebras",
    "diag_conj_algebra",
    "SquareResult",
    "commuting_squares",
    "is_commuting_square",
    "vertex_square",
    "TowerBaseResult",
    "vertex_model_square",
]

# the tower's nondegeneracy is decided only up to this matrix dimension N;
# beyond it the flag is reported as skipped
TOWER_NONDEG_CAP = 5


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """Trace-orthonormal basis of a subspace of M_n, stacked as (dim, n, n).

    Instances are produced by the factories in this module, which guarantee
    (or verify, see ``span_algebra``) that the span is a unital *-algebra.
    The array is frozen after construction and safe to share.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.basis, dtype=complex)
        if arr.ndim != 3 or arr.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise DimMismatch(
                f"basis must have shape (dim, {self.ambient_dim}, {self.ambient_dim})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "basis", arr)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def flat(self) -> np.ndarray:
        return self.basis.reshape(self.dim, -1)

    def project_many(self, flat_mats: np.ndarray) -> np.ndarray:
        """Conditional expectation applied to rows of flattened matrices."""
        return _project(flat_mats, self.flat, self.ambient_dim)

    def contains(self, m) -> bool:
        m = as_matrix(m)
        if m.shape[0] != self.ambient_dim:
            raise DimMismatch("dimension mismatch in span membership test")
        return bool(_span_contained(m.reshape(1, -1), self.flat, self.ambient_dim, DEFAULT_TOL))


def _verify_algebra(stack: np.ndarray, n: int):
    """Assert orthonormality, and that the span holds the identity, the adjoints and the products (``_span_contained``)."""
    dim = stack.shape[0]
    flat = stack.reshape(dim, -1)
    gram = flat @ flat.conj().T / n
    if np.abs(gram - np.eye(dim)).max() > 1e-10:
        raise ValueError("basis is not trace-orthonormal")

    def contained(mats: np.ndarray) -> bool:
        return bool(_span_contained(mats.reshape(len(mats), -1), flat, n, DEFAULT_TOL))

    if not contained(np.eye(n, dtype=complex)[None]):
        raise ValueError("identity is not in the span of a unital algebra basis")
    if not contained(stack.conj().transpose(0, 2, 1)):
        raise ValueError("span is not closed under adjoints")
    if not all(contained(stack[i] @ stack) for i in range(dim)):
        raise ValueError("span is not closed under multiplication")


def span_algebra(mats, ambient_dim: int) -> AlgebraBasis:
    """Orthonormalize a spanning family of matrices in M_{ambient_dim} and wrap it as an algebra basis.

    The span is verified to contain the identity and to be closed under
    adjoints and products; an empty family spans the scalars.  Factories
    whose output is closed by construction build ``AlgebraBasis`` directly.
    """
    basis = orthonormal_basis(mats) or [np.eye(ambient_dim, dtype=complex)]
    n = basis[0].shape[0]
    if n != ambient_dim:
        raise DimMismatch(f"expected ambient dimension {ambient_dim}, got {n}")
    stack = np.stack(basis)
    _verify_algebra(stack, n)
    return AlgebraBasis(ambient_dim=n, basis=stack)


def scalar_algebra(n: int) -> AlgebraBasis:
    """The scalars C inside M_n."""
    return AlgebraBasis(ambient_dim=n, basis=np.eye(n, dtype=complex)[None, :, :])


def diagonal_algebra(n: int) -> AlgebraBasis:
    """The diagonal algebra, with basis ``sqrt(n) * E_ii``."""
    stack = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    stack[idx, idx, idx] = np.sqrt(n)
    return AlgebraBasis(ambient_dim=n, basis=stack)


def full_matrix_algebra(n: int) -> AlgebraBasis:
    """All of M_n, with basis ``sqrt(n) * E_ij``."""
    stack = np.zeros((n * n, n, n), dtype=complex)
    k = np.arange(n * n)
    stack[k, k // n, k % n] = np.sqrt(n)
    return AlgebraBasis(ambient_dim=n, basis=stack)


def tensor_algebra(a: AlgebraBasis, b: AlgebraBasis) -> AlgebraBasis:
    """Kronecker product algebra; tensors of orthonormal bases stay orthonormal."""
    stack = np.stack([tensor(x, y) for x in a.basis for y in b.basis])
    return AlgebraBasis(ambient_dim=a.ambient_dim * b.ambient_dim, basis=stack)


def commutant(algebra: AlgebraBasis, ambient: AlgebraBasis) -> AlgebraBasis:
    """Elements of the ambient span commuting with every basis element.

    Writes the candidate as ``x = sum c_k g_k`` over the ambient basis,
    stacks the commutator of each g_k with each algebra basis element into
    one linear system in the coefficients c, and maps the kernel of that
    system back through the ambient basis.
    """
    if algebra.ambient_dim != ambient.ambient_dim:
        raise DimMismatch("commutant needs both algebras in one matrix dimension")
    cols = []
    for g in ambient.basis:
        rows = [(g @ a - a @ g).reshape(-1) for a in algebra.basis]
        cols.append(np.concatenate(rows))
    system = np.stack(cols, axis=1)
    kernel = nullspace(system)
    members = [np.tensordot(coeff, ambient.basis, axes=1) for coeff in kernel.T]
    return span_algebra(members, ambient.ambient_dim)


def intersect_algebras(a: AlgebraBasis, b: AlgebraBasis) -> AlgebraBasis:
    """Intersection of two algebra spans, re-verified as a unital *-algebra."""
    if a.ambient_dim != b.ambient_dim:
        raise DimMismatch("intersection needs one ambient dimension")
    members = subspace_intersection(list(a.basis), list(b.basis))
    return span_algebra(members, a.ambient_dim)


def diag_conj_algebra(u, tol: ToleranceConfig = DEFAULT_TOL) -> AlgebraBasis:
    """The conjugated diagonal algebra ``u Delta_n u*`` for a unitary u."""
    u = as_matrix(u)
    if not is_unitary(u, tol):
        raise NonUnitary("diagonal conjugation needs a unitary matrix")
    n = u.shape[0]
    # u E_ii u* is the outer product of column i; conjugation keeps the basis orthonormal
    cols = u.T
    stack = np.sqrt(n) * (cols[:, :, None] * cols.conj()[:, None, :])
    return AlgebraBasis(ambient_dim=n, basis=stack)


@dataclass(frozen=True)
class SquareResult:
    """Outcome of a commuting-square test."""

    commuting: bool
    nondegenerate: bool
    max_commuting_err: float


def _project(flat_mats: np.ndarray, basis_flat: np.ndarray, n: int) -> np.ndarray:
    """``project_many`` onto the basis rows ``basis_flat`` ``(..., dim, n^2)``, for one basis or a stack."""
    coeffs = flat_mats @ np.swapaxes(basis_flat.conj(), -1, -2) / n
    return coeffs @ basis_flat


def _span_contained(inner: np.ndarray, outer: np.ndarray, n: int, tol: ToleranceConfig) -> np.ndarray:
    """Whether the rows of ``inner`` lie in the span of the rows of ``outer``, per stacked basis.

    A row x lies in it when ``|x - E(x)|_2 < sqrt(n) eps (2 + n eps)``, ``eps = tol.eps_entry``,
    ``|y|_2 = (tr(y* y) / n)^(1/2)``, E the expectation onto ``outer`` read as trace-orthonormal.
    Exact algebras hold their members to rounding.  ``u B u*`` with B exact and u admitted by
    ``is_unitary`` (every entry of ``F = u u* - 1`` below eps; ``F' = u* u - 1`` has its spectrum)
    has ``E(x) = u E_B(u* x u) u*``, so ``1 - E(1) = -F - u E_B(F') u*``, where E_B contracts,
    ``|F|_2 = |F'|_2 < sqrt(n) eps`` and ``|u|_op^2 < 1 + n eps``, a row sum of ``|F|``: the unit
    lies in a spin or vertex square's left algebra at the tolerance that admitted u.
    """
    res = inner - _project(inner, outer, n)
    worst = np.sqrt((np.abs(res) ** 2).sum(axis=-1) / n)
    return worst.max(axis=-1, initial=0.0) < np.sqrt(n) * tol.eps_entry * (2 + n * tol.eps_entry)


def _count_bound(products: int, n: int, measured: int) -> float:
    """The commuting error up to which a square with scalar corner is nondegenerate iff ``products == dim ambient``.

    Let ``l_i`` and ``r_j`` be trace-orthonormal bases of L and R in M_n,
    ``tau = tr / n`` and ``|x|_2 = tau(x* x)^(1/2)``.  For x in L and y in
    R, ``tau(x y) = tau(x E_L(y))``, and with the corner C the scalars
    ``E_C(y) = tau(y) 1``.  Put ``D = E_L E_R - E_C``, so that
    ``E_L(y) = tau(y) 1 + D(y)`` on R.  The Gram matrix of the
    ``products = dim L * dim R`` products ``l_i r_j`` is then

        G[(i, j), (i', j')] = tau(l_i* l_i' r_j' r_j*)
                            = tau(l_i* l_i') tau(r_j' r_j*) + tau(x D(y))
                            = delta_ii' delta_jj' + tau(x D(y)),

    with ``x = l_i* l_i'`` in L and ``y = r_j' r_j*`` in R.  In a
    commuting square D = 0, so the products are orthonormal (compare the
    nondegenerate commuting squares of Jones-Sunder, LMS LN 234, 1997).
    Otherwise let ``err`` bound every entry of ``D(b)`` over a
    trace-orthonormal basis b of ``measured`` elements whose span holds R.
    An n x n matrix with entries at most ``err`` has ``|.|_2 <= sqrt(n) err``,
    so the Hilbert-Schmidt norm of D on the span of b, which bounds its
    norm on R, is at most ``sqrt(measured n) err``.  A unit vector of M_n
    has operator norm at most ``sqrt(n)`` and ``|a c|_2 <= |a|_op |c|_2``,
    so ``|x|_2, |y|_2 <= sqrt(n)``; by Cauchy-Schwarz every entry of
    ``G - I`` is at most ``|x|_2 |D(y)|_2 <= n^(3/2) sqrt(measured) err``.
    Summing a row, ``|G - I| <= products n^(3/2) sqrt(measured) err``, which
    this bound keeps at most 1/2.  Then G is invertible and the products
    are linearly independent: they span ``products`` dimensions of the
    ambient algebra, which holds them, so they span it exactly when
    ``products`` equals its dimension.  The flattened products have Gram
    ``n G``, so their singular values are at least ``sqrt(n / 2) >= 1`` and
    an SVD rank cut at ``EPS_RANK`` counts the same.
    """
    return 0.5 / (products * n**1.5 * np.sqrt(measured))


def commuting_squares(
    corner: AlgebraBasis,
    lefts,
    right: AlgebraBasis,
    ambient: AlgebraBasis,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[SquareResult]:
    """``is_commuting_square`` of each left algebra in ``lefts`` (all of one dimension), in one stacked pass.

    The corner, right and ambient algebras are shared, so their
    expectations of the ambient basis are formed once; every left
    expectation runs along the batch axis.  Raises ``InclusionViolation``
    when any square of the batch is not nested by ``_span_contained`` at
    ``tol``, which also judges the scalar-corner test below.

    Nondegeneracy is read from the count ``dim L * dim R == dim ambient``
    when the corner is the scalars and the commuting error is within
    ``_count_bound`` (measured over the ambient basis), where the products
    of the two middle bases are linearly independent; only the squares of
    the batch outside that lemma have the rank of their products taken by
    SVD.
    """
    dims = {corner.ambient_dim, right.ambient_dim, ambient.ambient_dim, *(a.ambient_dim for a in lefts)}
    if len(dims) != 1:
        raise DimMismatch("all four algebras must share one matrix dimension")
    if len({a.dim for a in lefts}) != 1:
        raise DimMismatch("the left algebras of one batch must share one dimension")
    n = ambient.ambient_dim
    bases = np.stack([a.basis for a in lefts])
    left = bases.reshape(len(lefts), -1, n * n)
    for inner, outer, what in (
        (corner.flat, left, "corner in left"),
        (corner.flat, right.flat, "corner in right"),
        (left, ambient.flat, "left in ambient"),
        (right.flat, ambient.flat, "right in ambient"),
    ):
        if not _span_contained(inner, outer, n, tol).all():
            raise InclusionViolation(f"span containment fails: {what}")

    g = ambient.flat
    lr = _project(right.project_many(g), left, n)
    rl = right.project_many(_project(g, left, n))
    c = corner.project_many(g)
    errs = np.max([np.abs(x - y).max(axis=(-2, -1)) for x, y in ((lr, rl), (lr, c), (rl, c))], axis=0)

    products = left.shape[1] * right.dim
    scalar_corner = corner.dim == 1 and bool(_span_contained(np.eye(n).reshape(1, -1), corner.flat, n, tol))
    counted = scalar_corner & (errs <= _count_bound(products, n, ambient.dim))  # a NaN error is not counted
    nondeg = [products == ambient.dim] * len(lefts)
    outside = np.flatnonzero(~counted)
    if outside.size:
        # row i * right.dim + j of batch b holds lefts[b].basis[i] @ right.basis[j]
        prods = (bases[outside, :, None] @ right.basis[None, None]).reshape(outside.size, -1, n * n)
        ranks = (np.linalg.svd(prods, compute_uv=False) > EPS_RANK).sum(axis=-1)
        for b, rank in zip(outside.tolist(), ranks.tolist()):
            nondeg[b] = rank == ambient.dim
    return [
        SquareResult(commuting=err < tol.eps_entry, nondegenerate=nd, max_commuting_err=err)
        for err, nd in zip(errs.tolist(), nondeg)
    ]


def is_commuting_square(
    corner: AlgebraBasis,
    left: AlgebraBasis,
    right: AlgebraBasis,
    ambient: AlgebraBasis,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SquareResult:
    """Decide the commuting-square property for a quadruple of algebras.

    Commuting means the two middle conditional expectations commute and
    compose to the expectation onto the corner, checked deterministically on
    a full basis of the ambient algebra.  Nondegenerate means the pairwise
    products left * right span the ambient algebra: by the count when the
    corner is the scalars and the square commutes within ``_count_bound``,
    by the rank of the products otherwise.  The batch of one of
    ``commuting_squares``.
    """
    return commuting_squares(corner, [left], right, ambient, tol)[0]


def vertex_square(z, n: int, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> SquareResult:
    """Commuting-square test for the vertex-model quadruple of a unitary in M_n x M_k.

    The quadruple is (scalars, Ad_z(M_n x 1), 1 x M_k, M_{nk}); it commutes
    exactly when z is biunitary, which is what the cross-check tests assert.
    ``M_{nk}`` holds ``(nk)^4`` entries, so nk is capped at ``TOWER_DIM_CAP``
    before any algebra is built.
    """
    z = as_matrix(z)
    if z.shape[0] != n * k:
        raise DimMismatch(f"dimension {z.shape[0]} is not {n}*{k}")
    if n * k > TOWER_DIM_CAP:
        raise OrderTooLarge(f"vertex square capped at dimension {TOWER_DIM_CAP}")
    if not is_unitary(z, tol):
        raise NonUnitary("vertex square needs a unitary matrix")
    m_n = full_matrix_algebra(n)
    left_stack = np.stack([z @ tensor(m, np.eye(k)) @ dagger(z) for m in m_n.basis])
    left = AlgebraBasis(ambient_dim=n * k, basis=left_stack)
    right = tensor_algebra(scalar_algebra(n), full_matrix_algebra(k))
    return is_commuting_square(
        scalar_algebra(n * k), left, right, full_matrix_algebra(n * k), tol
    )


@dataclass(frozen=True)
class TowerBaseResult:
    """Finite-level data of the tower base square; ``blocks[i]`` is ``Y_i = B_i W``."""

    blocks: np.ndarray
    commuting: bool
    nondegenerate: bool | None
    relcomm_dim: int
    max_commuting_err: float


def _tower_spec(spec) -> FourierSpec:
    """``spec`` as a ``FourierSpec``, its own caps checked first, then ``TOWER_DIM_CAP``."""
    spec = FourierSpec.of(spec)
    if spec.dim > TOWER_DIM_CAP:
        raise OrderTooLarge(f"tower base square capped at dimension {TOWER_DIM_CAP}")
    return spec


def vertex_model_square(u, spec, tol: ToleranceConfig = DEFAULT_TOL) -> TowerBaseResult:
    """Test the square pairing ``Ad_{U1}(I x W Delta W*)`` against ``I x M_N`` in M_{N^2}.

    Corner C is the scalars, left L is ``I_N x M_N``, the ambient is
    ``Delta_N x M_N`` and right R is the conjugated diagonals, with
    ``U1 = block_unitary(u)``.  All are block diagonal, so no N^2 x N^2 matrix
    is built: with ``Y_i = B_i W`` for the blocks ``B_i = u D_i``, ``D_i = diag(sqrt(N) conj(u[i, :]))``,
    of U1, R is spanned by ``R_k = sum_i E_ii x sqrt(N) v_ik v_ik*`` over the
    columns v_ik of Y_i; C lies in R at the caller's tolerance, as ``require_hadamard`` bounds both
    terms of ``Y_i* Y_i - I = W* D_i* (u* u - I) D_i W + W* (diag(N |u[i, :]|^2) - I) W``.
    The square commutes exactly when ``E_L(R) ⊆ C``; ``max_commuting_err`` is
    the largest entry of ``E_L(R_k) - tau(R_k) = I x N^{-1/2} (sum_i v_ik v_ik* - I)``.
    Up to TOWER_NONDEG_CAP the square is nondegenerate by the count of
    ``_count_bound``: ``dim L * dim R = N^2 * N`` is the dimension of
    ``Delta_N x M_N``, and with n = N^2, ``products`` = N^3 and the N
    trace-orthonormal R_k measured, the count holds whenever
    ``max_commuting_err <= _count_bound(N^3, N^2, N) = 1 / (2 N^6.5)``.
    Beyond that bound, L R spans the ambient exactly when
    ``M[(k, j), (i, l)] = N v_ik[j] conj(v_ik[l])`` has rank N^2 (the dense
    products are N copies of M).  ``relcomm_dim``, the commutant of R in L, is
    the meet of the ``Y_i Delta Y_i* = B_i (W Delta W*) B_i*``: ``diag(e_i) =
    B_0* B_i``, ``e_i = N u[0, :] conj(u[i, :])``, keeps the translation S_s
    spanning ``W Delta W*`` exactly when the character s is constant on the
    support of ``inverse_dft(e_i)`` (cut at eps_entry), so it counts those s.
    """
    spec = _tower_spec(spec)
    n = spec.dim
    u = require_hadamard(u, tol)
    if u.shape[0] != n:
        raise DimMismatch(f"matrix dimension {u.shape[0]} does not match spec {spec.orders}")

    root = np.sqrt(n)
    # y[i] = B_i W = u diag(sqrt(N) conj(u[i, :])) W
    y = u @ (root * u.conj()[:, :, None] * fourier_tensor(spec))

    # cols[k] has the v_ik as columns, so cols[k] cols[k]* = sum_i v_ik v_ik*
    cols = y.transpose(2, 1, 0)
    err = float(np.abs(cols @ cols.conj().swapaxes(1, 2) - np.eye(n)).max() / root)

    nondeg = None
    if n <= TOWER_NONDEG_CAP:
        nondeg = True
        if not err <= _count_bound(n**3, n * n, n):
            prods = n * np.einsum("ijk,ilk->kjil", y, y.conj()).reshape(n * n, n * n)
            nondeg = int((np.linalg.svd(prods, compute_uv=False) > EPS_RANK).sum()) == n * n

    support = np.abs(inverse_dft(n * u[0] * u[1:].conj(), spec)) > tol.eps_entry
    return TowerBaseResult(
        blocks=y,
        commuting=err < tol.eps_entry,
        nondegenerate=nondeg,
        relcomm_dim=int(annihilator_mask(support, spec).all(axis=0).sum()),
        max_commuting_err=err,
    )

