"""Dense reference computations that tests compare the library against."""

import functools
import itertools
import json
import operator

import numpy as np

from hadinv import (
    block_unitary,
    classify,
    diag_conj_algebra,
    diagonal_algebra,
    fourier,
    fourier_tensor,
    full_matrix_algebra,
    is_commuting_square,
    scalar_algebra,
    serialize,
)
from hadinv.groups import _translates
from hadinv.linalg import EPS_RANK, nullspace
from hadinv.verify import IDENTITY_THRESHOLD, TENSOR_SPECS


def entry_diagonal(u) -> np.ndarray:
    """The N^2 x N^2 diagonal with ``sqrt(N) * conj(u[i, j])`` at entry ``i*N + j``."""
    u = np.asarray(u, dtype=complex)
    return np.diag(np.sqrt(u.shape[0]) * u.conj().reshape(-1))


def trace_inner(a, b) -> complex:
    """Normalized trace pairing ``tr(b* a) / N``; linear in ``a``."""
    a = np.asarray(a, dtype=complex)
    return complex(np.vdot(b, a) / a.shape[0])


def conditional_expectation(x, algebra) -> np.ndarray:
    """Trace-preserving conditional expectation of x onto an ``AlgebraBasis``: ``sum_i <x, b_i> b_i``."""
    x = np.asarray(x, dtype=complex)
    return algebra.project_many(x.reshape(1, -1)).reshape(x.shape)


def staircase_diagonal(n: int, m: int) -> np.ndarray:
    """Dense diagonal singling out the order-m subgroup of Z_n: ``diag(zeta^(j // (n/m)))``, ``zeta = exp(2 pi i/m)``.

    For m = 1 it is ``diag(1, i, ..., i)``, whose difference sequences are all non-constant.
    """
    if m == 1:
        return np.diag([1.0] + [1j] * (n - 1))
    return np.diag(np.exp(2j * np.pi / m) ** (np.arange(n) // (n // m)))


def staircase_pair(spec, divisor_vec) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(W, D W)`` with D the Kronecker product of dense staircase diagonals, as a dense product."""
    w = fourier_tensor(spec)
    return w, functools.reduce(np.kron, [staircase_diagonal(n, m) for n, m in zip(spec, divisor_vec)]) @ w


def shift_spectrum(d, spec) -> np.ndarray:
    """Row r holds ``ê_r = ifftn(e_r)`` over the group, where ``e_r(k) = conj(d(k)) d(k + r)``.

    For ``X = W* diag(d) W`` the entry ``(X* D_r X)_ij`` equals
    ``chi_r(j) ê_r(j - i)``, with ``chi_r`` row r of ``sqrt(N) W``.  A
    stack ``d`` of shape ``(B, N)`` gives one such ``N x N`` array per row.
    """
    orders = tuple(spec)
    coords = np.indices(orders).reshape(len(orders), -1)
    shifted = (coords[:, None, :] + coords[:, :, None]) % np.array(orders)[:, None, None]
    d = np.asarray(d, dtype=complex)
    e = d.conj()[..., None, :] * d[..., np.ravel_multi_index(tuple(shifted), orders)]
    axes = tuple(range(-len(orders), 0))
    return np.fft.ifftn(e.reshape(*e.shape[:-1], *orders), axes=axes).reshape(e.shape)


def fourier_decisions(d, spec) -> np.ndarray:
    """The decision values of a pair with ``U* V = W* diag(d) W``: ``max_{g != 0} |ê_r(g)|`` per r.

    They equal those of ``extract_decisions``; r lies in H when its value
    is below ``eps_entry``.  A stack ``d`` of shape ``(B, N)`` gives the
    values of each pair along the last axis.
    """
    return np.abs(shift_spectrum(d, spec)[..., 1:]).max(axis=-1)


def dense_clock(orders, r) -> np.ndarray:
    """``np.kron`` of the per-factor clock powers, each an ``np.diag`` of ``omega_i^(r_i j)``."""
    factors = [np.diag(np.exp(2j * np.pi / n) ** (k * np.arange(n))) for n, k in zip(orders, r)]
    return functools.reduce(np.kron, factors)


def dense_shift(orders, r) -> np.ndarray:
    """``np.kron`` of the per-factor shift powers, each the rows ``(j + r_i) mod n_i`` of the identity."""
    factors = [np.eye(n, dtype=complex)[(np.arange(n) + k) % n] for n, k in zip(orders, r)]
    return functools.reduce(np.kron, factors)


def clock_shift_commutation(max_order: int) -> tuple[bool, float]:
    """``(passed, max_err)`` of ``Z F = F X^{-1}`` and ``X F = F Z``, one dense product per order."""
    worst = 0.0
    for n in range(2, max_order + 1):
        f = fourier(n)
        z, x, x_inv = dense_clock((n,), (1,)), dense_shift((n,), (1,)), dense_shift((n,), (n - 1,))
        worst = max(worst, float(np.abs(z @ f - f @ x_inv).max()))
        worst = max(worst, float(np.abs(x @ f - f @ z).max()))
    return worst <= IDENTITY_THRESHOLD, worst


def fourier_diag_conjugation(max_order: int) -> tuple[bool, float]:
    """``(passed, max_err)`` of ``F D_k F* = S_k`` and ``F* D_k F = S_{-k}``, one dense product per power."""
    worst = 0.0
    for n in range(2, max_order + 1):
        f = fourier(n)
        fstar = f.conj().T
        for k in range(n):
            d = dense_clock((n,), (k,))
            worst = max(worst, float(np.abs(f @ d @ fstar - dense_shift((n,), (k,))).max()))
            worst = max(worst, float(np.abs(fstar @ d @ f - dense_shift((n,), ((n - k) % n,))).max()))
    return worst <= IDENTITY_THRESHOLD, worst


def tensor_diag_conjugation() -> tuple[bool, float]:
    """``(passed, max_err)`` of ``W D_r W* = S_r`` and ``W* D_r W = S_{-r}`` over ``TENSOR_SPECS``, one product per r."""
    worst = 0.0
    for orders in TENSOR_SPECS:
        w = fourier_tensor(orders)
        wstar = w.conj().T
        for r in itertools.product(*map(range, orders)):
            d = dense_clock(orders, r)
            nr = tuple((n - x) % n for n, x in zip(orders, r))
            worst = max(worst, float(np.abs(w @ d @ wstar - dense_shift(orders, r)).max()))
            worst = max(worst, float(np.abs(wstar @ d @ w - dense_shift(orders, nr)).max()))
    return worst <= IDENTITY_THRESHOLD, worst


def block_unitary_permutation_form() -> tuple[bool, float]:
    """``(passed, max_err)`` of ``block_unitary(W) = P (I x W)`` over ``TENSOR_SPECS``, ``classify`` deciding P."""
    worst = 0.0
    ok = True
    for orders in TENSOR_SPECS:
        w = fourier_tensor(orders)
        n = w.shape[0]
        p = block_unitary(w) @ np.kron(np.eye(n), w).conj().T
        ok = ok and classify(p).permutation
        worst = max(worst, float(np.abs(p - np.round(p.real)).max()))
        blocks = p.reshape(n, n, n, n).transpose(0, 2, 1, 3)
        worst = max(worst, float(np.abs(blocks[~np.eye(n, dtype=bool)]).max()))
    return ok and worst <= IDENTITY_THRESHOLD, worst


def product_rank_nondegenerate(left, right, ambient) -> bool:
    """Whether the products ``l r`` of two ``AlgebraBasis`` bases span ``ambient``, by an SVD rank cut at ``EPS_RANK``."""
    prods = np.stack([(a @ b).reshape(-1) for a in left.basis for b in right.basis])
    return int((np.linalg.svd(prods, compute_uv=False) > EPS_RANK).sum()) == ambient.dim


def tower_rank_nondegenerate(blocks) -> bool:
    """The tower base square's nondegeneracy from its blocks ``Y_i``, by an SVD rank cut at ``EPS_RANK``.

    With ``v_ik`` column k of ``Y_i``, the dense products of L and R are N
    copies of ``M[(k, j), (i, l)] = N v_ik[j] conj(v_ik[l])``, so they span
    ``Delta_N x M_N`` exactly when M has rank N^2.
    """
    n = blocks.shape[0]
    prods = n * np.einsum("ijk,ilk->kjil", blocks, blocks.conj()).reshape(n * n, n * n)
    return int((np.linalg.svd(prods, compute_uv=False) > EPS_RANK).sum()) == n * n


def tower_relcomm_dim(blocks) -> int:
    """The tower base square's relative commutant from its blocks ``Y_i``, as the nullity of a linear system.

    ``I x m`` commutes with R exactly when m lies in every ``Y_i Delta Y_i*``,
    that is ``m = Y_0 diag(d) Y_0*`` with every ``X_i* diag(d) X_i`` diagonal
    for ``X_i = Y_0* Y_i``.  The rows of each ``X_i`` (``X_0 = I`` gives
    none) are folded into the system's triangular factor, which keeps the
    singular values in O(N^3) memory; the nullity is cut at ``EPS_RANK``.
    """
    n = blocks.shape[0]
    tri = np.zeros((0, n), dtype=complex)
    for xi in np.sqrt(n) * (blocks[0].conj().T @ blocks[1:]):
        rows = np.einsum("ca,cb->abc", xi.conj(), xi)[~np.eye(n, dtype=bool)]
        tri = np.linalg.qr(np.concatenate([tri, rows]), mode="r")
    return nullspace(tri).shape[1]


def kept_translations(rows, orders, eps=1e-6) -> np.ndarray:
    """The s at which every row e keeps the phase ratio ``e(x) conj(e(x + s))`` constant in x, as a flat mask.

    Exactly there ``diag(e)`` keeps the translation ``S_s`` in ``W Delta W*``.
    The rows are divided by their moduli first, so s = 0 holds exactly.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    rows = rows / np.abs(rows)
    ratios = rows[:, None, :] * rows[:, _translates(tuple(orders), 1)].conj()  # [b, s, x]
    return (np.abs(ratios - ratios[..., :1]) < eps).all(axis=(0, 2))


def spin_square_unitaries(orders):
    """``(n, F_n, dpw)`` per order, ``dpw`` drawn as verify draws its random DPW matrix."""
    rng = np.random.default_rng(0)
    for n in orders:
        phases = np.exp(2j * np.pi * rng.random(n))
        yield n, fourier(n), np.diag(phases) @ fourier(n)[rng.permutation(n)]


def spin_squares(orders) -> list[tuple[bool, float]]:
    """``(passed, max_err)`` per order of the spin squares of ``F_n`` and of verify's random DPW matrix, one call each.

    Nondegeneracy is the rank of the products, not the library's count.
    """
    out = []
    for n, *unitaries in spin_square_unitaries(orders):
        worst = 0.0
        ok = True
        for u in unitaries:
            left, right, ambient = diag_conj_algebra(u), diagonal_algebra(n), full_matrix_algebra(n)
            square = is_commuting_square(scalar_algebra(n), left, right, ambient)
            ok = ok and square.commuting and product_rank_nondegenerate(left, right, ambient)
            worst = max(worst, square.max_commuting_err)
        out.append((ok, worst))
    return out


def pair_lists(z) -> list:
    """``[re, im]`` lists of a complex array, one ``float(np.real(z)), float(np.imag(z))`` per entry."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        return [float(np.real(z)), float(np.imag(z))]
    return [pair_lists(row) for row in z]


def matrix_from_obj(obj) -> np.ndarray:
    """Matrix JSON to an N x N complex array, by numpy's dtype inference; ``ValueError`` if malformed."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must carry 'dim' and 'entries'")
    if isinstance(obj["dim"], bool):  # operator.index would read true as 1
        raise ValueError(f"matrix dim must be an integer, got {json.dumps(obj['dim'])}")
    try:
        dim = operator.index(obj["dim"])
        raw = np.asarray(obj["entries"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    flat = _float_entries(raw)
    if dim < 1:
        raise ValueError(f"matrix dim must be >= 1, got {dim}")
    if flat.shape != (dim * dim, 2):
        raise ValueError(f"expected {dim * dim} [re, im] entry pairs, got an array of shape {flat.shape}")
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite numbers")
    # float() reads true as 1.0 and false as 0.0, so only those values can hide a boolean
    rows, cols = np.nonzero((flat == 0.0) | (flat == 1.0))
    if any(type(obj["entries"][i][j]) is bool for i, j in zip(rows.tolist(), cols.tolist())):
        raise ValueError("matrix entries must be numbers, not booleans")
    return flat.view(complex).reshape(dim, dim)


def _float_entries(raw: np.ndarray) -> np.ndarray:
    """The entries as a float array, decided by the dtype numpy infers for them.

    Numbers (and booleans, which the caller rejects) infer a numeric dtype
    and convert as they are.  Strings, which a float conversion would parse,
    infer a string dtype and are rejected.  Integers beyond int64 and
    ``None`` infer ``object``, the one dtype whose entries are looked at one
    by one: only ints and floats pass, and an int too large for a float is
    rejected.
    """
    if raw.dtype.kind == "O":
        if any(type(x) not in (int, float) for x in raw.flat):
            raise ValueError("matrix entries must be numbers")
        try:
            return raw.astype(float)
        except OverflowError:
            raise ValueError("matrix entries must be finite numbers") from None
    if raw.dtype.kind not in "biuf":
        raise ValueError("matrix entries must be numbers")
    return np.ascontiguousarray(raw, dtype=float)


def load_matrix(path) -> np.ndarray:
    """The stdlib matrix reader: ``json.load`` of the text-mode file, then ``serialize.matrix_from_obj``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except RecursionError:
            raise ValueError("matrix JSON is nested too deeply") from None
    return serialize.matrix_from_obj(obj)
