"""Assembled invariants of a pair of Hadamard matrices over one spec.

A pair report collects: distinctness and conjugacy certificates, the
dimension of the intersection algebra ``A = U Delta U* & V Delta V*``, the
index value N^2/dimA as an exact rational, the relative commutant of A
inside the diagonal algebra, the vertex-model criterion dimA == 1, and the
modified relative entropy together with its upper bound ``log(N / dimA)``.

dimA and the relative commutant come from support graphs.  With
``X = U* V`` the intersection is ``U (Delta & X Delta X*) U*``, and the
minimal projections ``P_c`` of ``Delta & X Delta X*`` are the connected
components of the bipartite graph whose edges are the entries of X above
``eps_entry``.  A diagonal commutes with A exactly when it is constant
across every edge of the graph on [N] joining i and j whenever some
``(U P_c U*)_ij`` lies above ``eps_entry``, so the relative commutant has
one dimension per component of that graph.

Each invariant is checked on every call against a second, independent
route: the subgroup H of clock exponents r with ``U D_r U*`` inside
``V Delta V*``.  The conjugates ``U D_r U*`` span a subalgebra of A, all
of A for conjugate and for equivalent pairs, so ``|H| <= dimA`` with
equality there; for a normal-form U their commutant in Delta is the
diagonals constant on the N/|H| H-orbits, so the relative commutant
dimension is at most N/|H|, again with equality there.

H has two routes (see :mod:`hadinv.groups`).  A conjugate pair
``U = D_u P W``, ``V = D_v P W`` has ``X = W* diag(d) W`` with
``diag(d) = P* conj(D_u) D_v P``: the convolution ``X_ij = f(j - i)`` on
the group, ``f = ifftn(d)``.  Its H comes from ``fourier_decisions``: r
lies in H when ``max_{g != 0} |ê_r(g)| < eps_entry``, the same value and
comparison as the dense route, from one batched transform.  The
modified entropy of such a pair is the Shannon entropy of the
probability ``p = |f|^2`` on the group, checked on every call against
the dense ``modified_entropy``, which stays the reported value.  Pairs
without a shared normal form (different permutations, ``V = U P D``,
``not-dpw-form``) and conjugate pairs with a decision value within the
distance bound of the two routes of ``eps_entry`` take
``extract_subgroup``.  The dense subspace-intersection and commutant
routes of :mod:`hadinv.algebra` serve as the oracle in tests.

All logarithms are natural.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, DomainError, NonUnitary, NotClosed, NotDpwForm, OracleMismatch, OrderTooLarge
from .groups import (
    GroupStructure,
    SubgroupSet,
    convolution,
    divisors,
    extract_decisions,
    extract_subgroup,
    fourier_decisions,
    inverse_dft,
    realize_subgroup,
    subgroup_below,
)
from .hadamard import DpwForm, FourierSpec, decompose_dpw, require_hadamard
from .linalg import DEFAULT_TOL, ToleranceConfig, as_matrix, dagger, is_complex_permutation, is_unitary

__all__ = [
    "ENTROPY_TOL",
    "ENTROPY_BOUND_TOL",
    "eta",
    "modified_entropy",
    "InvariantReport",
    "pair_report",
    "realization_sweep",
    "random_conjugate_forms",
    "random_conjugate_pair",
]

# two computations of one entropy agree within ENTROPY_TOL, which is also
# the slack of the range check [0, log N]; a conjugate pair's entropy may
# exceed its bound log(N/dimA) by at most ENTROPY_BOUND_TOL
ENTROPY_TOL = 1e-12
ENTROPY_BOUND_TOL = 1e-9


def eta(t: float) -> float:
    """The entropy kernel ``t -> -t log t`` on [0, 1], with ``eta(0) = 0``."""
    if t < 0.0 or t > 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {t!r}")
    if t == 0.0:
        return 0.0
    return float(-t * math.log(t))


def _eta_array(values: np.ndarray) -> np.ndarray:
    safe = np.clip(values, 0.0, 1.0)
    out = np.zeros_like(safe)
    positive = safe > 0.0
    out[positive] = -safe[positive] * np.log(safe[positive])
    return out


def modified_entropy(u, v, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Modified relative entropy of the pair: ``(1/N) sum eta(|(u* v)_ij|^2)``.

    Defined for any two unitaries of one dimension; the squared moduli of
    ``u* v`` form a doubly stochastic matrix, which is asserted within
    ``tol.eps_entry`` (the scale at which the inputs were accepted as
    unitary) before summing.  Natural-log units; ranges over [0, log N].
    """
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape != v.shape:
        raise DimMismatch(f"cannot compare {u.shape} with {v.shape}")
    if not is_unitary(u, tol) or not is_unitary(v, tol):
        raise NonUnitary("entropy needs two unitary matrices")
    n = u.shape[0]
    profile = np.abs(dagger(u) @ v) ** 2
    row_err = np.abs(profile.sum(axis=1) - 1.0).max()
    col_err = np.abs(profile.sum(axis=0) - 1.0).max()
    if max(row_err, col_err) > tol.eps_entry:
        raise OracleMismatch("squared-modulus profile failed the doubly stochastic check")
    return float(_eta_array(profile).sum() / n)


def _component_labels(adj: np.ndarray) -> np.ndarray:
    """Per vertex of a boolean graph, the smallest vertex of its connected component.

    Squares the reachability matrix until it stops growing, so at most
    ``log2(#vertices) + 1`` products of 0/1 matrices are taken.
    """
    reach = (adj | adj.T | np.eye(adj.shape[0], dtype=bool)).astype(float)
    while True:
        grown = (reach @ reach > 0).astype(float)
        if (grown == reach).all():
            return reach.argmax(axis=1)
        reach = grown


def _support_graph_invariants(u: np.ndarray, x: np.ndarray, eps: float) -> tuple[int, int]:
    """``(dimA, relcomm_dims)`` from the support graphs of ``X = U* V`` and of the ``U P_c U*``."""
    n = u.shape[0]
    big = np.abs(x) > eps
    bipartite = np.zeros((2 * n, 2 * n), dtype=bool)
    bipartite[:n, n:] = big
    labels = _component_labels(bipartite)
    rows = labels[:n]
    support = np.zeros((n, n), dtype=bool)
    for c in np.unique(rows):
        cols = u[:, rows == c]
        support |= np.abs(cols @ dagger(cols)) > eps
    return len(np.unique(labels)), len(np.unique(_component_labels(support)))


@dataclass(frozen=True)
class InvariantReport:
    """Pair invariants; ``certified`` marks a distinct conjugate pair with verified subgroup.

    ``index`` is the exact rational N^2/dimA.  When the pair is not
    distinct-and-conjugate the value is still reported but flagged as a
    formula value with unverified hypotheses.
    """

    n: int
    spec: tuple[int, ...]
    distinct: bool
    conjugate: bool
    dim_a: int
    subgroup: SubgroupSet | None
    index: Fraction
    relcomm_dims: int
    vertex: bool
    entropy_h: float
    entropy_upper: float
    certified: bool
    flags: tuple[str, ...]


def _conjugate_diagonal(form_u: DpwForm, form_v: DpwForm) -> np.ndarray:
    """For conjugate forms, the d with ``U* V = W* diag(d) W``: ``diag(d) = P* conj(D_u) D_v P``."""
    d = np.empty(form_u.dim, dtype=complex)
    d[list(form_u.perm)] = np.conj(form_u.phases) * np.asarray(form_v.phases)
    return d


# rounding between the dense and the Fourier decision values of one pair
# (seen up to 1.3e-13 on exact normal forms at N = 64)
_ROUTE_ROUNDING = 1e-12


class _FourierSide(NamedTuple):
    decisions: np.ndarray
    slack: float
    entropy: float
    allowance: float


def _fourier_side(form_u: DpwForm, form_v: DpwForm, x: np.ndarray) -> _FourierSide:
    """The Fourier route of a conjugate pair.

    ``decisions`` are ``fourier_decisions(d)`` and ``entropy`` is the
    Shannon entropy of ``p = |f|^2``, ``f = inverse_dft(d)``.  The two
    bounds measure how far the normal forms sit from the matrices through
    ``E = X - convolution(f)``, which is rounding on exact normal forms:
    with c the largest column norm of E, no entry of ``X* D_r X`` moves by
    more than ``c (2 |f| + c)``, so ``slack`` bounds the distance to
    ``extract_decisions``; and as ``|eta(a) - eta(b)| <= eta(min(|a - b|, 1/e))``
    on [0, 1], ``allowance`` bounds the distance of ``entropy`` to
    ``modified_entropy`` beyond rounding.
    """
    orders = form_u.spec.orders
    d = _conjugate_diagonal(form_u, form_v)
    f = inverse_dft(d, orders)
    x_form = convolution(f, orders)
    c = float(np.sqrt((np.abs(x - x_form) ** 2).sum(axis=0)).max())
    slack = c * (2.0 * float(np.linalg.norm(f)) + c) + _ROUTE_ROUNDING
    moved = np.abs(np.abs(x) ** 2 - np.abs(x_form) ** 2)
    allowance = float(_eta_array(np.minimum(moved, 1.0 / math.e)).sum()) / form_u.dim
    entropy = float(_eta_array(np.abs(f) ** 2).sum())
    return _FourierSide(fourier_decisions(d, orders), slack, entropy, allowance)


def _nearest_decision(values: np.ndarray, orders: tuple[int, ...], eps: float) -> str:
    """The decision value nearest ``eps`` by ratio, with its element r."""
    k = int(np.abs(np.log(np.maximum(values, 1e-300) / eps)).argmin())
    r = ",".join(str(int(i)) for i in np.unravel_index(k, orders))
    return f"decision value nearest eps_entry {eps:g}: {values[k]:.3e} at r=({r})"


def pair_report(u, v, spec, tol: ToleranceConfig = DEFAULT_TOL) -> InvariantReport:
    """Compute every pair invariant, cross-checked between independent routes.

    dimA and the relative commutant dimension are component counts of
    support graphs at ``tol.eps_entry`` (see the module docstring).  The
    subgroup H comes from ``fourier_decisions`` on a conjugate pair whose
    decision values all lie clear of ``eps_entry`` by more than their
    distance bound to the dense route, and from ``extract_subgroup``
    otherwise.  dimA must equal |H| on conjugate and on equivalent pairs
    and be at least |H| on the others; when in addition both matrices are
    in normal form, the relative commutant dimension must equal,
    respectively be at most, N/|H|.  On conjugate pairs the Shannon
    entropy of ``p`` must match ``modified_entropy``.  Any disagreement
    raises ``OracleMismatch``; a subgroup mismatch names the route and the
    decision value nearest ``eps_entry``.
    """
    spec = FourierSpec.of(spec)
    n = spec.dim
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape[0] != n or v.shape[0] != n:
        raise DimMismatch(f"matrices must have dimension {n} for spec {spec.orders}")
    require_hadamard(u, tol)
    require_hadamard(v, tol)
    eps = tol.eps_entry
    # U* V, shared by the distinctness test, the support graphs and the Fourier route
    x = dagger(u) @ v

    flags: list[str] = []
    identical = bool(np.abs(u - v).max() <= eps)
    if identical:
        flags.append("identical")

    # distinct exactly when perm_phase_certificate finds no certificate
    distinct = not is_complex_permutation(x, tol)

    forms = None
    try:
        forms = decompose_dpw(u, spec, tol), decompose_dpw(v, spec, tol)
    except NotDpwForm:
        flags.append("not-dpw-form")
    conjugate = forms is not None and forms[0].perm == forms[1].perm

    dim_a, relcomm_dims = _support_graph_invariants(u, x, eps)

    fourier = _fourier_side(*forms, x) if conjugate else None
    route, decisions = "extract", None
    # a decision value within the distance bound of eps could fall on either side of it
    if fourier is not None and not (np.abs(fourier.decisions - eps) <= fourier.slack).any():
        route, decisions = "fourier", fourier.decisions
    subgroup: SubgroupSet | None = None
    if identical:
        flags.append("subgroup-skipped-identical")
    else:
        try:
            if decisions is None:
                subgroup = extract_subgroup(u, v, GroupStructure(spec.orders), tol)
            else:
                subgroup = subgroup_below(decisions, spec.orders, eps)
        except NotClosed:
            flags.append("subgroup-not-closed")

    if subgroup is not None:
        # the clock conjugates U D_r U* (r in H) span all of A only for
        # conjugate and equivalent pairs; otherwise they span a subalgebra
        spans_a = conjugate or not distinct
        size, orbits = subgroup.size, n // subgroup.size
        dim_ok = size == dim_a if spans_a else size <= dim_a
        relcomm_ok = relcomm_dims == orbits if spans_a else relcomm_dims <= orbits
        if not dim_ok or ("not-dpw-form" not in flags and not relcomm_ok):
            if decisions is None:
                decisions = extract_decisions(u, v, spec.orders)
            evidence = f"H from the {route} route; {_nearest_decision(decisions, spec.orders, eps)}"
            if not dim_ok:
                raise OracleMismatch(
                    f"subgroup order {size} disagrees with intersection dimension {dim_a} ({evidence})"
                )
            raise OracleMismatch(
                f"relative commutant dimension {relcomm_dims} disagrees with N/|H| = {n}/{size} ({evidence})"
            )
    if not 1 <= dim_a <= n:
        raise OracleMismatch(f"intersection dimension {dim_a} outside [1, {n}]")

    index = Fraction(n * n, dim_a)
    vertex = dim_a == 1
    entropy = modified_entropy(u, v, tol)
    upper = math.log(n / dim_a)

    if not -ENTROPY_TOL <= entropy <= math.log(n) + ENTROPY_TOL:
        raise OracleMismatch(f"entropy {entropy} outside [0, log {n}]")
    if fourier is not None and abs(entropy - fourier.entropy) > ENTROPY_TOL + fourier.allowance:
        raise OracleMismatch(
            f"entropy {entropy} disagrees with the Shannon entropy {fourier.entropy} of |ifftn(d)|^2 "
            f"beyond {ENTROPY_TOL:g} + {fourier.allowance:.3e}, the allowance for the distance "
            "of the pair from its normal forms"
        )
    if conjugate and entropy > upper + ENTROPY_BOUND_TOL:
        raise OracleMismatch(
            f"entropy {entropy} exceeds the bound log(N/dimA) = {upper} on a conjugate pair"
        )

    certified = distinct and conjugate and subgroup is not None
    if not certified:
        flags.append("hypotheses-unverified")

    return InvariantReport(
        n=n,
        spec=spec.orders,
        distinct=distinct,
        conjugate=conjugate,
        dim_a=dim_a,
        subgroup=subgroup,
        index=index,
        relcomm_dims=relcomm_dims,
        vertex=vertex,
        entropy_h=entropy,
        entropy_upper=upper,
        certified=certified,
        flags=tuple(flags),
    )


REALIZATION_ORDER_CAP = 16


def realization_sweep(spec, tol: ToleranceConfig = DEFAULT_TOL):
    """Realize every divisor vector of the spec and report the pair invariants.

    For each vector (m_i | n_i) the constructed pair must come out with
    ``dimA = prod(m_i)`` and ``index = N^2 / prod(m_i)``; a miss raises
    ``OracleMismatch``.  Returns ``[(divisor_vector, report), ...]`` in
    lexicographic order.
    """
    spec = FourierSpec.of(spec)
    n = spec.dim
    if n > REALIZATION_ORDER_CAP:
        raise OrderTooLarge(f"realization sweep capped at order {REALIZATION_ORDER_CAP}")

    rows = []
    for mvec in itertools.product(*[divisors(order) for order in spec.orders]):
        u, v = realize_subgroup(spec, mvec, tol)
        report = pair_report(u, v, spec, tol)
        expected = math.prod(mvec)
        if report.dim_a != expected or report.index != Fraction(n * n, expected):
            raise OracleMismatch(
                f"divisors {mvec}: report dimA {report.dim_a} / index {report.index} "
                f"disagree with expected {expected} / {Fraction(n * n, expected)}"
            )
        rows.append((mvec, report))
    return rows


def random_conjugate_forms(spec, rng: np.random.Generator) -> tuple[DpwForm, DpwForm]:
    """Sample a conjugate pair of normal forms: shared uniform permutation, i.i.d. unit phases.

    Draws the permutation, then the phases of U, then those of V.  Sharing
    the permutation makes the two forms conjugate by construction.
    """
    spec = FourierSpec.of(spec)
    n = spec.dim
    perm = rng.permutation(n)
    phases_u = np.exp(2j * np.pi * rng.random(n))
    phases_v = np.exp(2j * np.pi * rng.random(n))
    return DpwForm(spec, perm, phases_u), DpwForm(spec, perm, phases_v)


def random_conjugate_pair(spec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The realized matrices ``(D P W, D~ P W)`` of ``random_conjugate_forms``."""
    form_u, form_v = random_conjugate_forms(spec, rng)
    return form_u.realize(), form_v.realize()
