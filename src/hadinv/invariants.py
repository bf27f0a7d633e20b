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
``V Delta V*`` (``extract_subgroup``).  The conjugates ``U D_r U*`` span a
subalgebra of A, all of A for conjugate and for equivalent pairs, so
``|H| <= dimA`` with equality there; for a normal-form U their commutant
in Delta is the diagonals constant on the N/|H| H-orbits, so the relative
commutant dimension is at most N/|H|, again with equality there.  The
dense subspace-intersection and commutant routes of :mod:`hadinv.algebra`
serve as the oracle in tests.

All logarithms are natural.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimMismatch, DomainError, NonUnitary, NotClosed, NotDpwForm, OracleMismatch, OrderTooLarge
from .groups import GroupStructure, SubgroupSet, divisors, extract_subgroup, realize_subgroup
from .hadamard import DpwForm, FourierSpec, are_conjugate, require_hadamard
from .linalg import DEFAULT_TOL, ToleranceConfig, as_matrix, dagger, is_complex_permutation, is_unitary

__all__ = [
    "eta",
    "modified_entropy",
    "InvariantReport",
    "pair_report",
    "realization_sweep",
    "random_conjugate_forms",
    "random_conjugate_pair",
]


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


def pair_report(u, v, spec, tol: ToleranceConfig = DEFAULT_TOL) -> InvariantReport:
    """Compute every pair invariant, cross-checked between independent routes.

    dimA and the relative commutant dimension are component counts of
    support graphs at ``tol.eps_entry`` (see the module docstring).  When
    the subgroup H is extracted, dimA must equal |H| on conjugate and on
    equivalent pairs and be at least |H| on the others; when in addition
    both matrices are in normal form, the relative commutant dimension must
    equal, respectively be at most, N/|H|.  Any disagreement raises
    ``OracleMismatch``.
    """
    spec = FourierSpec.of(spec)
    n = spec.dim
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape[0] != n or v.shape[0] != n:
        raise DimMismatch(f"matrices must have dimension {n} for spec {spec.orders}")
    require_hadamard(u, tol)
    require_hadamard(v, tol)
    # U* V, shared by the distinctness test and the support graphs
    x = dagger(u) @ v

    flags: list[str] = []
    identical = bool(np.abs(u - v).max() <= tol.eps_entry)
    if identical:
        flags.append("identical")

    # distinct exactly when perm_phase_certificate finds no certificate
    distinct = not is_complex_permutation(x, tol)

    conjugate = False
    try:
        conjugate = are_conjugate(u, v, spec, tol)
    except NotDpwForm:
        flags.append("not-dpw-form")

    dim_a, relcomm_dims = _support_graph_invariants(u, x, tol.eps_entry)

    subgroup: SubgroupSet | None = None
    if identical:
        flags.append("subgroup-skipped-identical")
    else:
        try:
            subgroup = extract_subgroup(u, v, GroupStructure(spec.orders), tol)
        except NotClosed:
            flags.append("subgroup-not-closed")

    if subgroup is not None:
        # the clock conjugates U D_r U* (r in H) span all of A only for
        # conjugate and equivalent pairs; otherwise they span a subalgebra
        spans_a = conjugate or not distinct
        size, orbits = subgroup.size, n // subgroup.size
        dim_ok = size == dim_a if spans_a else size <= dim_a
        relcomm_ok = relcomm_dims == orbits if spans_a else relcomm_dims <= orbits
        if not dim_ok:
            raise OracleMismatch(
                f"subgroup order {size} disagrees with intersection dimension {dim_a}"
            )
        if "not-dpw-form" not in flags and not relcomm_ok:
            raise OracleMismatch(
                f"relative commutant dimension {relcomm_dims} disagrees with N/|H| = {n}/{size}"
            )
    if not 1 <= dim_a <= n:
        raise OracleMismatch(f"intersection dimension {dim_a} outside [1, {n}]")

    index = Fraction(n * n, dim_a)
    vertex = dim_a == 1
    entropy = modified_entropy(u, v, tol)
    upper = math.log(n / dim_a)

    if not -1e-12 <= entropy <= math.log(n) + 1e-12:
        raise OracleMismatch(f"entropy {entropy} outside [0, log {n}]")
    if conjugate and entropy > upper + 1e-9:
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
