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
the group, ``f = ifftn(d)``, read off the two normal forms.  Its H comes
from the Fourier route, the annihilator of ``S - S`` for the support
``S = {g : |f(g)| > eps_entry}``, decided in integers; the one threshold
is the support test that the bipartite graph of X applies to the
separately computed entries of X.  The modified entropy of such a pair
is the Shannon entropy of ``p = |f|^2``, checked on every call against
the dense ``modified_entropy``, which stays the reported value.  Pairs
without a shared normal form (different permutations, ``V = U P D``,
``not-dpw-form``) take ``extract_subgroup``; conjugate pairs never do.
The dense subspace-intersection and commutant routes of
:mod:`hadinv.algebra` serve as the oracle in tests.

``pair_reports`` computes the reports of two stacks ``(B, N, N)`` of
matrices, pair by pair as ``pair_report`` would, with every stage along
the batch axis: each matrix is validated once, each ``X = U* V`` formed
once and shared by the distinctness test, the support graphs, the
Fourier route and the dense entropy.  The Fourier route's H is verified
once per distinct membership mask of the stack, and every pair with that
mask shares the one ``SubgroupSet`` (or ``NotClosed``).  Only the
relative commutant's per-component products, ``extract_subgroup`` off
the Fourier route and the assembly of each report run per pair, in
``pair_report``, which ``pair_reports`` calls once per pair with that
pair's row of the stacked stages; called on its own, ``pair_report``
runs the stages on a batch of one.  Callers that stack many pairs keep
``B * N^2`` at or below ``STACK_ENTRIES``: ``stack_chunks`` cuts the
rows of ``hadinv sweep --mode random`` into chunks of that size, and
the pairs of ``realized_reports``, the one step that reports realized
pairs and checks their H against ``prod(m_i)`` for
``realization_sweep`` and ``hadinv realize``.

``random_conjugate_forms`` is the one sampler of random conjugate pairs:
it draws the forms of a stack of generators, one row each, and
``random_conjugate_pair`` is its stack of one.

All logarithms are natural.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    DimMismatch,
    DomainError,
    HadinvError,
    NonUnitary,
    NotClosed,
    NotHadamard,
    OracleMismatch,
)
from .groups import (
    SubgroupSet,
    annihilator_mask,
    convolution,
    divisors,
    extract_decisions,
    extract_subgroup,
    inverse_dft,
    realize_subgroup,
    subgroup_from_mask,
)
from .hadamard import DpwForm, FourierSpec, dpw_parts, hadamard_mask
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _overflow_fails,
    as_matrix,
    as_stack,
    complex_permutation_mask,
    dagger,
    unitary_mask,
)

__all__ = [
    "ENTROPY_TOL",
    "ENTROPY_BOUND_TOL",
    "eta",
    "modified_entropy",
    "InvariantReport",
    "pair_report",
    "pair_reports",
    "STACK_ENTRIES",
    "stack_chunks",
    "realized_reports",
    "realization_sweep",
    "random_conjugate_forms",
    "random_conjugate_pair",
]

# two computations of one entropy agree within ENTROPY_TOL, which is also
# the slack of the range check [0, log N]; a conjugate pair's entropy may
# exceed its bound log(N/dimA) by at most ENTROPY_BOUND_TOL
ENTROPY_TOL = 1e-12
ENTROPY_BOUND_TOL = 1e-9

# callers that stack many pairs (``hadinv sweep``) send pair_reports at
# most STACK_ENTRIES = B * N^2 matrix entries at once: each (B, N, N)
# complex stack then holds at most 1 MB
STACK_ENTRIES = 1 << 16


def stack_chunks(items, dim: int):
    """``(start, items[start : start + step])`` chunk by chunk, ``step = max(1, STACK_ENTRIES // dim^2)``."""
    step = max(1, STACK_ENTRIES // (dim * dim))
    for start in range(0, len(items), step):
        yield start, items[start : start + step]


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


def _dense_entropies(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per ``X = u* v`` of a stack: the entropy, and whether ``|X|^2`` is doubly stochastic at the scale of the gate.

    u and v were admitted as unitary at ``eps``: every entry of
    ``F = v v* - 1`` lies below eps, so ``|F|_op < N eps`` (a row sum of
    ``|F|``), and ``u* u - 1`` has the spectrum of ``u u* - 1``.  A row sum
    of ``|X|^2`` is ``(u* v v* u)_ii = 1 + (u* u - 1)_ii + (u* F u)_ii``, so
    it lies within ``N eps + |u|_op^2 N eps < N eps (2 + N eps)`` of 1, and
    a column sum likewise with u and v swapped; the profile is doubly
    stochastic when every sum lies within that bound.  ``v v* = 1 + eps J``
    (all ones) and a u with a column ``1 / sqrt(N)`` reach ``N eps``.
    """
    n = x.shape[-1]
    profile = np.abs(x) ** 2
    row_err = np.abs(profile.sum(axis=-1) - 1.0).max(axis=-1)
    col_err = np.abs(profile.sum(axis=-2) - 1.0).max(axis=-1)
    entropy = _eta_array(profile).sum(axis=(-2, -1)) / n
    return entropy, np.maximum(row_err, col_err) < n * eps * (2 + n * eps)


def modified_entropy(u, v, tol: ToleranceConfig = DEFAULT_TOL):
    """Modified relative entropy of the pair: ``(1/N) sum eta(|(u* v)_ij|^2)``.

    Defined for any two unitaries of one dimension; the squared moduli of
    ``u* v`` form a doubly stochastic matrix, which is asserted within the
    bound ``_dense_entropies`` derives from ``tol.eps_entry`` (the scale at which
    the inputs were accepted as unitary) before summing.  Natural-log units; ranges over [0, log N].
    Two stacks of shape ``(B, N, N)`` give the B entropies as an array.
    """
    u, v = (as_stack(m) if np.ndim(m) == 3 else as_matrix(m) for m in (u, v))
    if u.shape != v.shape:
        raise DimMismatch(f"cannot compare {u.shape} with {v.shape}")
    if not unitary_mask(u, tol).all() or not unitary_mask(v, tol).all():
        raise NonUnitary("entropy needs two unitary matrices")
    entropy = _checked_entropies(u, v, tol.eps_entry)
    return entropy if entropy.ndim else float(entropy)


def _checked_entropies(u: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """``modified_entropy`` of matrices, or stacks, that the caller has already checked unitary.

    The doubly stochastic check of ``|u* v|^2`` at the scale ``eps`` still runs.
    """
    entropy, stochastic = _dense_entropies(dagger(u) @ v, eps)
    if not stochastic.all():
        raise OracleMismatch("squared-modulus profile failed the doubly stochastic check")
    return entropy


def _component_labels(adj: np.ndarray) -> np.ndarray:
    """Per vertex of a boolean graph, or of each graph of a stack, the smallest vertex of its component.

    Squares the reachability matrices until none grows, so at most
    ``log2(#vertices) + 1`` products of 0/1 matrices are taken.
    """
    reach = (adj | np.swapaxes(adj, -1, -2) | np.eye(adj.shape[-1], dtype=bool)).astype(np.float32)
    while True:
        grown = (reach @ reach > 0).astype(np.float32)
        if (grown == reach).all():
            return reach.argmax(axis=-1)
        reach = grown


def _component_count(labels: np.ndarray) -> np.ndarray:
    """Components per graph: the vertices that label their own component."""
    return (labels == np.arange(labels.shape[-1])).sum(axis=-1)


def _support_graph_invariants(u: np.ndarray, x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per pair of the stacks ``u`` and ``x = u* v``: ``(dimA, relcomm_dims)`` from the support graphs.

    The bipartite graphs of all X are labelled together; the graph on [N]
    of each pair takes one product ``U P_c U*`` per component c.
    """
    b, n = x.shape[0], x.shape[-1]
    bipartite = np.zeros((b, 2 * n, 2 * n), dtype=bool)
    bipartite[:, :n, n:] = np.abs(x) > eps
    labels = _component_labels(bipartite)
    dim_a = _component_count(labels)
    support = np.zeros((b, n, n), dtype=bool)
    # a single component has P_c = 1, so its product is U U*, taken for all such pairs at once
    single = dim_a == 1
    support[single] = np.abs(u[single] @ dagger(u[single])) > eps
    for k in np.flatnonzero(~single):
        rows = labels[k, :n]
        # the components of the rows: each is labelled by its smallest vertex, a row that labels itself
        for c in np.flatnonzero(rows == np.arange(n)):
            cols = u[k][:, rows == c]
            support[k] |= np.abs(cols @ dagger(cols)) > eps
    return dim_a, _component_count(_component_labels(support))


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


def _conjugate_diagonals(perm: np.ndarray, phases_u: np.ndarray, phases_v: np.ndarray) -> np.ndarray:
    """Per row of conjugate forms, the d with ``U* V = W* diag(d) W``: ``diag(d) = P* conj(D_u) D_v P``."""
    d = np.empty(phases_u.shape, dtype=complex)
    np.put_along_axis(d, perm, np.conj(phases_u) * phases_v, axis=-1)
    return d


class _FourierSide(NamedTuple):
    subgroup: list[SubgroupSet | NotClosed]
    magnitudes: np.ndarray
    entropy: np.ndarray
    allowance: np.ndarray


def _or_not_closed(find, *args) -> SubgroupSet | NotClosed:
    """The subgroup ``find(*args)`` verifies, or the ``NotClosed`` it raises."""
    try:
        return find(*args)
    except NotClosed as exc:
        return exc


def _shared_subgroups(members: np.ndarray, spec: FourierSpec) -> list[SubgroupSet | NotClosed]:
    """Per row of a stack of membership masks, ``subgroup_from_mask`` of it, or the ``NotClosed`` it raised.

    Each distinct mask is verified once, keyed by its bytes, and every row
    that carries it gets the same object: a random stack at N <= 9 holds
    one mask, that of the trivial subgroup, in almost every row.
    """
    found: dict[bytes, SubgroupSet | NotClosed] = {}
    out = []
    for row, key in zip(members, map(bytes, members)):
        if key not in found:
            found[key] = _or_not_closed(subgroup_from_mask, row, spec)
        out.append(found[key])
    return out


def _fourier_sides(d: np.ndarray, x: np.ndarray, spec: FourierSpec, eps: float) -> _FourierSide:
    """The Fourier route of conjugate pairs, one row of ``d`` and one matrix of ``x = U* V`` each.

    With ``f = inverse_dft(d)``, ``magnitudes`` are ``|f|``, ``subgroup``
    is H, the annihilator of the support ``|f| > eps``, as
    ``_shared_subgroups`` verifies it from its membership mask, and
    ``entropy`` is the Shannon entropy of ``p = |f|^2``.  As
    ``|eta(a) - eta(b)| <= eta(min(|a - b|, 1/e))`` on [0, 1],
    ``allowance`` bounds the distance of ``entropy`` to
    ``modified_entropy`` beyond rounding, through how far X sits from
    ``convolution(f)``, which is rounding on exact normal forms.  Each
    field holds one entry per pair.
    """
    n = d.shape[-1]
    f = inverse_dft(d, spec)
    magnitudes = np.abs(f)
    moved = np.abs(np.abs(x) ** 2 - np.abs(convolution(f, spec)) ** 2)
    allowance = _eta_array(np.minimum(moved, 1.0 / math.e)).sum(axis=(-2, -1)) / n
    entropy = _eta_array(magnitudes**2).sum(axis=-1)
    # every support is nonempty: sum |f|^2 = 1 puts some |f(g)| at or above 1/sqrt(N) >= 1/8 > eps
    members = annihilator_mask(magnitudes > eps, spec)
    return _FourierSide(_shared_subgroups(members, spec), magnitudes, entropy, allowance)


def _nearest(values: np.ndarray, orders: tuple[int, ...], eps: float, name: str, element: str) -> str:
    """The value nearest ``eps`` by ratio, with its group element."""
    k = int(np.abs(np.log(np.maximum(values, 1e-300) / eps)).argmin())
    at = ",".join(str(int(i)) for i in np.unravel_index(k, orders))
    return f"{name} nearest eps_entry {eps:g}: {values[k]:.3e} at {element}=({at})"


class _PairStage(NamedTuple):
    """One pair's row of the stages that ``pair_reports`` runs along the batch axis."""

    hadamard: bool
    identical: bool
    distinct: bool
    normal: bool
    conjugate: bool
    dim_a: int
    relcomm_dims: int
    entropy: float
    stochastic: bool
    # the Fourier route of a conjugate pair
    side: _FourierSide | None


@_overflow_fails
def _stages(us: np.ndarray, vs: np.ndarray, spec: FourierSpec, tol: ToleranceConfig) -> list[_PairStage]:
    """The stacked stages of ``pair_reports``, split into one ``_PairStage`` per pair."""
    spec.require_dim(us, vs)
    if len(us) != len(vs):
        raise DimMismatch(f"stacks of {len(us)} and {len(vs)} matrices do not pair up")
    eps = tol.eps_entry
    hadamard = hadamard_mask(us, tol) & hadamard_mask(vs, tol)
    # U* V, shared by the distinctness test, the support graphs, the Fourier route and the entropy
    x = dagger(us) @ vs
    identical = np.abs(us - vs).max(axis=(-2, -1)) <= eps
    # distinct exactly when perm_phase_certificate finds no certificate
    distinct = ~complex_permutation_mask(x, tol)
    form_u, perm_u, phases_u = dpw_parts(us, spec, tol)
    form_v, perm_v, phases_v = dpw_parts(vs, spec, tol)
    normal = form_u & form_v
    conjugate = hadamard & normal & (perm_u == perm_v).all(axis=-1)
    dims, relcomms = _support_graph_invariants(us, x, eps)
    entropies, stochastic = _dense_entropies(x, eps)

    on_route = np.flatnonzero(conjugate)
    d = _conjugate_diagonals(perm_u[on_route], phases_u[on_route], phases_v[on_route])
    sides = _fourier_sides(d, x[on_route], spec, eps)
    routes = itertools.starmap(_FourierSide, zip(*sides))
    columns = (hadamard, identical, distinct, normal, conjugate, dims, relcomms, entropies, stochastic)
    return [_PairStage(*row, next(routes) if row[4] else None) for row in zip(*(c.tolist() for c in columns))]


def pair_report(u, v, spec, tol: ToleranceConfig = DEFAULT_TOL, *, stage: _PairStage | None = None) -> InvariantReport:
    """Compute every pair invariant, cross-checked between independent routes.

    dimA and the relative commutant dimension are component counts of
    support graphs at ``tol.eps_entry`` (see the module docstring).  On a
    conjugate pair the subgroup H is the annihilator of the support of
    ``f = ifftn(d)`` read off the normal forms; every other pair takes
    ``extract_subgroup``.  dimA must equal |H| on conjugate and on
    equivalent pairs and be at least |H| on the others; when in addition
    both matrices are in normal form, the relative commutant dimension
    must equal, respectively be at most, N/|H|.  On conjugate pairs the
    Shannon entropy of ``p = |f|^2`` must match ``modified_entropy``.  Any
    disagreement raises ``OracleMismatch``; a subgroup mismatch names the
    route and the value it thresholds nearest ``eps_entry``: ``|f(g)|``
    with its g on the Fourier route, the decision value with its r on the
    extract route.

    The stacked stages run on a batch of one; ``pair_reports`` runs them
    on its whole stack and passes each pair its row as ``stage``, so that
    the per-pair step below is this function for every pair.
    """
    spec = FourierSpec.of(spec)
    n = spec.dim
    eps = tol.eps_entry
    if stage is None:
        u, v = as_matrix(u), as_matrix(v)
        (stage,) = _stages(u[None], v[None], spec, tol)
    if not stage.hadamard:
        raise NotHadamard("matrix is not complex Hadamard within tolerance")
    dim_a, relcomm_dims = stage.dim_a, stage.relcomm_dims
    is_distinct, is_conjugate = stage.distinct, stage.conjugate
    flags: list[str] = []
    if stage.identical:
        flags.append("identical")
    if not stage.normal:
        flags.append("not-dpw-form")

    side = stage.side
    subgroup: SubgroupSet | None = None
    if stage.identical:
        flags.append("subgroup-skipped-identical")
    else:
        found = _or_not_closed(extract_subgroup, u, v, spec, tol) if side is None else side.subgroup
        if isinstance(found, NotClosed):
            flags.append("subgroup-not-closed")
        else:
            subgroup = found

    if subgroup is not None:
        # the clock conjugates U D_r U* (r in H) span all of A only for
        # conjugate and equivalent pairs; otherwise they span a subalgebra
        spans_a = is_conjugate or not is_distinct
        size, orbits = subgroup.size, n // subgroup.size
        dim_ok = size == dim_a if spans_a else size <= dim_a
        relcomm_ok = relcomm_dims == orbits if spans_a else relcomm_dims <= orbits
        if not dim_ok or ("not-dpw-form" not in flags and not relcomm_ok):
            if side is None:
                route, values, names = "extract", extract_decisions(u, v, spec), ("decision value", "r")
            else:
                route, values, names = "fourier", side.magnitudes, ("|f(g)|", "g")
            evidence = f"H from the {route} route; {_nearest(values, spec.orders, eps, *names)}"
            if not dim_ok:
                raise OracleMismatch(
                    f"subgroup order {size} disagrees with intersection dimension {dim_a} ({evidence})"
                )
            raise OracleMismatch(
                f"relative commutant dimension {relcomm_dims} disagrees with N/|H| = {n}/{size} "
                f"({evidence})"
            )
    if not 1 <= dim_a <= n:
        raise OracleMismatch(f"intersection dimension {dim_a} outside [1, {n}]")

    index = Fraction(n * n, dim_a)
    if not stage.stochastic:
        raise OracleMismatch("squared-modulus profile failed the doubly stochastic check")
    entropy = stage.entropy
    upper = math.log(n / dim_a)

    if not -ENTROPY_TOL <= entropy <= math.log(n) + ENTROPY_TOL:
        raise OracleMismatch(f"entropy {entropy} outside [0, log {n}]")
    if side is not None and abs(entropy - side.entropy) > ENTROPY_TOL + side.allowance:
        raise OracleMismatch(
            f"entropy {entropy} disagrees with the Shannon entropy {side.entropy} of |ifftn(d)|^2 "
            f"beyond {ENTROPY_TOL:g} + {side.allowance:.3e}, the allowance for the distance "
            "of the pair from its normal forms"
        )
    if is_conjugate and entropy > upper + ENTROPY_BOUND_TOL:
        raise OracleMismatch(f"entropy {entropy} exceeds the bound log(N/dimA) = {upper} on a conjugate pair")

    certified = is_distinct and is_conjugate and subgroup is not None
    if not certified:
        flags.append("hypotheses-unverified")

    return InvariantReport(
        n=n,
        spec=spec.orders,
        distinct=is_distinct,
        conjugate=is_conjugate,
        dim_a=dim_a,
        subgroup=subgroup,
        index=index,
        relcomm_dims=relcomm_dims,
        vertex=dim_a == 1,
        entropy_h=entropy,
        entropy_upper=upper,
        certified=certified,
        flags=tuple(flags),
    )


def pair_reports(us, vs, spec, tol: ToleranceConfig = DEFAULT_TOL) -> list[InvariantReport | HadinvError]:
    """``pair_report`` of each pair ``(us[b], vs[b])`` of two stacks of shape ``(B, N, N)``.

    Entry b is the report of pair b, or the error ``pair_report`` raises
    on it; stacks of the wrong shape raise.  The Hadamard validation, ``X
    = U* V``, the identical and distinct tests, the normal forms, the
    support-graph labels, the Fourier side of the conjugate pairs and the
    dense entropy all run along the batch axis, each matrix validated
    once and each X formed once; the Fourier route's H is verified once
    per distinct membership mask and shared by the pairs with that mask.
    Then ``pair_report`` runs once per pair on its row of those stages:
    the products of the relative commutant's components,
    ``extract_subgroup`` off the Fourier route and the assembly of the
    report.
    """
    spec = FourierSpec.of(spec)
    us = as_stack(us)
    vs = as_stack(vs)
    results: list[InvariantReport | HadinvError] = []
    for u, v, stage in zip(us, vs, _stages(us, vs, spec, tol)):
        try:
            results.append(pair_report(u, v, spec, tol, stage=stage))
        except HadinvError as exc:
            results.append(exc)
    return results


def realized_reports(spec, divisor_vecs, tol: ToleranceConfig = DEFAULT_TOL):
    """``[(u, v, report), ...]``: the pair ``realize_subgroup`` builds for each divisor vector, reported.

    The pairs are reported by ``pair_reports`` in chunks of
    ``STACK_ENTRIES // N^2``; a pair's error is raised.  For each vector
    (m_i | n_i) the report must hold a subgroup H of order ``prod(m_i)``,
    else ``OracleMismatch``; ``pair_report`` has tied |H| to dimA and the
    index ``N^2 / dimA`` on these conjugate pairs.
    """
    spec = FourierSpec.of(spec)
    rows = []
    for _, chunk in stack_chunks(divisor_vecs, spec.dim):
        us, vs = (np.stack(m) for m in zip(*(realize_subgroup(spec, mvec) for mvec in chunk)))
        for mvec, u, v, report in zip(chunk, us, vs, pair_reports(us, vs, spec, tol)):
            if isinstance(report, HadinvError):
                raise report
            expected = math.prod(mvec)
            if report.subgroup is None or report.subgroup.size != expected:
                got = "none" if report.subgroup is None else report.subgroup.size
                raise OracleMismatch(f"divisors {mvec}: subgroup order {got} in the report, expected {expected}")
            rows.append((u, v, report))
    return rows


def realization_sweep(spec, tol: ToleranceConfig = DEFAULT_TOL):
    """``realized_reports`` of every divisor vector of the spec.

    Returns ``[(divisor_vector, report), ...]`` in lexicographic order.
    """
    spec = FourierSpec.of(spec)
    mvecs = list(itertools.product(*[divisors(order) for order in spec.orders]))
    return [(mvec, report) for mvec, (_, _, report) in zip(mvecs, realized_reports(spec, mvecs, tol))]


def random_conjugate_forms(spec, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample the parts ``(perms, phases_u, phases_v)`` of conjugate pairs of normal forms, one per generator.

    Each generator of the sequence ``rngs`` draws, in this order, a
    uniform permutation shared by the pair, then the uniform angles of
    the i.i.d. unit phases of U, then those of V; the arrays hold one row
    per generator, and the phases of the whole stack are exponentiated
    with one ``np.exp``.  Sharing the permutation makes the forms
    ``DpwForm(spec, perms[b], phases_u[b])`` and ``DpwForm(spec, perms[b],
    phases_v[b])`` conjugate by construction.  ``hadinv sweep`` draws one
    stack per chunk of rows and makes the checks of ``DpwForm`` on it
    (``require_forms``).
    """
    n = FourierSpec.of(spec).dim
    perms = np.empty((len(rngs), n), dtype=np.int64)
    angles = np.empty((len(rngs), 2, n))
    for perm, angle, rng in zip(perms, angles, rngs):
        perm[:] = rng.permutation(n)
        rng.random(out=angle)
    phases = np.exp(2j * np.pi * angles)
    return perms, phases[:, 0], phases[:, 1]


def random_conjugate_pair(spec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The realized matrices ``(D P W, D~ P W)`` of ``random_conjugate_forms`` on a stack of one generator."""
    spec = FourierSpec.of(spec)
    (perm,), (phases_u,), (phases_v,) = random_conjugate_forms(spec, [rng])
    return DpwForm(spec, perm, phases_u).realize(), DpwForm(spec, perm, phases_v).realize()
