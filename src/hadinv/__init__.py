"""Invariants of pairs of complex Hadamard matrices over Fourier tensor specs.

The package computes, for a pair (U, V) of N x N complex Hadamard matrices
attached to a factor spec (n_1, ..., n_k) with N = n_1 * ... * n_k:

- distinctness and conjugacy certificates from the D*P*W normal form;
- the intersection algebra ``U Delta U* & V Delta V*``, its dimension, and
  the subgroup of Z_{n_1} x ... x Z_{n_k} carrying that dimension;
- the index value N^2/dimA as an exact rational, and the relative
  commutant of the intersection inside the diagonal algebra;
- the vertex-model criterion (dimA == 1) and biunitarity checks;
- the modified relative entropy of the pair and its log(N/dimA) bound.

Every derived invariant is cross-checked against an independent route;
disagreements raise ``OracleMismatch``.
"""

from .algebra import (
    AlgebraBasis,
    SquareResult,
    TowerBaseResult,
    commutant,
    commuting_squares,
    diag_conj_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    intersect_algebras,
    is_commuting_square,
    scalar_algebra,
    span_algebra,
    tensor_algebra,
    vertex_model_square,
    vertex_square,
)
from .errors import (
    DimMismatch,
    DomainError,
    HadinvError,
    InclusionViolation,
    IndexOutOfRange,
    NonUnitary,
    NotClosed,
    NotDivisor,
    NotDpwForm,
    NotHadamard,
    OracleMismatch,
    OrderOutOfRange,
    OrderTooLarge,
)
from .groups import (
    SubgroupSet,
    divisors,
    extract_subgroup,
    is_subgroup,
    realize_subgroup,
)
from .hadamard import (
    DIM_CAP,
    DpwForm,
    FourierSpec,
    are_conjugate,
    block_transpose,
    block_unitary,
    clock_stack,
    clock_vec,
    decompose_dpw,
    fourier,
    fourier_tensor,
    is_biunitary,
    is_hadamard,
    perm_phase_certificate,
    require_hadamard,
    shift_stack,
    shift_vec,
)
from .invariants import (
    InvariantReport,
    eta,
    modified_entropy,
    pair_report,
    pair_reports,
    random_conjugate_forms,
    random_conjugate_pair,
    realization_sweep,
)
from .linalg import (
    DEFAULT_TOL,
    MatrixClass,
    ToleranceConfig,
    classify,
    is_complex_permutation,
    is_unitary,
    orthonormal_basis,
    permutation_mask,
    subspace_intersection,
    tensor,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"
