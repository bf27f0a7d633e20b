"""Dense reference computations that tests compare the library against."""

import numpy as np


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
