"""Shared helpers for the test suite."""

import math

import numpy as np


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_dpw(spec_orders, rng: np.random.Generator) -> np.ndarray:
    """Random normal-form matrix diag(phases) @ P @ W over the given orders."""
    from hadinv import fourier_tensor

    w = fourier_tensor(spec_orders)
    n = w.shape[0]
    phases = np.exp(2j * np.pi * rng.random(n))
    return np.diag(phases) @ perm_matrix(rng.permutation(n)) @ w


def perm_matrix(perm) -> np.ndarray:
    """The permutation matrix whose row i has its 1 at column ``perm[i]``."""
    return np.eye(len(perm), dtype=complex)[np.asarray(perm)]


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: every entry equal, signed zeros included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def maxabs(a) -> float:
    return float(np.abs(np.asarray(a)).max())


def _ordered_factorizations(n: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [()]
    return [(f, *rest) for f in range(2, n + 1) if n % f == 0 for rest in _ordered_factorizations(n // f)]


# the 440 specs (ordered factor orders >= 2) with N <= 64, the whole promised domain
SPECS_UP_TO_64 = [spec for n in range(2, 65) for spec in _ordered_factorizations(n)]

# the ones with N <= 36, the tower's domain
SPECS_UP_TO_36 = [spec for spec in SPECS_UP_TO_64 if math.prod(spec) <= 36]

# the 42 of them with N <= 16
SPECS_UP_TO_16 = [spec for spec in SPECS_UP_TO_36 if math.prod(spec) <= 16]
