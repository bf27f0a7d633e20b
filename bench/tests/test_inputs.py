"""The input generator is deterministic per seed and keeps the dimA mix across seeds."""

import math

import numpy as np
import pytest

from hadinv import is_hadamard
from inputs import REPORT_PAIRS, build, fourier_tensor, make_pair


def matrix_files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def exponent_group_size(u, v, orders):
    """Count exponent vectors r with V* U D_r U* V diagonal: dimA for these pairs."""
    left = v.conj().T @ u
    count = 0
    for r in np.ndindex(*orders):
        clock = np.ones(1, dtype=complex)
        for n, x in zip(orders, r):
            clock = np.kron(clock, np.exp(2j * np.pi * x * np.arange(n) / n))
        m = left @ (clock[:, None] * left.conj().T)
        count += np.abs(m - np.diag(np.diag(m))).max() < 1e-9
    return count


@pytest.mark.parametrize("workload", ["report-n64", "sweep-small", "tower"])
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    argv_a = [op["argv"] for op in build(workload, 5, str(a))["ops"]]
    argv_b = [op["argv"] for op in build(workload, 5, str(b))["ops"]]
    assert [[x.replace(str(a), "") for x in argv] for argv in argv_a] == [
        [x.replace(str(b), "") for x in argv] for argv in argv_b
    ]
    assert matrix_files(a) == matrix_files(b)


def test_other_seed_gives_other_pairs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    build("report-n64", 1, str(a))
    build("report-n64", 2, str(b))
    files_a, files_b = matrix_files(a), matrix_files(b)
    assert files_a.keys() == files_b.keys()
    assert all(files_a[name] != files_b[name] for name in files_a)
    sweeps = [[op["argv"] for op in build("sweep-small", seed, str(a))["ops"]] for seed in (1, 2)]
    assert sweeps[0] != sweeps[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_dim_a_mix_and_hadamard(seed):
    rng = np.random.default_rng(seed)
    dims = []
    for label, kind, orders, divisors in REPORT_PAIRS:
        u, v = make_pair(kind, orders, divisors, rng)
        assert is_hadamard(u) and is_hadamard(v), label
        dims.append(exponent_group_size(u, v, orders))
    expected = [1 if kind == "random" else math.prod(d) if d else math.prod(o) for _, kind, o, d in REPORT_PAIRS]
    assert dims == expected == [1, 1, 1, 1, 2, 8, 8, 32, 32, 64]


def test_fourier_tensor_matches_hadinv():
    from hadinv import fourier_tensor as hadinv_fourier_tensor

    for orders in [(2, 3), (4, 4, 4), (64,)]:
        assert np.abs(fourier_tensor(orders) - hadinv_fourier_tensor(orders)).max() < 1e-12
