"""Seeded workload inputs for the hadinv benchmark, built with numpy alone.

Matrix inputs come from Fourier tensors, permutations, unit phases and
staircase diagonals written here, never from hadinv's own constructors, so
a change to ``realize_subgroup`` or ``random_conjugate_pair`` cannot change
what the benchmark feeds the program.  The same seed gives byte-identical
matrix JSON; another seed gives other matrices with the same invariants.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# (label, kind, spec, divisors): the report-n64 pair mix.  dimA is 1 for a
# random conjugate pair, prod(divisors) for a staircase pair and N for the
# non-distinct pair V = U P D.
REPORT_PAIRS = (
    ("random-64", "random", (64,), None),
    ("random-8x8", "random", (8, 8), None),
    ("random-4x4x4", "random", (4, 4, 4), None),
    ("random-2x6", "random", (2,) * 6, None),
    ("stair-64-2", "staircase", (64,), (2,)),
    ("stair-8x8-2.4", "staircase", (8, 8), (2, 4)),
    ("stair-4x4x4-2.2.2", "staircase", (4, 4, 4), (2, 2, 2)),
    ("stair-64-32", "staircase", (64,), (32,)),
    ("stair-2x6-2.2.2.2.2.1", "staircase", (2,) * 6, (2, 2, 2, 2, 2, 1)),
    ("same-8x8", "same", (8, 8), None),
)
# An N=16 warm-up already starts the BLAS threads (an N=8 one does not); that
# one-off cost, about 0.7 s, would otherwise land in the first timed N=64 op.
REPORT_WARMUP = ("stair-4x4-2.2", "staircase", (4, 4), (2, 2))

SWEEP_RANDOM_SPECS = ("2,3", "2,2,2", "3,3", "2,4")
SWEEP_SAMPLES = 200
SWEEP_REALIZE_SPECS = ("2,2,2,2", "4,4")

# Order 10 (8 s, 1 GB) leaves room for only two passes a run, too few for a
# steady median op latency.  Orders 12 and up need more memory than a desk
# machine has (ROADMAP item 4), although TOWER_DIM_CAP admits them.
TOWER_ORDERS = tuple(range(2, 10))

WORKLOADS = ("report-n64", "sweep-small", "tower")


def fourier_tensor(orders) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for n in orders:
        j = np.arange(n)
        out = np.kron(out, np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n))
    return out


def unit_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(n))


def staircase(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal (as a vector) whose pair (W, S W) singles out the order-m subgroup of Z_n.

    For m >= 2 the entries step through the powers of a primitive m-th root
    of unity, one step per block of n/m; the seed picks which primitive root.
    For m = 1 the vector is (1, c, ..., c) with a generic phase c, so that no
    nonzero shift leaves the phase differences constant.
    """
    if m == 1:
        out = np.full(n, unit_phases(rng, 1)[0])
        out[0] = 1.0
        return out
    units = [t for t in range(1, m) if math.gcd(t, m) == 1]
    t = int(rng.choice(units))
    return np.exp(2j * np.pi * t * (np.arange(n) // (n // m)) / m)


def make_pair(kind: str, orders, divisors, rng: np.random.Generator):
    """Build one pair (U, V) of the given kind over the spec ``orders``."""
    w = fourier_tensor(orders)
    n = w.shape[0]
    if kind == "random":
        shared = w[rng.permutation(n)]
        return unit_phases(rng, n)[:, None] * shared, unit_phases(rng, n)[:, None] * shared
    if kind == "staircase":
        # a shared left diagonal keeps dimA, the subgroup and relcomm_dims
        d = unit_phases(rng, n)
        s = np.ones(1, dtype=complex)
        for order, m in zip(orders, divisors):
            s = np.kron(s, staircase(order, m, rng))
        return d[:, None] * w, (d * s)[:, None] * w
    if kind == "same":
        u = unit_phases(rng, n)[:, None] * w[rng.permutation(n)]
        return u, u[:, rng.permutation(n)] * unit_phases(rng, n)[None, :]
    raise ValueError(f"unknown pair kind {kind!r}")


def matrix_json(m: np.ndarray) -> str:
    """Matrix JSON in hadinv's wire format: dim plus row-major [re, im] pairs."""
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return json.dumps({"dim": int(m.shape[0]), "entries": entries}) + "\n"


def report_op(row, rng, workdir: str, tag: str) -> dict:
    label, kind, orders, divisors = row
    u, v = make_pair(kind, orders, divisors, rng)
    paths = []
    for name, m in (("u", u), ("v", v)):
        path = os.path.join(workdir, f"{tag}-{label}-{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(matrix_json(m))
        paths.append(path)
    return {
        "argv": ["report", paths[0], paths[1], "--spec", ",".join(map(str, orders))],
        "check": "report",
        "label": label,
        "spec": list(orders),
        "divisors": None if divisors is None else list(divisors),
        "items": 1,
    }


def sweep_random_op(spec: str, seed: int, samples: int, jobs: int) -> dict:
    argv = ["sweep", "--spec", spec, "--mode", "random", "--samples", str(samples), "--seed", str(seed)]
    return {
        "argv": argv + ["--jobs", str(jobs)],
        "check": "sweep-random",
        "spec": spec,
        "seed": seed,
        "samples": samples,
        "jobs": jobs,
        "items": samples,
    }


def sweep_realize_op(spec: str) -> dict:
    # one row per divisor vector
    rows = math.prod(sum(n % d == 0 for d in range(1, n + 1)) for n in map(int, spec.split(",")))
    return {"argv": ["sweep", "--spec", spec, "--mode", "realize"], "check": "sweep-realize", "spec": spec, "items": rows}


def tower_op(n: int) -> dict:
    return {"argv": ["verify", "--gamma-orders", str(n)], "check": "verify", "order": n, "items": 1}


def build(workload: str, seed: int, workdir: str) -> dict:
    """Return ``{"warmup": op, "ops": [op, ...]}`` for one workload and seed.

    Every op is one CLI command (``argv`` for ``hadinv.cli.main``) plus what
    the output checker needs to know about it.  Report matrices are written
    under ``workdir``.
    """
    rng = np.random.default_rng(seed)
    if workload == "report-n64":
        warmup = report_op(REPORT_WARMUP, rng, workdir, "warmup")
        ops = [report_op(row, rng, workdir, "op") for row in REPORT_PAIRS]
    elif workload == "sweep-small":
        warmup = sweep_random_op("2,2", int(rng.integers(2**31)), 20, 2)
        ops = []
        for spec in SWEEP_RANDOM_SPECS:
            sweep_seed = int(rng.integers(2**31))
            ops.append(sweep_random_op(spec, sweep_seed, SWEEP_SAMPLES, 1))
            ops.append(sweep_random_op(spec, sweep_seed, SWEEP_SAMPLES, 2))
        ops += [sweep_realize_op(spec) for spec in SWEEP_REALIZE_SPECS]
    elif workload == "tower":
        warmup = tower_op(2)
        ops = [tower_op(n) for n in TOWER_ORDERS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"warmup": warmup, "ops": ops}
