"""Seeded random instances: metric spaces, rational measures, OVM pairs.

Everything draws from the SplitMix64 stream, so sweeps are replayable from
a single master seed.  Random projection measures are unitary conjugates
of diagonal ones; random positive measures are normalized PSD splittings
of the identity (kept real symmetric).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import linalg
from .metric_core import FiniteMetricSpace, validate_space
from .ovm import OperatorValuedMeasure, POSITIVE, PROJECTION, diagonal_pvm, validate_ovm
from .rng import SplitMix64
from .transport import ProbMeasure


def random_metric_space(n: int, rng: SplitMix64, denom: int = 8, max_num: int = 16) -> FiniteMetricSpace:
    """Random n-point metric: shortest-path closure of random positive weights."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, max_num), denom)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return validate_space(d)


def random_rational_measure(
    n: int, rng: SplitMix64, max_support: int | None = None, max_weight: int = 16
) -> ProbMeasure:
    """Random rational probability weights on a sparse random support."""
    cap = n if max_support is None else min(max_support, n)
    size = rng.randint(1, cap)
    support = rng.distinct_indices(n, size)
    raw = [rng.randint(1, max_weight) for _ in support]
    total = sum(raw)
    weights = [Fraction(0)] * n
    for idx, w in zip(support, raw):
        weights[idx] = Fraction(w, total)
    return ProbMeasure(tuple(weights))


def random_rational_values(space: FiniteMetricSpace, rng: SplitMix64, denom: int = 16):
    """Random rational point values within +/- 2 diam (arbitrary Lipschitz constant)."""
    hi = max(2 * space.diam, Fraction(1))
    steps = int(2 * hi * denom)
    return tuple(
        -hi + Fraction(rng.randint(0, steps), denom) for _ in range(space.n)
    )


def random_orthogonal(dim: int, rng: SplitMix64) -> np.ndarray:
    """Haar-like real orthogonal matrix from Gaussian QR with sign fixing."""
    g = np.array([[rng.gauss() for _ in range(dim)] for _ in range(dim)])
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def random_unitary(dim: int, rng: SplitMix64) -> np.ndarray:
    """Haar-like complex unitary from Gaussian QR with phase fixing."""
    g = np.array(
        [[complex(rng.gauss(), rng.gauss()) for _ in range(dim)] for _ in range(dim)]
    )
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    phases = diag / np.abs(diag)
    return q * phases.conj()[None, :]


def random_unit_vector(dim: int, rng: SplitMix64, complex_: bool = False) -> np.ndarray:
    return random_unit_vectors(1, dim, rng, complex_)[0]


def random_unit_vectors(count: int, dim: int, rng: SplitMix64, complex_: bool = False) -> np.ndarray:
    """count random unit vectors as the rows of one array, drawn as one
    block of Gaussians: row r is bit for bit the r-th of count
    ``random_unit_vector`` calls (entries re, im, re, im, ... when complex)."""
    g = rng.gausses(count * dim * (2 if complex_ else 1))
    rows = (g.view(np.complex128) if complex_ else g).reshape(count, dim)
    out = np.empty_like(rows)
    for v, unit in zip(rows, out):
        norm = np.sqrt(np.vdot(v, v).real)
        if norm == 0.0:  # pragma: no cover - measure-zero draw
            unit[:] = 0.0
            unit[0] = 1.0
        else:
            unit[:] = v / norm
    return out


def random_diagonal_pvm_pair(space: FiniteMetricSpace, dim: int, rng: SplitMix64):
    """Commuting diagonal pair plus the atom assignments behind it."""
    a = [rng.randint(0, space.n - 1) for _ in range(dim)]
    b = [rng.randint(0, space.n - 1) for _ in range(dim)]
    return diagonal_pvm(space, a), diagonal_pvm(space, b), a, b


def random_pvm(
    space: FiniteMetricSpace, dim: int, rng: SplitMix64, complex_: bool = False
) -> OperatorValuedMeasure:
    """Unitary (or orthogonal) conjugate of a random diagonal PVM."""
    assignment = [rng.randint(0, space.n - 1) for _ in range(dim)]
    u = random_unitary(dim, rng) if complex_ else random_orthogonal(dim, rng)
    mats = []
    for atom_index in range(space.n):
        cols = [j for j, a in enumerate(assignment) if a == atom_index]
        block = u[:, cols]
        mats.append(block @ block.conj().T)
    return validate_ovm(space, mats, PROJECTION)


def random_truth_conjugate_pvm(
    space: FiniteMetricSpace, rng: SplitMix64, complex_: bool = False
) -> OperatorValuedMeasure:
    """Unitary conjugate of the diagonal truth (atom j carries basis vector j)."""
    dim = space.n
    u = random_unitary(dim, rng) if complex_ else random_orthogonal(dim, rng)
    mats = [np.outer(u[:, j], u[:, j].conj()) for j in range(dim)]
    return validate_ovm(space, mats, PROJECTION)


def random_povm(space: FiniteMetricSpace, dim: int, rng: SplitMix64) -> OperatorValuedMeasure:
    """Normalized random PSD splitting of the identity (real symmetric)."""
    while True:
        parts = []
        for _ in range(space.n):
            g = np.array([[rng.gauss() for _ in range(dim)] for _ in range(dim)])
            parts.append(g.T @ g)
        total = sum(parts)
        if linalg.min_eigenvalue(total) > 1e-6:
            break
    inv_sqrt = linalg.sym_matrix_function(total, lambda w: 1.0 / np.sqrt(w))
    mats = [inv_sqrt @ p @ inv_sqrt for p in parts]
    mats = [(m + m.T) / 2 for m in mats]
    return validate_ovm(space, mats, POSITIVE, tol=1e-9)
