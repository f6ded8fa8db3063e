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
from .ovm import (
    OperatorValuedMeasure,
    POSITIVE,
    check_frame_size,
    check_stack_budget,
    diagonal_pvm,
    frame_pvm,
    validate_ovm,
)
from .rng import SplitMix64
from .transport import ProbMeasure

# Draws: space edge weights k/SPACE_DENOM with 1 <= k <= SPACE_MAX_NUM, raw
# measure weights 1..MEASURE_MAX_WEIGHT, point values in steps of 1/VALUES_DENOM.
SPACE_DENOM = 8
SPACE_MAX_NUM = 16
MEASURE_MAX_WEIGHT = 16
VALUES_DENOM = 16


def random_metric_space(n: int, rng: SplitMix64) -> FiniteMetricSpace:
    """Random n-point metric: shortest-path closure of random positive weights."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, SPACE_MAX_NUM), SPACE_DENOM)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return validate_space(d)


def random_rational_measure(n: int, rng: SplitMix64, max_support: int | None = None) -> ProbMeasure:
    """Random rational probability weights on a sparse random support."""
    cap = n if max_support is None else min(max_support, n)
    size = rng.randint(1, cap)
    support = rng.distinct_indices(n, size)
    raw = [rng.randint(1, MEASURE_MAX_WEIGHT) for _ in support]
    total = sum(raw)
    weights = [Fraction(0)] * n
    for idx, w in zip(support, raw):
        weights[idx] = Fraction(w, total)
    return ProbMeasure(tuple(weights))


def random_rational_values(space: FiniteMetricSpace, rng: SplitMix64):
    """Random rational point values within +/- 2 diam (arbitrary Lipschitz constant)."""
    hi = max(2 * space.diam, Fraction(1))
    steps = int(2 * hi * VALUES_DENOM)
    return tuple(
        -hi + Fraction(rng.randint(0, steps), VALUES_DENOM) for _ in range(space.n)
    )


def random_orthogonal(dim: int, rng: SplitMix64) -> np.ndarray:
    """Haar-like real orthogonal matrix from Gaussian QR with sign fixing."""
    q, r = np.linalg.qr(rng.gausses(dim * dim).reshape(dim, dim))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def random_unitary(dim: int, rng: SplitMix64) -> np.ndarray:
    """Haar-like complex unitary from Gaussian QR with phase fixing.  The
    entries are drawn row by row, each as (re, im), in one block."""
    q, r = np.linalg.qr(rng.gausses(2 * dim * dim).view(np.complex128).reshape(dim, dim))
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
    """Unitary (or orthogonal) conjugate of a random diagonal PVM, stored
    as its frame U and assignment (``frame_pvm``, certified by U* U); the
    atoms are built when ``mats`` is first read.  A frame too large to
    certify is refused before anything is drawn."""
    check_frame_size(dim)
    assignment = [rng.randint(0, space.n - 1) for _ in range(dim)]
    u = random_unitary(dim, rng) if complex_ else random_orthogonal(dim, rng)
    return frame_pvm(space, u, assignment)


def random_truth_conjugate_pvm(space: FiniteMetricSpace, rng: SplitMix64) -> OperatorValuedMeasure:
    """Orthogonal conjugate of the diagonal truth, as a frame: atom j
    carries column j of U (``frame_pvm``)."""
    return frame_pvm(space, random_orthogonal(space.n, rng), range(space.n))


def random_povm(space: FiniteMetricSpace, dim: int, rng: SplitMix64) -> OperatorValuedMeasure:
    """Normalized random PSD splitting of the identity (real symmetric).

    Each attempt draws the n Gaussian d x d factors as one block, atom by
    atom and row by row; an attempt whose sum is nearly singular is drawn
    again.
    """
    check_stack_budget(space.n, dim, np.float64)
    while True:
        g = rng.gausses(space.n * dim * dim).reshape(space.n, dim, dim)
        parts = g.transpose(0, 2, 1) @ g
        total = sum(parts)
        if linalg.min_eigenvalue(total) > 1e-6:
            break
    inv_sqrt = linalg.sym_matrix_function(total, lambda w: 1.0 / np.sqrt(w))
    mats = inv_sqrt @ parts @ inv_sqrt
    return validate_ovm(space, (mats + mats.transpose(0, 2, 1)) / 2, POSITIVE, tol=1e-9)
