"""The Kantorovich-type metric on operator valued measures.

For measures E, F on the same atom space,

    rho(E, F) = sup over 1-Lipschitz phi of || integral phi dE - integral phi dF ||

in the operator norm.  The objective is a norm of a linear image of phi,
hence convex, so the supremum over the anchored Lipschitz polytope is
attained at a vertex: enumerating the polytope's extreme points computes
rho exactly.  Anchoring is harmless because constants integrate to a
multiple of the identity for both measures and cancel in the difference.

Two lower-bound routes cross-check the vertex value: a sphere search that
exchanges the two suprema (rho is also the sup over unit vectors h of the
scalar Kantorovich dual of the signed measure <E(.)h,h> - <F(.)h,h>), and
plain sampling of regularized Lipschitz functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import InputParseError, MismatchedMeasures, StaleVertexSet
from .metric_core import (
    FiniteMetricSpace,
    Lip1VertexSet,
    LipschitzFunction,
    certify_lipschitz,
    lip_constant,
    lip1_vertices,
)
from .ovm import OperatorValuedMeasure, atom_difference_norms, integrate
from .rationals import cleared
from .rng import SplitMix64
from .sampling import random_unit_vector

SPHERE_ASCENT_STEPS = 50
# Slack of the float comparisons in the metric-axiom and topology checks.
BOUND_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RhoResult:
    value: float
    exact: Fraction | None
    witness_phi: LipschitzFunction
    witness_vector: np.ndarray | None
    method: str


def _check_frames(space, E, F, vertices=None):
    if not E.same_frame(F):
        raise MismatchedMeasures("measures live on different spaces or dimensions")
    if E.space != space:
        raise MismatchedMeasures("measures do not live on the given space")
    if vertices is not None and vertices.space != space:
        raise StaleVertexSet("vertex set was built from a different space")


def _difference_stack(E: OperatorValuedMeasure, F: OperatorValuedMeasure):
    """Atomwise differences with a canonical global sign.

    The sign flip makes rho(E, F) and rho(F, E) bitwise identical: the
    objective only sees the differences, and the spectral norm is even.
    The sign is that of the first non-zero entry, in atom-major, row-major
    order (its real part, for complex entries).
    """
    exact = E.is_exact and F.is_exact
    if exact:
        deltas = E.mats - F.mats
    else:
        deltas = linalg.to_complex(E.mats) - linalg.to_complex(F.mats)
    nonzero = np.flatnonzero(deltas)
    if nonzero.size:
        x = deltas.flat[nonzero[0]]
        if (x.real if isinstance(x, complex) else x) < 0:
            deltas = -deltas
    return deltas, exact


def _all_diagonal(deltas: np.ndarray) -> bool:
    return not np.count_nonzero(deltas[:, ~np.eye(deltas.shape[1], dtype=bool)])


def _objective_stack(phis: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    return np.tensordot(phis, linalg.to_complex(deltas), axes=(1, 0))


def _best_diagonal_vertex(vertices: Lip1VertexSet, deltas) -> tuple[Fraction, int, int]:
    """(max value, half index, slot) of |sum_a phi(a) delta_a(j)| over the
    half and the diagonal slots j, for exact diagonal differences.

    A slot where every difference is zero scores 0, which never beats the
    running best under ``>``, so only the other slots are scored, each on
    its non-zero atoms.
    """
    scale, ints = vertices.scaled
    d = deltas.shape[1]
    unit, flat = cleared(deltas.diagonal(axis1=1, axis2=2).ravel().tolist())
    slots = []
    for j in range(d):
        nonzero = [(a, w) for a, w in enumerate(flat[j::d]) if w]
        if nonzero:
            slots.append((j, nonzero))
    best, best_i, best_j = 0, 0, 0
    for i, vert in enumerate(ints[: len(vertices.half)]):
        for j, col in slots:
            val = abs(sum([vert[a] * w for a, w in col]))
            if val > best:
                best, best_i, best_j = val, i, j
    return Fraction(best, scale * unit), best_i, best_j


def rho_exact(
    space: FiniteMetricSpace,
    E: OperatorValuedMeasure,
    F: OperatorValuedMeasure,
    vertices: Lip1VertexSet,
) -> RhoResult:
    """Exact value of rho by extreme-point enumeration.

    Returns the optimizing vertex and a unit vector achieving the operator
    norm of the witness operator.  When both measures carry exact diagonal
    matrices, the witness operator is diagonal and its norm is the largest
    |sum_a phi(a) delta_a(j)| over vertices phi and diagonal slots j.  That
    maximum is found in Python ints: the vertices are scored as L*phi
    (``vertices.scaled``) against the diagonals cleared by M, the lcm of
    their denominators, so every score is L*M times its rational value.
    The scan runs vertex-major and j-minor with a strict ``>``, so it keeps
    the first maximum, and the ``exact`` field is the one Fraction built
    at the end, best / (L*M).
    """
    _check_frames(space, E, F, vertices)
    deltas, exact = _difference_stack(E, F)
    half = vertices.half
    if exact and _all_diagonal(deltas):
        best, best_i, best_j = _best_diagonal_vertex(vertices, deltas)
        best_vert = half[best_i]
        witness_vec = np.zeros(E.dim)
        witness_vec[best_j] = 1.0
        return RhoResult(
            value=float(best),
            exact=best,
            witness_phi=certify_lipschitz(space, best_vert),
            witness_vector=witness_vec,
            method="vertex",
        )
    mats = _objective_stack(vertices.half_floats, deltas)
    norms = linalg.spectral_norms_stack(mats)
    best_i = int(np.argmax(norms))
    _, witness_vec = linalg.top_eigenpair(mats[best_i])
    best_vert = half[best_i]
    return RhoResult(
        value=float(norms[best_i]),
        exact=None,
        witness_phi=certify_lipschitz(space, best_vert),
        witness_vector=witness_vec,
        method="vertex",
    )


def rho_assignments(E: OperatorValuedMeasure, F: OperatorValuedMeasure) -> Fraction:
    """Exact rho of two 0/1 diagonal PVMs, read from their assignments.

    Both measures must be stored as assignments a_E, a_F on the same frame.
    Then rho(E, F) = max_j d(a_E(j), a_F(j)), found with one distance read
    per slot where the assignments differ, and no vertex list or table.

    Proof.  For any phi, integral phi dE - integral phi dF is diagonal, with
    entry phi(a_E(j)) - phi(a_F(j)) in slot j, so its norm is the largest
    |phi(a_E(j)) - phi(a_F(j))|.  For 1-Lipschitz phi each entry is at most
    d(a_E(j), a_F(j)), so rho(E, F) is at most the maximum.  Conversely, let
    slot j attain the maximum and y = a_F(j).  The McShane extension of the
    value 0 at y, phi(x) = d(x, y) - d(anchor, y), is 1-Lipschitz by the
    triangle inequality and vanishes at the anchor; the anchoring constant
    cancels in the difference, and phi(a_E(j)) - phi(y) = d(a_E(j), y).  So
    each slot's scalar Kantorovich distance W1(delta_{a_E(j)}, delta_{a_F(j)})
    = d(a_E(j), a_F(j)) is attained, and the maximum is rho(E, F).
    """
    if not E.same_frame(F):
        raise MismatchedMeasures("measures live on different spaces or dimensions")
    if E.assignment is None or F.assignment is None:
        raise MismatchedMeasures("both measures must be stored as assignments")
    d = E.space.d
    slots = zip(E.assignment.tolist(), F.assignment.tolist())
    return max((d(a, b) for a, b in slots if a != b), default=Fraction(0))


def rho_lower_sphere(
    space: FiniteMetricSpace,
    E: OperatorValuedMeasure,
    F: OperatorValuedMeasure,
    restarts: int,
    seed: int = 0,
    vertices: Lip1VertexSet | None = None,
) -> RhoResult:
    """Lower bound from unit vectors: sup_h of the scalar dual of <(E-F)h, h>.

    Each restart alternates between the best vertex for the current h and
    the top eigenvector of the resulting witness operator; both moves are
    non-decreasing, so the iteration climbs and the best value over all
    restarts is reported.  Always at most rho_exact (up to float noise).
    """
    _check_frames(space, E, F, vertices)
    if restarts < 1:
        raise InputParseError("restarts must be >= 1")
    if vertices is None:
        vertices = lip1_vertices(space)
    deltas, _ = _difference_stack(E, F)
    cdeltas = linalg.to_complex(deltas)
    complex_case = bool(np.abs(cdeltas.imag).max() > 0.0) if cdeltas.size else False
    half = vertices.half
    phis = vertices.half_floats
    rng = SplitMix64(seed)
    best = -1.0
    best_h = None
    best_vert = half[0]
    for _ in range(restarts):
        h = random_unit_vector(E.dim, rng, complex_=complex_case)
        prev = -1.0
        for _step in range(SPHERE_ASCENT_STEPS):
            svec = np.real(np.einsum("i,aij,j->a", h.conj(), cdeltas, h))
            vals = np.abs(phis @ svec)
            iv = int(np.argmax(vals))
            val = float(vals[iv])
            if val > best:
                best, best_h, best_vert = val, h, half[iv]
            if val <= prev * (1.0 + 1e-15):
                break
            prev = val
            witness = np.tensordot(phis[iv], cdeltas, axes=(0, 0))
            _, h = linalg.top_eigenpair(witness)
    return RhoResult(
        value=best,
        exact=None,
        witness_phi=certify_lipschitz(space, best_vert),
        witness_vector=best_h,
        method="sphere",
    )


def rho_lower_grid(
    space: FiniteMetricSpace,
    E: OperatorValuedMeasure,
    F: OperatorValuedMeasure,
    samples: int,
    seed: int = 0,
) -> RhoResult:
    """Lower bound from sampled Lipschitz functions.

    Raw random values are regularized to be 1-Lipschitz (min-plus with the
    distance, phi(x) = min_y (raw(y) + d(x, y)) on a float64 copy of the
    table), anchored, and scored by the operator-norm objective.
    """
    _check_frames(space, E, F)
    if samples < 1:
        raise InputParseError("samples must be >= 1")
    deltas, _ = _difference_stack(E, F)
    rng = SplitMix64(seed)
    diam = float(space.diam)
    dist = np.array([[float(x) for x in row] for row in space.dist])
    raw = np.array([[rng.uniform(-diam, diam) for _ in range(space.n)] for _ in range(samples)])
    phis = np.stack([(raw + row).min(axis=1) for row in dist], axis=1)
    phis = phis - phis[:, :1]
    mats = _objective_stack(phis, deltas)
    norms = linalg.spectral_norms_stack(mats)
    best_i = int(np.argmax(norms))
    _, witness_vec = linalg.top_eigenpair(mats[best_i])
    phi_best = tuple(float(x) for x in phis[best_i])
    return RhoResult(
        value=float(norms[best_i]),
        exact=None,
        witness_phi=certify_lipschitz(space, phi_best),
        witness_vector=witness_vec,
        method="grid",
    )


@dataclass(frozen=True)
class MetricAxiomReport:
    rho_ef: float
    rho_fe: float
    rho_eg: float
    rho_fg: float
    atom_diff_ef: float
    min_separation: float
    triangle_slack: float
    diam: float
    symmetry_ok: bool
    identity_ok: bool
    triangle_ok: bool
    bounded_ok: bool
    observed_leq_diam: bool

    @property
    def passed(self) -> bool:
        return self.symmetry_ok and self.identity_ok and self.triangle_ok and self.bounded_ok


def metric_axiom_suite(
    space: FiniteMetricSpace,
    E: OperatorValuedMeasure,
    F: OperatorValuedMeasure,
    G: OperatorValuedMeasure,
    vertices: Lip1VertexSet,
) -> MetricAxiomReport:
    """Metric axioms of rho on a triple, with quantitative identity bridges.

    Identity of indiscernibles is checked both ways through explicit
    bounds: rho <= diam * sum of atom differences, and each atom
    difference is at most rho divided by the atom's isolation radius (the
    tent function supported on one atom realizes that bound).  Boundedness
    asserts rho <= 2 diam; whether the sharper diam bound held is recorded
    but not asserted.
    """
    rho_ef = rho_exact(space, E, F, vertices)
    rho_fe = rho_exact(space, F, E, vertices)
    rho_eg = rho_exact(space, E, G, vertices)
    rho_fg = rho_exact(space, F, G, vertices)
    atom_diff = float(atom_difference_norms(E, F).max()) if space.n else 0.0
    if space.n > 1:
        min_sep = float(
            min(
                min(space.dist[i][j] for j in range(space.n) if j != i)
                for i in range(space.n)
            )
        )
    else:
        min_sep = float(space.diam) if space.diam else 1.0
    diam = float(space.diam)
    symmetry_ok = rho_ef.value == rho_fe.value
    # rho small forces atoms close (tent bound) and conversely.
    if rho_ef.value <= BOUND_TOL:
        identity_ok = atom_diff <= BOUND_TOL / min_sep + BOUND_TOL if min_sep > 0 else True
    else:
        identity_ok = atom_diff > 0.0
    triangle_slack = rho_eg.value - (rho_ef.value + rho_fg.value)
    triangle_ok = triangle_slack <= BOUND_TOL
    bounded_ok = rho_ef.value <= 2.0 * diam + BOUND_TOL
    return MetricAxiomReport(
        rho_ef=rho_ef.value,
        rho_fe=rho_fe.value,
        rho_eg=rho_eg.value,
        rho_fg=rho_fg.value,
        atom_diff_ef=atom_diff,
        min_separation=min_sep,
        triangle_slack=triangle_slack,
        diam=diam,
        symmetry_ok=symmetry_ok,
        identity_ok=identity_ok,
        triangle_ok=triangle_ok,
        bounded_ok=bounded_ok,
        observed_leq_diam=rho_ef.value <= diam + BOUND_TOL,
    )


@dataclass(frozen=True)
class TopologyBoundsReport:
    integral_gap: float
    lip_times_rho: float
    rho: float
    diam_times_atom_sum: float
    first_ok: bool
    second_ok: bool

    @property
    def passed(self) -> bool:
        return self.first_ok and self.second_ok


def topology_bounds(
    space: FiniteMetricSpace,
    f_values,
    E: OperatorValuedMeasure,
    F: OperatorValuedMeasure,
    vertices: Lip1VertexSet,
) -> TopologyBoundsReport:
    """Quantitative two-sided comparison of rho with weak convergence.

    (i)  || integral f dE - integral f dF || <= Lip(f) rho(E, F)
    (ii) rho(E, F) <= diam * sum over atoms of || E(a) - F(a) ||

    Together these make convergence in rho equivalent to convergence of
    all test integrals on a finite space.
    """
    gap = linalg.spectral_norm(
        linalg.to_complex(integrate(f_values, E)) - linalg.to_complex(integrate(f_values, F))
    )
    k = float(lip_constant(list(f_values), space))
    rho = rho_exact(space, E, F, vertices).value
    atom_sum = float(atom_difference_norms(E, F).sum())
    diam = float(space.diam)
    return TopologyBoundsReport(
        integral_gap=gap,
        lip_times_rho=k * rho,
        rho=rho,
        diam_times_atom_sum=diam * atom_sum,
        first_ok=gap <= k * rho + BOUND_TOL,
        second_ok=rho <= diam * atom_sum + BOUND_TOL,
    )
