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
)
from .ovm import OperatorValuedMeasure, atom_difference_norms, integrate
from .rationals import cleared
from .rng import SplitMix64
from .sampling import random_unit_vectors

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
    order (its real part, for complex entries).  The differences are exact
    when both measures are, complex128 when either is complex, and float64
    otherwise.
    """
    exact = E.is_exact and F.is_exact
    if exact:
        deltas = E.mats - F.mats
    elif np.iscomplexobj(E.mats) or np.iscomplexobj(F.mats):
        deltas = linalg.to_complex(E.mats) - linalg.to_complex(F.mats)
    else:
        deltas = np.asarray(E.mats, dtype=np.float64) - np.asarray(F.mats, dtype=np.float64)
    nonzero = np.flatnonzero(deltas)
    if nonzero.size:
        x = deltas.flat[nonzero[0]]
        if (x.real if isinstance(x, complex) else x) < 0:
            deltas = -deltas
    return deltas, exact


def _all_diagonal(deltas: np.ndarray) -> bool:
    return not np.count_nonzero(deltas[:, ~np.eye(deltas.shape[1], dtype=bool)])


def _best_float(space, phis: np.ndarray, deltas: np.ndarray, witness, method: str) -> RhoResult:
    """The float tail of the vertex and grid routes: the objective stack of
    the rows of ``phis`` against the differences (in real arithmetic unless
    they are complex), the first maximum of its spectral norms and that
    row's top eigenvector, and the certified witness ``witness(i)`` (the
    values behind row i, built for that row only)."""
    if linalg.is_exact_dtype(deltas.dtype):
        deltas = deltas.astype(np.float64)
    mats = np.tensordot(phis, deltas, axes=(1, 0))
    best_i, value = linalg.max_spectral_norm(mats)
    _, witness_vec = linalg.top_eigenpair(mats[best_i])
    return RhoResult(
        value=value,
        exact=None,
        witness_phi=certify_lipschitz(space, witness(best_i)),
        witness_vector=witness_vec,
        method=method,
    )


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
    |sum_a phi(a) delta_a(j)| over vertices phi and diagonal slots j: rho
    is then the largest scalar Kantorovich distance W1 over the slots, of
    which ``transport.kantorovich_dual_oracle`` is the one-slot case.
    ``vertices.best`` finds that maximum in Python ints, on the diagonals
    cleared by M, the lcm of their denominators, and keeps the first
    maximum in (vertex, slot) order.  ``exact`` is top / (L*M), and the
    witness is the one row built as Fractions.
    """
    _check_frames(space, E, F, vertices)
    deltas, exact = _difference_stack(E, F)
    if exact and _all_diagonal(deltas):
        n, d = deltas.shape[:2]
        unit, flat = cleared(deltas.diagonal(axis1=1, axis2=2).ravel().tolist())
        top, best_i, best_j = vertices.best([flat[a * d : (a + 1) * d] for a in range(n)])
        best = Fraction(top, vertices.scale * unit)
        witness_vec = np.zeros(E.dim)
        witness_vec[best_j] = 1.0
        return RhoResult(
            value=float(best),
            exact=best,
            witness_phi=certify_lipschitz(space, vertices.vertex(best_i)),
            witness_vector=witness_vec,
            method="vertex",
        )
    return _best_float(space, vertices.half_floats, deltas, vertices.vertex, "vertex")


def rho_assignments(E: OperatorValuedMeasure, F: OperatorValuedMeasure) -> Fraction:
    """Exact rho of two 0/1 diagonal PVMs, read from their assignments.

    Both measures must be 0/1 diagonal (``OperatorValuedMeasure.is_diagonal``),
    with assignments a_E, a_F, on the same space and dimension.
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
    if not (E.is_diagonal and F.is_diagonal):
        raise MismatchedMeasures("both measures must be stored as 0/1 diagonal assignments")
    d = E.space.d
    slots = zip(E.assignment.tolist(), F.assignment.tolist())
    return max((d(a, b) for a, b in slots if a != b), default=Fraction(0))


def rho_lower_sphere(
    space: FiniteMetricSpace,
    E: OperatorValuedMeasure,
    F: OperatorValuedMeasure,
    restarts: int,
    seed: int = 0,
    *,
    vertices: Lip1VertexSet,
) -> RhoResult:
    """Lower bound from unit vectors: sup_h of the scalar dual of <(E-F)h, h>.

    Each restart alternates between the best vertex for the current h and
    the top eigenvector of the resulting witness operator; both moves are
    non-decreasing, so the iteration climbs, and it stops once a step no
    longer gains (or after ``SPHERE_ASCENT_STEPS`` steps).  Always at most
    rho_exact (up to float noise).

    The restarts run in lockstep.  Their R start vectors are drawn up
    front, in restart order, as one block of the ``SplitMix64(seed)``
    stream (``random_unit_vectors``).  Each step serves every live restart
    at once: one (R, n) quadratic form, one (R, |half|) score matrix with a
    row-wise argmax (the first maximum), one (R, d, d) witness stack and
    one batched ``linalg.eigendecomposition``, in real arithmetic when the
    differences are real.  A restart leaves the batch when its own stop
    test fires.  Each restart keeps its first best step under a strict
    ``>``, and the result is the first restart holding the maximum: the
    first maximum in (restart, step) order.

    Scores and witnesses are one matrix-vector product per restart (a
    stacked ``matmul`` on a trailing column), the witnesses in complex
    arithmetic, so every restart's arithmetic is that of the restart run
    alone, bit for bit.  That matters: a step can meet vertices whose
    scores tie up to rounding, and a last-bit change there can pick
    another vertex and climb to another local maximum.
    """
    _check_frames(space, E, F, vertices)
    if restarts < 1:
        raise InputParseError("restarts must be >= 1")
    cdeltas = linalg.to_complex(_difference_stack(E, F)[0])
    complex_case = bool(cdeltas.imag.any())
    deltas = cdeltas if complex_case else cdeltas.real
    n, d = cdeltas.shape[:2]
    rows = cdeltas.reshape(n, d * d)
    phis = vertices.half_floats
    h = random_unit_vectors(restarts, d, SplitMix64(seed), complex_=complex_case)
    best = np.full(restarts, -1.0)
    best_h = h.copy()
    best_iv = np.zeros(restarts, dtype=np.intp)
    prev = np.full(restarts, -1.0)
    live = np.arange(restarts)
    for _step in range(SPHERE_ASCENT_STEPS):
        svec = np.einsum("ri,aij,rj->ra", h.conj(), deltas, h).real
        vals = np.abs(np.matmul(phis, svec[:, :, None])[..., 0])
        iv = np.argmax(vals, axis=1)
        val = vals[np.arange(len(live)), iv]
        up = val > best[live]
        best[live[up]], best_h[live[up]], best_iv[live[up]] = val[up], h[up], iv[up]
        go = ~(val <= prev[live] * (1.0 + 1e-15))
        prev[live] = val
        live, h, iv = live[go], h[go], iv[go]
        if not live.size:
            break
        witness = np.matmul(phis[iv][:, None, :], rows).reshape(len(live), d, d)
        w, vecs = linalg.eigendecomposition(witness)
        top = np.argmax(np.abs(w), axis=1)
        h = vecs[np.arange(len(live)), :, top]
    r = int(np.argmax(best))
    return RhoResult(
        value=float(best[r]),
        exact=None,
        witness_phi=certify_lipschitz(space, vertices.vertex(best_iv[r])),
        witness_vector=best_h[r],
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

    The samples x n raw values are one block draw,
    ``SplitMix64(seed).uniforms``, bit for bit the scalar ``uniform`` draws
    in sample-major order.  The float table is read from ``space.scaled``:
    each entry is L*d / L in Python ints, correctly rounded, so it is the
    ``float`` of the exact distance.
    """
    _check_frames(space, E, F)
    if samples < 1:
        raise InputParseError("samples must be >= 1")
    deltas, _ = _difference_stack(E, F)
    diam = float(space.diam)
    scale, ints = space.scaled
    dist = np.array([[x / scale for x in row] for row in ints])
    raw = SplitMix64(seed).uniforms(samples * space.n, -diam, diam).reshape(samples, space.n)
    phis = (raw[:, None, :] + dist).min(axis=2)
    phis = phis - phis[:, :1]
    return _best_float(space, phis, deltas, lambda i: phis[i].tolist(), "grid")


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
