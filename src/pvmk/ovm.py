"""Projection and positive operator valued measures on a finite atom space.

A measure maps each atom of a finite metric space to a Hermitian
matrix; the atoms generate the full finite sigma-algebra, so values on
unions are sums of atom values.  Projection kind additionally requires
idempotent, pairwise orthogonal values.  Matrices with dtype ``object``
carry exact integer/rational entries and are checked by exact equality;
float matrices are checked against a tolerance.

The inner product is linear in the first slot and conjugate-linear in the
second throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    CrossProductNonzero,
    InputParseError,
    MismatchedMeasures,
    NotHermitian,
    NotIdempotent,
    NotPSD,
    NotUnitary,
    SumNotIdentity,
)
from .metric_core import FiniteMetricSpace
from .rng import SplitMix64

PROJECTION = "projection"
POSITIVE = "positive"
DEFAULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OperatorValuedMeasure:
    """A measure of ``kind`` on the atoms of ``space``, in one of two forms.

    ``dense`` is the read-only (n, d, d) atom array, aligned with
    ``space.point_ids``.  A 0/1 diagonal PVM instead leaves ``dense`` None
    and holds its read-only ``assignment``: basis index j -> atom
    assignment[j], so atom a is the projection onto {e_j : assignment[j] = a}.
    ``mats`` is the dense array either way; for an assignment it is built
    the first time it is read.  Measures compare and hash by identity, as
    arrays have no single truth value.
    """

    space: FiniteMetricSpace
    dense: np.ndarray | None
    kind: str
    assignment: np.ndarray | None = None

    @cached_property
    def mats(self) -> np.ndarray:
        if self.assignment is None:
            return self.dense
        return _diagonal_stack(self.space.n, self.assignment)

    @property
    def dim(self) -> int:
        if self.assignment is not None:
            return len(self.assignment)
        return self.dense.shape[1]

    @property
    def atom_ids(self) -> tuple[str, ...]:
        return self.space.point_ids

    @property
    def is_exact(self) -> bool:
        return self.assignment is not None or linalg.is_exact_matrix(self.dense)

    def same_frame(self, other: "OperatorValuedMeasure") -> bool:
        """Equal spaces (ids and distance table) and equal dims."""
        return self.space == other.space and self.dim == other.dim


def validate_ovm(
    space: FiniteMetricSpace,
    mats,
    kind: str,
    tol: float = DEFAULT_TOL,
) -> OperatorValuedMeasure:
    """Checked construction of an operator valued measure.

    Exact matrices (integer/object dtype) must satisfy the axioms with
    exact equality; float matrices within ``tol`` (max-abs for algebraic
    identities, min eigenvalue for positivity).
    """
    if kind not in (PROJECTION, POSITIVE):
        raise InputParseError(f"unknown kind {kind!r}")
    mats = [np.asarray(m) for m in mats]
    if len(mats) != space.n:
        raise MismatchedMeasures("one matrix per atom is required")
    dim = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for m in mats:
        if m.ndim != 2 or m.shape != (dim, dim):
            raise MismatchedMeasures("atom matrices must be square and equally sized")
    floats = [m.dtype for m in mats if not linalg.is_exact_matrix(m)]
    # One float atom makes the whole measure float: stacked as they are,
    # exact atoms would turn the stack into an object array claiming exactness.
    dtype = np.result_type(np.float64, *floats) if floats else None
    stack = np.stack(mats, dtype=dtype, casting="unsafe")
    exact = not floats
    ids = space.point_ids
    for aid, m in zip(ids, stack):
        h = linalg.hermitian_defect(m)
        if (h != 0) if exact else (h > tol):
            raise NotHermitian(aid, h)
    if kind == PROJECTION:
        for aid, m in zip(ids, stack):
            mm = np.dot(m, m)
            defect = linalg.max_abs(mm - m)
            if (defect != 0) if exact else (defect > tol):
                raise NotIdempotent(aid, defect)
        for i in range(len(stack)):
            for j in range(i + 1, len(stack)):
                defect = linalg.max_abs(np.dot(stack[i], stack[j]))
                if (defect != 0) if exact else (defect > tol):
                    raise CrossProductNonzero(ids[i], ids[j], defect)
    else:
        for aid, m in zip(ids, stack):
            min_eig = linalg.min_eigenvalue(m)
            if min_eig < -tol:
                raise NotPSD(aid, min_eig)
    eye = np.eye(dim, dtype=np.int64) if exact else np.eye(dim)
    defect = linalg.max_abs(stack.sum(axis=0) - eye)
    if (defect != 0) if exact else (defect > tol):
        raise SumNotIdentity(defect)
    stack.setflags(write=False)
    return OperatorValuedMeasure(space, stack, kind)


def assemble_ovm(space: FiniteMetricSpace, atoms: np.ndarray, kind: str) -> OperatorValuedMeasure:
    """Wrap a stack of atom matrices (one per point) that is a measure of
    ``kind`` by construction, freezing it without ``validate_ovm``'s checks.

    Only for results whose axioms follow by theorem from how they were
    built out of measures that already satisfy them; measures read from
    outside or sampled at random go through ``validate_ovm``.
    """
    atoms.setflags(write=False)
    return OperatorValuedMeasure(space, atoms, kind)


def diagonal_pvm(space: FiniteMetricSpace, assignment) -> OperatorValuedMeasure:
    """PVM sending atom a to the projection onto {e_j : assignment[j] = a}.

    Only the assignment is stored; its exact int64 atoms are built when
    ``mats`` is first read.  No ``validate_ovm`` is needed, because the
    result is a projection valued measure by construction: every atom is a
    0/1 diagonal matrix, hence Hermitian and idempotent; distinct atoms
    have disjoint diagonal supports, so their products vanish; and each
    basis vector is assigned to exactly one atom, so the atoms sum to the
    identity.  That last step needs every entry to name an atom, which is
    checked here: an entry outside 0..n-1 raises ``MismatchedMeasures``.
    """
    assignment = np.array(assignment, dtype=np.intp)
    outside = (assignment < 0) | (assignment >= space.n)
    if outside.any():
        raise MismatchedMeasures(
            f"assignment entry {assignment[outside][0]} names no atom of a {space.n}-point space"
        )
    assignment.setflags(write=False)
    return OperatorValuedMeasure(space, None, PROJECTION, assignment)


def _diagonal_stack(n: int, assignment: np.ndarray) -> np.ndarray:
    """The read-only (n, d, d) int64 atom array of a diagonal assignment."""
    dim = len(assignment)
    atoms = np.zeros((n, dim, dim), dtype=np.int64)
    basis = np.arange(dim)
    atoms[assignment, basis, basis] = 1
    atoms.setflags(write=False)
    return atoms


def measure_of(ovm: OperatorValuedMeasure, atom_ids) -> np.ndarray:
    """Value on the union of the listed atoms (finite additivity)."""
    ids = list(atom_ids)
    if len(set(ids)) != len(ids):
        raise InputParseError("atoms in a union must be distinct")
    return ovm.mats[[ovm.space.index(aid) for aid in ids]].sum(axis=0)


def scalar_measure(F: OperatorValuedMeasure, g, h) -> np.ndarray:
    """Complex atom weights <F(atom) g, h>, linear in g, conjugate-linear in h."""
    g = np.asarray(g, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if g.shape != (F.dim,) or h.shape != (F.dim,):
        raise MismatchedMeasures("vectors must match the Hilbert dimension")
    return np.einsum("i,aij,j->a", h.conj(), linalg.to_complex(F.mats), g)


def integrate(psi, F: OperatorValuedMeasure) -> np.ndarray:
    """sum over atoms of psi(atom) * F(atom); a 2-D psi, one function per
    row, gives the stack of integrals.

    The result is exact (object entries) when F is exact and every value is
    a Python int or a Fraction, and complex128 otherwise.
    """
    stacked = np.ndim(psi) == 2
    rows = [list(f) for f in psi] if stacked else [list(psi)]
    exact = F.is_exact and all(isinstance(x, (int, Fraction)) for f in rows for x in f)
    values = np.array(rows, dtype=object if exact else np.complex128)
    if values.shape[-1] != F.space.n:
        raise MismatchedMeasures("integrand must assign a value to every atom")
    mats = F.mats if exact else linalg.to_complex(F.mats)
    out = np.tensordot(values, mats, axes=(1, 0))
    return out if stacked else out[0]


@dataclass(frozen=True)
class RepresentationReport:
    """Defects of f -> integral(f dF) as a *-homomorphism on atom functions."""

    linearity: float
    multiplicativity: float
    adjoint: float
    unital: float

    @property
    def max_defect(self) -> float:
        return max(self.linearity, self.multiplicativity, self.adjoint, self.unital)


def representation_check(F: OperatorValuedMeasure, seed: int = 0, extra: int = 3) -> RepresentationReport:
    """Measure how far integration against F is from a representation.

    The panel contains every atom indicator plus seeded random complex
    functions.  For projection kind all defects vanish; a genuinely
    non-projective positive kind shows a multiplicativity defect (for
    indicator functions of distinct atoms the product integral is zero
    while the integrals' product is not).
    """
    n = F.space.n
    rng = SplitMix64(seed)
    panel = np.eye(n + extra, n, dtype=np.complex128)
    for f in panel[n:]:
        f[:] = [complex(rng.gauss(), rng.gauss()) for _ in range(n)]
    ints = integrate(panel, F)
    unital = linalg.max_abs(integrate([1] * n, F) - np.eye(F.dim))
    adjoint = linalg.max_abs(integrate(panel.conj(), F) - ints.conj().transpose(0, 2, 1))
    # one row of products f * g at a time keeps every temporary at (n + extra) d^2
    mult = max(
        linalg.max_abs(integrate(f * panel, F) - ints[i] @ ints) for i, f in enumerate(panel)
    )
    lin = 0.0
    for _ in range(3):
        a = complex(rng.gauss(), rng.gauss())
        i = rng.randint(0, len(panel) - 1)
        j = rng.randint(0, len(panel) - 1)
        combo = integrate(a * panel[i] + panel[j], F)
        lin = max(lin, linalg.max_abs(combo - (a * ints[i] + ints[j])))
    return RepresentationReport(
        linearity=float(lin),
        multiplicativity=float(mult),
        adjoint=float(adjoint),
        unital=float(unital),
    )


def conjugate(F: OperatorValuedMeasure, u: np.ndarray) -> OperatorValuedMeasure:
    """Atomwise u F(.) u*; kind and all axioms are preserved.  u must be
    unitary within ``DEFAULT_TOL``, and the result is validated at 1e-9."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (F.dim, F.dim):
        raise MismatchedMeasures("conjugating matrix must match the dimension")
    defect = linalg.spectral_norm(u.conj().T @ u - np.eye(F.dim))
    if defect > DEFAULT_TOL:
        raise NotUnitary(f"u*u differs from the identity by {defect}")
    mats = [u @ linalg.to_complex(m) @ u.conj().T for m in F.mats]
    mats = [(m + m.conj().T) / 2 for m in mats]
    return validate_ovm(F.space, mats, F.kind, tol=1e-9)


def polarize(quadratic_oracle, g, h) -> np.ndarray:
    """Recover the complex measure from the quadratic diagonal v -> A_{v,v}.

    Re A_{g,h} = (A_{g+h,g+h} - A_{g,g} - A_{h,h}) / 2 and
    Im A_{g,h} = -(A_{ig+h,ig+h} - A_{g,g} - A_{h,h}) / 2.
    """
    g = np.asarray(g, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    a_gg = np.asarray(quadratic_oracle(g), dtype=np.float64)
    a_hh = np.asarray(quadratic_oracle(h), dtype=np.float64)
    a_sum = np.asarray(quadratic_oracle(g + h), dtype=np.float64)
    a_isum = np.asarray(quadratic_oracle(1j * g + h), dtype=np.float64)
    re = (a_sum - a_gg - a_hh) / 2.0
    im = -(a_isum - a_gg - a_hh) / 2.0
    return re + 1j * im


def quadratic_oracle_from(F: OperatorValuedMeasure):
    """The diagonal map v -> real atom weights of <F(.)v, v>."""
    return lambda v: scalar_measure(F, v, v).real


def atom_difference_norms(E: OperatorValuedMeasure, F: OperatorValuedMeasure) -> np.ndarray:
    """Operator norm of E(atom) - F(atom) for every atom."""
    if not E.same_frame(F):
        raise MismatchedMeasures("measures live on different spaces or dimensions")
    return linalg.spectral_norms_stack(linalg.to_complex(E.mats) - linalg.to_complex(F.mats))
