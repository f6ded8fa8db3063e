"""Projection and positive operator valued measures on a finite atom space.

An assignment maps each atom of a finite metric space to a Hermitian
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
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    CrossProductNonzero,
    DimensionMismatch,
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
from .transport import SignedMeasure

PROJECTION = "projection"
POSITIVE = "positive"
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class OperatorValuedMeasure:
    space: FiniteMetricSpace
    dim: int
    mats: tuple[np.ndarray, ...]  # aligned with space.point_ids, read-only
    kind: str

    @property
    def atom_ids(self) -> tuple[str, ...]:
        return self.space.point_ids

    def mat(self, atom_id: str) -> np.ndarray:
        return self.mats[self.space.index(atom_id)]

    @property
    def is_exact(self) -> bool:
        return all(linalg.is_exact_matrix(m) for m in self.mats)

    def same_frame(self, other: "OperatorValuedMeasure") -> bool:
        return (
            self.space.space_hash == other.space.space_hash
            and self.dim == other.dim
        )


def _freeze(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, copy=True)
    out.setflags(write=False)
    return out


def _exact_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(a == b))


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
        raise DimensionMismatch("one matrix per atom is required")
    dim = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for m in mats:
        if m.ndim != 2 or m.shape != (dim, dim):
            raise DimensionMismatch("atom matrices must be square and equally sized")
    exact = all(linalg.is_exact_matrix(m) for m in mats)
    ids = space.point_ids
    for aid, m in zip(ids, mats):
        h = linalg.hermitian_defect(m)
        if (h != 0) if exact else (h > tol):
            raise NotHermitian(aid, float(h))
    if kind == PROJECTION:
        for aid, m in zip(ids, mats):
            mm = np.dot(m, m)
            defect = linalg.max_abs(mm - m)
            if (defect != 0) if exact else (defect > tol):
                raise NotIdempotent(aid, float(defect))
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                defect = linalg.max_abs(np.dot(mats[i], mats[j]))
                if (defect != 0) if exact else (defect > tol):
                    raise CrossProductNonzero(ids[i], ids[j], float(defect))
    else:
        for aid, m in zip(ids, mats):
            min_eig = linalg.min_eigenvalue(m)
            if min_eig < -tol:
                raise NotPSD(aid, min_eig)
    total = mats[0]
    for m in mats[1:]:
        total = total + m
    eye = np.eye(dim, dtype=np.int64) if exact else np.eye(dim)
    defect = linalg.max_abs(total - eye)
    if (defect != 0) if exact else (defect > tol):
        raise SumNotIdentity(float(defect))
    return OperatorValuedMeasure(space, dim, tuple(_freeze(m) for m in mats), kind)


def measure_of(ovm: OperatorValuedMeasure, atom_ids) -> np.ndarray:
    """Value on the union of the listed atoms (finite additivity)."""
    ids = list(atom_ids)
    if len(set(ids)) != len(ids):
        raise InputParseError("atoms in a union must be distinct")
    out = np.zeros((ovm.dim, ovm.dim), dtype=ovm.mats[0].dtype if ids else float)
    for aid in ids:
        out = out + ovm.mat(aid)
    return out


@dataclass(frozen=True)
class ScalarMeasurePair:
    """Complex scalar measure <F(.)g, h> split into real and imaginary parts."""

    real: SignedMeasure
    imag: SignedMeasure
    g: np.ndarray
    h: np.ndarray
    conjugate_symmetry_defect: float | None

    @property
    def weights(self) -> np.ndarray:
        return np.array(self.real.weights) + 1j * np.array(self.imag.weights)

    @property
    def total_variation(self) -> float:
        return float(np.abs(self.weights).sum())

    def total_mass(self) -> complex:
        return complex(self.weights.sum())


def scalar_measure(F: OperatorValuedMeasure, g, h) -> ScalarMeasurePair:
    """Atom weights <F(atom) g, h>, linear in g, conjugate-linear in h."""
    g = np.asarray(g, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if g.shape != (F.dim,) or h.shape != (F.dim,):
        raise DimensionMismatch("vectors must match the Hilbert dimension")
    weights = np.array([np.vdot(h, linalg.to_complex(m) @ g) for m in F.mats])
    reversed_weights = np.array([np.vdot(g, linalg.to_complex(m) @ h) for m in F.mats])
    defect = float(np.abs(weights - reversed_weights.conj()).max()) if len(weights) else 0.0
    return ScalarMeasurePair(
        real=SignedMeasure(tuple(float(x) for x in weights.real)),
        imag=SignedMeasure(tuple(float(x) for x in weights.imag)),
        g=g,
        h=h,
        conjugate_symmetry_defect=defect,
    )


def integrate(psi, F: OperatorValuedMeasure) -> np.ndarray:
    """sum over atoms of psi(atom) * F(atom); exact when both sides are exact."""
    psi = list(psi)
    if len(psi) != F.space.n:
        raise DimensionMismatch("integrand must assign a value to every atom")
    exact = F.is_exact and all(isinstance(x, (int, Fraction)) for x in psi)
    if exact:
        out = np.zeros((F.dim, F.dim), dtype=object)
        for x, m in zip(psi, F.mats):
            out = out + x * m
        return out
    out = np.zeros((F.dim, F.dim), dtype=np.complex128)
    for x, m in zip(psi, F.mats):
        out = out + complex(x) * linalg.to_complex(m)
    return out


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
    panel: list[np.ndarray] = [np.eye(n, dtype=np.complex128)[i] for i in range(n)]
    for _ in range(extra):
        panel.append(
            np.array([complex(rng.gauss(), rng.gauss()) for _ in range(n)])
        )
    ints = [linalg.to_complex(integrate(f, F)) for f in panel]
    unital = linalg.max_abs(integrate([1] * n, F) - np.eye(F.dim))
    adjoint = max(
        linalg.max_abs(linalg.to_complex(integrate(np.conj(f), F)) - m.conj().T)
        for f, m in zip(panel, ints)
    )
    mult = 0.0
    for i, f in enumerate(panel):
        for j, g in enumerate(panel):
            prod = linalg.to_complex(integrate(f * g, F))
            mult = max(mult, linalg.max_abs(prod - ints[i] @ ints[j]))
    lin = 0.0
    for _ in range(3):
        a = complex(rng.gauss(), rng.gauss())
        f = panel[rng.randint(0, len(panel) - 1)]
        g = panel[rng.randint(0, len(panel) - 1)]
        combo = linalg.to_complex(integrate(a * f + g, F))
        fi = linalg.to_complex(integrate(f, F))
        gi = linalg.to_complex(integrate(g, F))
        lin = max(lin, linalg.max_abs(combo - (a * fi + gi)))
    return RepresentationReport(
        linearity=float(lin),
        multiplicativity=float(mult),
        adjoint=float(adjoint),
        unital=float(unital),
    )


def conjugate(F: OperatorValuedMeasure, u: np.ndarray, tol: float = DEFAULT_TOL) -> OperatorValuedMeasure:
    """Atomwise u F(.) u*; kind and all axioms are preserved."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (F.dim, F.dim):
        raise DimensionMismatch("conjugating matrix must match the dimension")
    defect = linalg.spectral_norm(u.conj().T @ u - np.eye(F.dim))
    if defect > tol:
        raise NotUnitary(f"u*u differs from the identity by {defect}")
    mats = [u @ linalg.to_complex(m) @ u.conj().T for m in F.mats]
    mats = [(m + m.conj().T) / 2 for m in mats]
    return validate_ovm(F.space, mats, F.kind, tol=max(tol, 1e-9))


def polarize(quadratic_oracle, g, h) -> ScalarMeasurePair:
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
    return ScalarMeasurePair(
        real=SignedMeasure(tuple(float(x) for x in re)),
        imag=SignedMeasure(tuple(float(x) for x in im)),
        g=g,
        h=h,
        conjugate_symmetry_defect=None,
    )


def quadratic_oracle_from(F: OperatorValuedMeasure):
    """The diagonal map v -> real atom weights of <F(.)v, v>."""

    def oracle(v):
        return np.array(scalar_measure(F, v, v).real.weights)

    return oracle


def atom_difference_norms(E: OperatorValuedMeasure, F: OperatorValuedMeasure) -> np.ndarray:
    """Operator norm of E(atom) - F(atom) for every atom."""
    if not E.same_frame(F):
        raise MismatchedMeasures("measures live on different spaces or dimensions")
    diffs = [linalg.to_complex(a) - linalg.to_complex(b) for a, b in zip(E.mats, F.mats)]
    return linalg.spectral_norms_stack(diffs)
