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
    identities, min eigenvalue for positivity; NaN is never within ``tol``).

    The checks run in a fixed order and raise the first failure: every
    atom Hermitian; then, for projections, every atom idempotent and every
    pair (i, j), i < j, in row order, with max_abs(P_i P_j) within ``tol``;
    for positive measures, every atom PSD; last, the sum is the identity.
    Each defect is computed for the whole stack at once, in blocks of
    atoms that bound every temporary (``_blocks``), and equals, bit for
    bit, the defect of that atom alone.  Pair products are computed only
    for the pairs that :func:`_unsettled_pairs` cannot clear, so that a
    measure that passes clearly costs O(n d^3), not O(n^2 d^3).
    """
    if kind not in (PROJECTION, POSITIVE):
        raise InputParseError(f"unknown kind {kind!r}")
    stack, exact = _stacked(space, mats)
    ids = space.point_ids
    fails = (lambda x: x != 0) if exact else (lambda x: np.logical_not(x <= tol))
    _raise_first(NotHermitian, ids, _each(stack, _hermitian_defects), fails)
    dim = stack.shape[1]
    total = stack.sum(axis=0)
    sum_defect = linalg.max_abs(total - (np.eye(dim, dtype=np.int64) if exact else np.eye(dim)))
    if kind == PROJECTION:
        _raise_first(NotIdempotent, ids, _each(stack, lambda b: _max_abs_each(b @ b - b)), fails)
        for i, j in _unsettled_pairs(stack, exact, total, sum_defect, tol):
            defect = linalg.max_abs(np.dot(stack[i], stack[j]))
            if fails(defect):
                raise CrossProductNonzero(ids[i], ids[j], defect)
    else:
        _raise_first(NotPSD, ids, _each(stack, linalg.min_eigenvalues), lambda x: np.logical_not(x >= -tol))
    if fails(sum_defect):
        raise SumNotIdentity(sum_defect)
    stack.setflags(write=False)
    return OperatorValuedMeasure(space, stack, kind)


# Atoms are checked in blocks of about this many matrix entries, so that a
# temporary of the checks is never larger than one block or one atom.
BLOCK_ENTRIES = 1 << 16


def _stacked(space: FiniteMetricSpace, mats) -> tuple[np.ndarray, bool]:
    """A fresh (n, d, d) stack of the atoms, and whether it is exact.  The
    list of the caller's atoms lives only here, so an iterable of atoms
    made for the call is freed before the checks begin."""
    mats = [np.asarray(m) for m in mats]
    if len(mats) != space.n:
        raise MismatchedMeasures("one matrix per atom is required")
    dim = mats[0].shape[0] if mats[0].ndim == 2 else -1
    if {m.shape for m in mats} != {(dim, dim)}:
        raise MismatchedMeasures("atom matrices must be square and equally sized")
    floats = [t for t in {m.dtype for m in mats} if not linalg.is_exact_dtype(t)]
    # One float atom makes the whole measure float: stacked as they are,
    # exact atoms would turn the stack into an object array claiming exactness.
    dtype = np.result_type(np.float64, *floats) if floats else None
    return np.array(mats, dtype=dtype), not floats


def _blocks(stack: np.ndarray):
    """``(first atom, block)`` for consecutive blocks of the stack's atoms,
    each of about ``BLOCK_ENTRIES`` entries and at least one atom."""
    step = max(1, BLOCK_ENTRIES // max(1, stack.shape[1] ** 2))
    return [(lo, stack[lo : lo + step]) for lo in range(0, len(stack), step)]


def _each(stack: np.ndarray, per_block) -> np.ndarray:
    """``per_block`` of every block of atoms, one value per atom."""
    return np.concatenate([per_block(block) for _, block in _blocks(stack)])


def _max_abs_each(a: np.ndarray) -> np.ndarray:
    """``linalg.max_abs`` of every matrix of a stack: the exact values of
    an object stack, floats otherwise."""
    top = np.abs(a).max(axis=(1, 2), initial=0)
    return top if a.dtype == object else top.astype(np.float64)


def _hermitian_defects(block: np.ndarray) -> np.ndarray:
    """max_abs(P - P*) of every atom, computed as ``linalg.max_abs`` of the
    atom alone was: int64 and extended-precision atoms in complex128."""
    c = block if block.dtype in (object, np.float64, np.complex128) else linalg.to_complex(block)
    return _max_abs_each(c - c.conj().transpose(0, 2, 1))


def _raise_first(error, ids, defects: np.ndarray, fails) -> None:
    """Raise ``error(atom id, defect)`` for the first atom whose defect fails."""
    bad = fails(defects)
    if bad.any():
        i = int(bad.argmax())
        raise error(ids[i], defects.item(i))


def _unsettled_pairs(stack, exact, total, sum_defect, tol) -> list[tuple[int, int]]:
    """The pairs i < j, in row order, whose product must still be computed.

    Both routes find the atoms that could have a failing product; a pair
    is unsettled when both of its atoms are, and every other pair of these
    Hermitian, idempotent atoms passes the loop's check, so the loop's
    first failing pair, if any, is among the unsettled ones.

    Exact atoms.  For Hermitian idempotents tr(P_i P_j) =
    tr((P_j P_i)* (P_j P_i)) = ||P_j P_i||_F^2, so with S the sum of the
    atoms, tr(P_i S) - tr(P_i) = sum over j != i of ||P_j P_i||_F^2.  When S
    is exactly I every product vanishes and no atom is unsettled.
    Otherwise the atoms with a non-zero excess are: each of them has a
    non-zero product, and so has its partner.  int64 atoms are checked in
    int64, as the loop did: a document gives int64 atoms only for entries
    -1, 0 and 1, whose products cannot wrap.

    Float atoms, then pairs, are unsettled past ``tol`` in :func:`_frame_bounds`.
    """
    if not exact:
        m, bound = _frame_bounds(stack)
        atoms = np.flatnonzero(~(bound(m, m.max()) <= tol))
    elif sum_defect != 0:
        excess = _each(stack, lambda b: (b * total.T).sum(axis=(1, 2)) != b.trace(axis1=1, axis2=2))
        atoms = np.flatnonzero(excess)
    else:
        atoms = np.empty(0, int)
    atoms = atoms.tolist()
    return [(i, j) for k, i in enumerate(atoms) for j in atoms[k + 1 :] if exact or not bound(m[i], m[j]) <= tol]


def _frame_bounds(stack: np.ndarray):
    """(m, bound): the loop's max_abs(np.dot(P_i, P_j)) <= bound(m_i, m_j)
    for i != j and any float atoms P_i, from one eigendecomposition.

    A PVM is the spectral measure of H = sum_i (i + 1) P_i.  ``eigh`` of H,
    symmetrized, gives w and eigenvectors v_k; v_k is atom i's when w_k
    rounds to i + 1, and V takes P_i v_k for it, undoing to first order the
    turn that other atoms' noise, weighted by up to n, gives v_k.  With
    V_i atom i's columns, Q_i = V_i V_i*, eta >= ||V* V - I|| and
    m_i >= ||P_i - Q_i||_F, ||Q_i|| = ||V_i* V_i|| <= 1 + eta, and for
    i != j, V_i* V_j is a block of V* V - I, so ||Q_i Q_j|| <= (1 + eta) eta
    and, as P_i = Q_i + E_i with ||E_i|| <= m_i,

        ||P_i P_j|| <= (1 + eta)(eta + m_i + m_j) + m_i m_j.

    Nothing is assumed of the solver or the atoms.  With eps = 2^-52,
    c = (d + 2) eps and f = (d^2 + 2) eps, a float sum of products a_k b_k,
    k <= d, errs by at most c sum_k |a_k| |b_k|, real or complex, so
    (Cauchy-Schwarz) fl(V* V) and fl(Q_i) err in Frobenius norm by at most
    c d (1 + eta) and c r_i (1 + eta), with r_i columns in V_i; a computed
    Frobenius norm of a float difference is within a factor 1 + f.  So
    from the computed a = ||fl(V* V) - I||_F and a_i = ||P_i - fl(Q_i)||_F,
    eta = (a (1 + f) + c d) / (1 - c d) and m_i = a_i (1 + f) + c r_i (1 + eta).
    The loop's float product exceeds ||P_i P_j|| in max_abs by at most
    c ||P_i|| ||P_j||, with ||P_i|| <= 1 + eta + m_i; the bound takes twice
    that, half for its own rounding below 1/2.
    """
    n, dim = stack.shape[:2]
    c, f = (dim + 2) * 2.0**-52, (dim * dim + 2) * 2.0**-52
    h = (np.arange(1.0, n + 1) @ stack.reshape(n, -1)).reshape(dim, dim)
    w, vecs = linalg.eigendecomposition((h + h.conj().T) / 2)
    owner, vecs = np.rint(w).astype(np.intp) - 1, vecs.astype(np.result_type(vecs, stack))
    m = np.empty(n)
    for lo, block in _blocks(stack):
        cols = np.flatnonzero((owner >= lo) & (owner < lo + len(block)))
        mask = owner[cols] - lo == np.arange(len(block))[:, None, None]
        vecs[:, cols] = (block @ (vecs[:, cols] * mask)).sum(axis=0)
        q = (vecs[:, cols] * mask) @ vecs[:, cols].conj().T
        m[lo : lo + len(block)] = np.linalg.norm(block - q, axis=(1, 2))
    eta = (np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) * (1 + f) + c * dim) / (1 - c * dim)
    m = m * (1 + f) + c * (1 + eta) * np.bincount(owner[(owner >= 0) & (owner < n)], minlength=n)
    return m, lambda a, b: (1 + eta) * (eta + a + b) + a * b + 2 * c * (1 + eta + a) * (1 + eta + b)


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
    gap = u.conj().T @ u - np.eye(F.dim)
    defect = linalg.spectral_norm(gap) if np.isfinite(gap).all() else linalg.max_abs(gap)  # LAPACK refuses NaN
    if not defect <= DEFAULT_TOL:
        raise NotUnitary(f"u*u differs from the identity by {defect}")
    mats = u @ linalg.to_complex(F.mats) @ u.conj().T
    return validate_ovm(F.space, (mats + mats.conj().transpose(0, 2, 1)) / 2, F.kind, tol=1e-9)


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
