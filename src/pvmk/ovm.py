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
    FrameTooLarge,
    InputParseError,
    MismatchedMeasures,
    NotHermitian,
    NotIdempotent,
    NotPSD,
    NotUnitary,
    StackTooLarge,
    SumNotIdentity,
)
from .metric_core import FiniteMetricSpace
from .rng import SplitMix64

PROJECTION = "projection"
POSITIVE = "positive"
DEFAULT_TOL = 1e-10
# The largest dense (n, d, d) atom stack, in bytes, that ``random_povm`` or
# the ``mats`` of a stepped or frame form builds; a larger one raises
# ``StackTooLarge`` before any of it is allocated.  A contraction step builds
# nothing, so no stack is built until ``mats`` is read.  4 GiB admits a
# dyadic depth-9 level (512 atoms of 512 x 512: 1 GiB in float64, 2 GiB in
# complex128) and refuses depth 10 (1024 atoms: 8 GiB in float64).
STACK_BYTES_BUDGET = 1 << 32


def check_stack_budget(n: int, d: int, dtype) -> None:
    """Raise ``StackTooLarge`` when an (n, d, d) stack of ``dtype`` would
    exceed ``STACK_BYTES_BUDGET``."""
    nbytes = n * d * d * np.dtype(dtype).itemsize
    if nbytes > STACK_BYTES_BUDGET:
        raise StackTooLarge((n, d, d), nbytes, STACK_BYTES_BUDGET)


@dataclass(frozen=True, eq=False)
class OperatorValuedMeasure:
    """A measure of ``kind`` on the atoms of ``space``, in one of two forms.

    Dense: the read-only (n_s, d_s, d_s) seed stack ``dense`` of atoms E_s
    gives I_k (x) E_s, k = n / n_s: atom w n_s + c is E_s(c) on basis block
    w.  With k = 1, as for every measure not made by a contraction step,
    ``dense`` is the atom array, aligned with ``space.point_ids``.

    Frame: a PVM may leave ``dense`` None and hold a read-only d_s x d_s
    unitary ``frame`` U and ``assignment`` of length d = k d_s.  Its frame
    is I_k (x) U, the basis k copies of U's, and atom a is the projection
    onto the span of the columns (I_k (x) U) e_j with assignment[j] = a.
    The exact frame [[1]] gives the 0/1 diagonal PVM.

    ``mats`` is the (n, d, d) atom array in either form, built when first
    read.  Measures compare and hash by identity, as arrays have no single
    truth value.
    """

    space: FiniteMetricSpace
    dense: np.ndarray | None
    kind: str
    assignment: np.ndarray | None = None
    frame: np.ndarray | None = None

    @cached_property
    def mats(self) -> np.ndarray:
        if self.dense is None:
            return _frame_stack(self.space.n, self.frame, self.assignment)
        return _tiled_stack(self.space.n, self.dense)

    @property
    def is_diagonal(self) -> bool:
        """A 0/1 diagonal PVM: a frame form with an exact 1 x 1 frame."""
        return self.dense is None and len(self.frame) == 1 and self.is_exact

    @property
    def dim(self) -> int:
        if self.dense is None:
            return len(self.assignment)
        return self.space.n // len(self.dense) * self.dense.shape[1]

    @property
    def atom_ids(self) -> tuple[str, ...]:
        return self.space.point_ids

    @property
    def is_exact(self) -> bool:
        return linalg.is_exact_matrix(self.frame if self.dense is None else self.dense)

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
    eta = (a (1 + f) + c d) / (1 - c d) (:func:`_frame_eta`) and
    m_i = a_i (1 + f) + c r_i (1 + eta).
    The loop's float product exceeds ||P_i P_j|| in max_abs by at most
    c ||P_i|| ||P_j||, with ||P_i|| <= 1 + eta + m_i; the bound
    (:func:`_pair_bound`) takes twice that, half for its own rounding below 1/2.

    A frame (:func:`frame_pvm`) is the case V = U, with atoms formed as
    P_i = fl(Q_i) = fl(U_i U_i*).  There is no eigenvector to find, and
    m_i = c_i r_i (1 + eta), c_i = (r_i + 2) eps, is the forming rounding
    alone, as that sum has r_i terms.  The other checks of ``validate_ovm``
    are bounded the same way, with room for their own rounding:

    - Hermitian: Q_i is, so P_i - P_i* = E_i - E_i* is at most 2 m_i; the
      bound adds c, far above the rounding of that difference.
    - Idempotent: Q_i^2 - Q_i = U_i (U_i* U_i - I) U_i*, and U_i* U_i - I is
      a block of U* U - I, so ||Q_i^2 - Q_i|| <= ||U_i||^2 eta <= (1 + eta)
      eta, and ||P_i^2 - P_i|| <= (1 + eta)(eta + 2 m_i) + m_i^2 + m_i:
      the pair bound with j = i, whose rounding term covers the product
      and the difference, plus m_i for the - E_i.
    - Sum: sum_i P_i - I = (U U* - I) + sum_i E_i.  For square U,
      ||U U* - I|| = ||U* U - I|| <= eta.  Entry (k, l) of sum_i E_i is at
      most sum_i c_i sum over U_i's columns of |u_k| |u_l|, which is at most
      c_r (1 + eta) with c_r the largest c_i, as rows of U have norm at most
      ||U|| <= (1 + eta)^(1/2).  Summing the atoms adds at most c times the
      sum of |entries|, itself at most (1 + eta)(1 + c_r); the bound takes
      twice that, half for the subtraction of I and its own rounding.
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
    eta = _frame_eta(np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)), dim)
    m = m * (1 + f) + c * (1 + eta) * np.bincount(owner[(owner >= 0) & (owner < n)], minlength=n)
    return m, lambda a, b: _pair_bound(eta, c, a, b)


def _frame_eta(gram_defect: float, dim: int) -> float:
    """eta >= ||V* V - I|| from a = ||fl(V* V) - I||_F, computed for the d
    columns of V (proof in :func:`_frame_bounds`); NaN for a NaN entry."""
    c, f = (dim + 2) * 2.0**-52, (dim * dim + 2) * 2.0**-52
    return (gram_defect * (1 + f) + c * dim) / (1 - c * dim)


def _pair_bound(eta: float, c: float, a, b):
    """The bound of :func:`_frame_bounds` on the loop's pair product."""
    return (1 + eta) * (eta + a + b) + a * b + 2 * c * (1 + eta + a) * (1 + eta + b)


def frame_defect_bounds(frame: np.ndarray, assignment: np.ndarray) -> dict[str, float]:
    """Upper bounds on the defects ``validate_ovm`` measures on the atoms of
    a frame form, from one product: "hermitian" and "idempotent" for every
    atom, "pair" for every pair, "sum" for the sum less the identity, all
    in max_abs, as proved in :func:`_frame_bounds`.  Every sum a check
    forms has at most d_s non-zero terms, the atoms being block diagonal
    on the copies."""
    dim = len(frame)
    gram_defect = np.linalg.norm(frame.conj().T @ frame - np.eye(dim))
    return _defect_bounds(gram_defect, dim, int(np.bincount(assignment).max()))


def _defect_bounds(gram_defect: float, dim: int, r: int) -> dict[str, float]:
    """:func:`frame_defect_bounds` of a d x d frame with ||fl(U* U) - I||_F
    = gram_defect and at most r columns in an atom."""
    c = (dim + 2) * 2.0**-52
    eta = _frame_eta(gram_defect, dim)
    c_r = (r + 2) * 2.0**-52
    m = c_r * r * (1 + eta)
    pair = _pair_bound(eta, c, m, m)
    return {
        "hermitian": 2 * m + c,
        "idempotent": pair + m,
        "pair": pair,
        "sum": eta + c_r * (1 + eta) + 2 * c * (1 + c_r) * (1 + eta),
    }


def check_frame_size(dim: int) -> None:
    """Raise ``FrameTooLarge`` when no d x d frame can be certified: even
    with fl(U* U) = I and one column per atom, the bounds' own rounding
    terms, about (d + 2) d 2^-52, pass ``DEFAULT_TOL`` (from d = 670 on)."""
    floor = max(_defect_bounds(0.0, dim, 1).values())
    if not floor <= DEFAULT_TOL:
        raise FrameTooLarge(dim, floor, DEFAULT_TOL)


_UNIT_FRAME = np.ones((1, 1), dtype=np.int64)
_UNIT_FRAME.setflags(write=False)


def diagonal_pvm(space: FiniteMetricSpace, assignment) -> OperatorValuedMeasure:
    """PVM sending atom a to the projection onto {e_j : assignment[j] = a}.

    It is the frame form with the exact frame U = I_1 on d copies, so only
    the assignment is stored, and its int64 atoms are built when ``mats`` is
    first read.  No ``validate_ovm`` is needed, because the
    result is a projection valued measure by construction: every atom is a
    0/1 diagonal matrix, hence Hermitian and idempotent; distinct atoms
    have disjoint diagonal supports, so their products vanish; and each
    basis vector is assigned to exactly one atom, so the atoms sum to the
    identity.  That last step needs every entry to name an atom, which is
    checked here: an entry outside 0..n-1 raises ``MismatchedMeasures``.
    """
    return OperatorValuedMeasure(space, None, PROJECTION, _checked_assignment(space, assignment), _UNIT_FRAME)


def frame_pvm(space: FiniteMetricSpace, frame, assignment) -> OperatorValuedMeasure:
    """PVM E(a) = U diag(1[assignment = a]) U* of a d x d unitary frame U.

    A copy of U and the assignment are stored; the atoms are built when
    ``mats`` is first read, so no (n, d, d) stack is held before then.  In
    place of ``validate_ovm`` on those atoms, one product U* U certifies
    them: ``frame_defect_bounds`` bounds every defect that ``validate_ovm``
    would measure, and a bound over ``DEFAULT_TOL`` (or NaN) raises
    ``NotUnitary``.  An assignment entry that names no atom raises
    ``MismatchedMeasures``, as in :func:`diagonal_pvm`, and a frame too
    large for any certificate raises ``FrameTooLarge`` (``check_frame_size``).
    """
    assignment = _checked_assignment(space, assignment)
    check_frame_size(len(assignment))
    frame = np.asarray(frame)
    frame = np.array(frame, dtype=np.result_type(frame, np.float64))
    if frame.shape != (len(assignment), len(assignment)):
        raise MismatchedMeasures("the frame must be square, one column per assignment entry")
    bounds = frame_defect_bounds(frame, assignment)
    worst = max(bounds.values())
    if not worst <= DEFAULT_TOL:
        raise NotUnitary(f"u*u is too far from the identity: the atoms' defects are bounded only by {worst}")
    frame.setflags(write=False)
    return OperatorValuedMeasure(space, None, PROJECTION, assignment, frame)


def _checked_assignment(space: FiniteMetricSpace, assignment) -> np.ndarray:
    """A read-only intp copy of the assignment, every entry an atom of space."""
    assignment = np.array(assignment, dtype=np.intp)
    outside = (assignment < 0) | (assignment >= space.n)
    if outside.any():
        raise MismatchedMeasures(
            f"assignment entry {assignment[outside][0]} names no atom of a {space.n}-point space"
        )
    assignment.setflags(write=False)
    return assignment


def _tiled_stack(n: int, seed: np.ndarray) -> np.ndarray:
    """The (n, d, d) atoms of n / n_s copies of a seed stack, copy w on
    basis block w: entry for entry what placing each step's atoms gives."""
    n_s, d_s = seed.shape[:2]
    copies = n // n_s
    if copies == 1:
        return seed
    check_stack_budget(n, copies * d_s, seed.dtype)
    atoms = np.zeros((n, copies * d_s, copies * d_s), dtype=seed.dtype)
    for w in range(copies):
        block = slice(w * d_s, (w + 1) * d_s)
        atoms[w * n_s : (w + 1) * n_s, block, block] = seed
    atoms.setflags(write=False)
    return atoms


def _frame_stack(n: int, frame: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """The read-only (n, d, d) atom array of a frame form, entry for entry
    the tiled atoms of a dense seed of the same frame and assignment
    (:func:`_tiled_stack`): on each copy, atom a is b b*, with b the
    columns of U that the copy assigns to a.  The copy's atoms are listed
    by a set, not ``np.unique``, whose first call imports ``numpy.ma``
    (about 1 MB of peak memory)."""
    width, dim = len(frame), len(assignment)
    check_stack_budget(n, dim, frame.dtype)
    atoms = np.zeros((n, dim, dim), dtype=frame.dtype)
    for lo in range(0, dim, width):
        local, block = assignment[lo : lo + width], slice(lo, lo + width)
        for atom in set(local.tolist()):
            b = frame[:, local == atom]
            atoms[atom, block, block] = b @ b.conj().T
    atoms.setflags(write=False)
    return atoms


def kron_identity(copies: int, E: OperatorValuedMeasure, space: FiniteMetricSpace) -> OperatorValuedMeasure:
    """I_copies (x) E on ``space`` (copies n_E atoms, atom i n_E + c being
    E(c) on basis block i), stored as E is, in O(copies d) at most: a dense
    form keeps its seed, and a frame form U with assignment i n_E + a[j]."""
    if E.dense is not None:
        return OperatorValuedMeasure(space, E.dense, E.kind)
    offsets = np.arange(copies, dtype=np.intp)[:, None] * E.space.n
    assignment = (offsets + E.assignment).ravel()
    assignment.setflags(write=False)
    return OperatorValuedMeasure(space, None, E.kind, assignment, E.frame)


def block_identities(E: OperatorValuedMeasure, widths):
    """For each width w in ``widths``, a divisor of n = d, yield holds:
    holds[u] says atoms u w .. (u + 1) w - 1 of E sum to the identity on
    basis block [u w, (u + 1) w) and to zero off it, exactly for exact E,
    within 1e-10 otherwise (on a tower level, the cylinder identities).
    What every width shares is computed once per walk.

    - A dense form of k copies of a seed with n_s atoms sums a block of
      whole copies (w a multiple of n_s) to copies of the seed's sum, so
      each holds exactly when the seed's atoms sum to I; a block inside a
      copy holds as the seed's own block does, so the seed's are tiled.
    - A frame form whose copies of d_s basis vectors tile the block (w a
      multiple of d_s) projects onto {e_j : a[j] // w = u}, so the identity
      fails exactly for the blocks a[j] // w and j // w of every j where the
      two differ; a block of unmoved copies sums to U U* on each: I
      exactly when an exact U* U is, and within 1e-10 of I when
      ``frame_defect_bounds`` certifies the sum of a float frame.  A block
      inside one copy is summed from ``mats``.
    """
    exact = E.is_exact
    if E.dense is not None:
        seed, copies = E.dense, E.space.n // len(E.dense)
        whole = _block_holds(seed, len(seed), exact)[0]
        for w in widths:
            yield np.full(E.space.n // w, whole) if w % len(seed) == 0 else np.tile(_block_holds(seed, w, exact), copies)
        return
    a, basis, u = E.assignment, np.arange(E.dim), E.frame
    if exact:
        sums_hold = not (u.conj().T @ u - np.eye(len(u), dtype=int)).any()
    else:
        sums_hold = frame_defect_bounds(u, a)["sum"] <= 1e-10
    for w in widths:
        if w % len(u):
            yield _block_holds(E.mats, w, exact)
            continue
        moved = a // w != basis // w
        holds = np.full(E.space.n // w, sums_hold)
        holds[a[moved] // w] = False
        holds[basis[moved] // w] = False
        yield holds


def _block_holds(stack: np.ndarray, w: int, exact: bool) -> np.ndarray:
    """Whether each block of w atoms sums to the identity on its basis
    block, summed directly, forming about ``BLOCK_ENTRIES`` entries of sums
    at a time besides the atoms."""
    n, d = stack.shape[:2]
    blocks = stack.reshape(n // w, w, d, d)
    step = max(1, BLOCK_ENTRIES // (d * d))
    defects = []
    for start in range(0, n // w, step):
        sums = blocks[start : start + step].sum(axis=1)
        rows = np.arange(start * w, start * w + len(sums) * w)
        sums[rows // w - start, rows, rows] -= 1
        defects.append(np.abs(sums).max(axis=(1, 2)))
    defects = np.concatenate(defects)
    return (defects == 0) if exact else (defects <= 1e-10)


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
    a Python int or a Fraction, and complex128 otherwise, with every zero
    +0: the sign a BLAS kernel gives a sum of zeros depends on the number
    of rows.  A 0/1 diagonal measure stored as an assignment a gives
    diag(psi[a]) without building its atoms (``_assigned_integrals``); a
    frame form integrates its built atoms, as a dense copy would.
    """
    stacked = np.ndim(psi) == 2
    rows = [list(f) for f in psi] if stacked else [list(psi)]
    exact = F.is_exact and all(isinstance(x, (int, Fraction)) for f in rows for x in f)
    values = np.array(rows, dtype=object if exact else np.complex128)
    if values.shape[-1] != F.space.n:
        raise MismatchedMeasures("integrand must assign a value to every atom")
    if F.is_diagonal:
        out = _assigned_integrals(values, F.assignment)
    else:
        out = np.tensordot(values, F.mats if exact else linalg.to_complex(F.mats), axes=(1, 0))
    if not exact:
        out += 0.0
    return out if stacked else out[0]


def _assigned_integrals(values: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """diag(row[assignment]) for every row of ``values``, entry for entry
    what the product with the dense 0/1 atoms gives.  Each entry of that
    product sums every value of its row, times 1 or 0, so in an exact row
    every entry is a Fraction if one value is, and an int otherwise."""
    dim = len(assignment)
    out = np.zeros((len(values), dim, dim), dtype=values.dtype)
    diag = values[:, assignment]
    if values.dtype == object:
        for r, row in enumerate(values):
            kind = Fraction if any(isinstance(x, Fraction) for x in row) else int
            out[r] = kind(0)
            diag[r] = [kind(x) for x in diag[r]]
    out[:, range(dim), range(dim)] = diag
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
