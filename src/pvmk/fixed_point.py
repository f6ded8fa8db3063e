"""The contraction on operator valued measures and its fixed point.

One step sends a measure E on depth-(k-1) cells to the measure on depth-k
cells whose value on cell (i, c) is S_i E(c) S_i^*; pulling cell (i, c)
back through branch j is empty unless j = i, so the defining sum collapses
to a single term per atom.  Words are stored first-symbol-major, so the
cells (i, c) form the contiguous atom block i, and in the cell basis S_i
places E(c) as the (i, i) diagonal block of the matrix, which keeps
integer and rational seeds exact.  Likewise the depth-j cylinder of a word
w at level K is the contiguous atom block of width N^(K-j) at index
idx(w) N^(K-j), so cylinder values are block sums.

Iterating from any seed contracts toward the diagonal multiplication
measure at rate max branch ratio per level; values on cells of depth at
most the step count agree with the cylinder projections exactly, whatever
the seed.

The contraction is an equality: rho(Phi E, Phi F) = r rho(E, F), with r the
largest branch ratio, or theta on a theta^lcp tower.  Write D = E - F and
let phi be 1-Lipschitz on level k.  Since (Phi E)(i, c) = S_i E(c) S_i^*,

    integral phi d(Phi E - Phi F) = sum_i S_i (integral psi_i dD) S_i^*,
    psi_i(c) = phi(i c),

and the S_i have orthogonal ranges, so the operator norm is the largest
block norm max_i ||integral psi_i dD||.  Branch i scales distances by
exactly r_i: d(i a, i b) = r_i d(a, b) for |x - y| on representatives
(branch i is x -> r_i x + b_i), and theta^(1 + lcp) = theta theta^lcp on
words, with r_i = theta.  So psi_i is r_i-Lipschitz, and block i is at
most r_i rho(E, F).  Conversely, any r_i-Lipschitz psi on level k - 1
gives a function on block i that is 1-Lipschitz there, and McShane's
extension, min over the block of (value + distance), carries it to a
1-Lipschitz phi on the whole level without changing it on the block.
Taking psi = r_i phi' for the vertex phi' attaining rho(E, F) makes block
i equal r_i rho(E, F).  Hence rho(Phi E, Phi F) = max_i r_i rho(E, F):
the paper's contraction theorem, as in Hutchinson's construction for
probability measures and Jorgensen's fixed point for the Cuntz relations,
holds with equality at every finite level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, ovm
from .cuntz import multiplication_pvm, word_positions
from .errors import LevelOutOfRange, MismatchedMeasures, PvmkError
from .ifs import CylinderTower
from .metric_core import lip1_vertices
from .ovm import OperatorValuedMeasure, diagonal_pvm
from .rho import rho_assignments, rho_exact
from .rng import SplitMix64
from .sampling import random_povm, random_truth_conjugate_pvm

RHO_VERTEX_CAP = 8
RATIO_TOL = 1e-8


def phi_step(tower: CylinderTower, k: int, E: OperatorValuedMeasure) -> OperatorValuedMeasure:
    """One contraction step: level k-1 measure in, level k measure out.

    Atom (i, c) of the output is E(c) placed on block i, unvalidated: the
    output is a measure of E's kind by theorem.  Congruence by an isometry
    keeps each atom Hermitian and positive (and idempotent, with products
    S_i E(c) S_i^* S_i E(c') S_i^* = S_i E(c) E(c') S_i^* vanishing within a
    branch); atoms of different branches live on the ranges of S_i and S_j,
    which are orthogonal; and the atoms sum to sum_i S_i S_i^* = I by the
    Cuntz relation.  So the output is I_N (x) E, which ``ovm.kron_identity``
    stores without building it, in E's form; its atoms are copies of E's, so
    a float seed keeps exactly the defects it was validated with.
    """
    if not 1 <= k <= tower.depth:
        raise LevelOutOfRange(f"step target {k} outside 1..{tower.depth}")
    prev = tower.level(k - 1)
    if E.space != prev.space or E.dim != tower.dim(k - 1):
        raise MismatchedMeasures("measure does not live on the source level")
    return ovm.kron_identity(tower.n_branches, E, tower.level(k).space)


def swapped_diagonal_pvm(tower: CylinderTower, k: int) -> OperatorValuedMeasure:
    """Diagonal measure with the atom order reversed; a canonical off-truth seed."""
    return diagonal_pvm(tower.level(k).space, range(tower.dim(k) - 1, -1, -1))


@dataclass(frozen=True)
class StepRecord:
    step: int
    level: int
    rho_to_truth: float | None
    ratio: float | None


@dataclass(frozen=True)
class PhiTrace:
    seed_desc: str
    records: tuple[StepRecord, ...]
    final: OperatorValuedMeasure
    contraction_bound: float
    prefix_depth_verified: int


def phi_iterate(
    tower: CylinderTower,
    seed: OperatorValuedMeasure,
    steps: int,
    seed_desc: str = "seed",
) -> PhiTrace:
    """Iterate the contraction, tracking distance to the diagonal truth.

    The seed starts at the level with as many atoms as it has (level k
    has N^k), and its space must equal that level's space by value.
    Distances are recorded at levels of at most ``RHO_VERTEX_CAP`` atoms;
    each recorded ratio must respect the contraction bound.  A 0/1
    diagonal measure (the truth, the swapped seed and every step of them)
    is scored by :func:`rho_assignments`, one distance read per moved
    slot, so no level's Lip-1 vertex list or distance table is built for
    it.  A dense or frame seed is scored by :func:`rho_exact` on the
    level's vertices, which builds that level's table.  After the run,
    values on all cells of depth <= steps are checked against the cylinder
    projections (exactly for exact seeds).
    """
    start_level = next(
        (k for k in range(tower.depth + 1) if tower.dim(k) == seed.space.n), None
    )
    if (
        start_level is None
        or tower.level(start_level).space != seed.space
        or seed.dim != tower.dim(start_level)
    ):
        raise MismatchedMeasures("seed does not live on any tower level")
    if start_level + steps > tower.depth:
        raise LevelOutOfRange(
            f"{steps} steps from level {start_level} exceed depth {tower.depth}"
        )
    r = float(tower.contraction)
    records = []
    current = seed
    prev_rho: float | None = None
    for t in range(steps + 1):
        level = start_level + t
        rho_val: float | None = None
        if tower.dim(level) <= RHO_VERTEX_CAP:
            truth = multiplication_pvm(tower, level)
            if current.is_diagonal:
                rho_val = float(rho_assignments(current, truth))
            else:
                space = tower.level(level).space
                verts = lip1_vertices(space)
                rho_val = rho_exact(space, current, truth, verts).value
        ratio = None
        if rho_val is not None and prev_rho is not None and prev_rho > 1e-12:
            ratio = rho_val / prev_rho
            if ratio > r + RATIO_TOL:
                raise PvmkError(
                    f"contraction ratio {ratio} exceeds bound {r} at step {t}"
                )
        records.append(StepRecord(step=t, level=level, rho_to_truth=rho_val, ratio=ratio))
        prev_rho = rho_val
        if t < steps:
            current = phi_step(tower, level + 1, current)
    verified = _verify_prefixes(tower, current, start_level + steps, steps)
    return PhiTrace(
        seed_desc=seed_desc,
        records=tuple(records),
        final=current,
        contraction_bound=r,
        prefix_depth_verified=verified,
    )


def _cylinder_identities(tower: CylinderTower, E: OperatorValuedMeasure, level: int, depth: int):
    """Yield (t, holds) for t = 0..depth, holds[u] saying whether E(cylinder
    of the depth-t word u) is the cylinder projection at ``level``: the atom
    block [u w, (u + 1) w), w = N^(level - t), against the identity on the
    same block of the basis, as ``ovm.block_identities`` checks it."""
    widths = [tower.n_branches ** (level - t) for t in range(depth + 1)]
    return enumerate(ovm.block_identities(E, widths))


def _verify_prefixes(tower: CylinderTower, E: OperatorValuedMeasure, level: int, depth: int) -> int:
    """Largest t <= depth with E(every depth-t cylinder) = cylinder projection."""
    for t, holds in _cylinder_identities(tower, E, level, depth):
        if not holds.all():
            return max(t - 1, 0)
    return depth


@dataclass(frozen=True)
class FixedPointReport:
    depth: int
    words_checked: int
    offending_words: tuple[str, ...]
    rederived_match: bool

    @property
    def passed(self) -> bool:
        return not self.offending_words and self.rederived_match


def verify_fixed_point(
    tower: CylinderTower,
    candidate: OperatorValuedMeasure | None = None,
) -> FixedPointReport:
    """Check the fixed-point identities at the tower's ambient level.

    For every word of every depth, the candidate's value on the word's
    cylinder (the sum of its descendant atoms) must equal the cylinder
    projection, with integer exactness for integer candidates.  The
    default candidate, the diagonal multiplication measure, is also
    re-derived by iterating the contraction from the level-0 seed and
    compared atom by atom.  A candidate must live on the ambient level's
    space with its dimension, or ``MismatchedMeasures`` is raised.
    """
    K = tower.depth
    if candidate is not None and (
        candidate.space != tower.level(K).space or candidate.dim != tower.dim(K)
    ):
        raise MismatchedMeasures("candidate does not live on the ambient level")
    target = candidate if candidate is not None else multiplication_pvm(tower, K)
    offending = []
    checked = 0
    for t, holds in _cylinder_identities(tower, target, K, K):
        checked += holds.size
        ids = tower.level(t).point_ids
        offending += [ids[u] if t else "<empty>" for u in np.flatnonzero(~holds)]
    rederived = multiplication_pvm(tower, 0)  # level 0's one measure: I on the whole space
    for k in range(1, K + 1):
        rederived = phi_step(tower, k, rederived)
    if target.is_diagonal:
        rederived_match = bool(np.array_equal(rederived.assignment, target.assignment))
    else:
        defect = linalg.max_abs(rederived.mats - target.mats)
        rederived_match = defect == 0 if target.is_exact else defect <= 1e-10
    return FixedPointReport(
        depth=K,
        words_checked=checked,
        offending_words=tuple(offending),
        rederived_match=rederived_match,
    )


@dataclass(frozen=True)
class RhoContractionReport:
    level: int
    kind: str
    pairs_tested: int
    pairs_skipped: int
    max_ratio: float | None
    bound: float
    tight_pair_ratio: Fraction | None

    @property
    def passed(self) -> bool:
        return self.max_ratio is None or self.max_ratio <= self.bound + RATIO_TOL


def contraction_ratio_rho(
    tower: CylinderTower,
    k: int,
    trials: int,
    seed: int = 0,
    kind: str = "projection",
) -> RhoContractionReport:
    """Max observed rho ratio across one contraction step at level k.

    Random pairs at level k-1 (unitary conjugates of the diagonal truth,
    or random positive splittings) are stepped to level k and the distance
    ratio is compared against the branch contraction bound.  From k = 2 on,
    the swapped diagonal against the truth is the tightness witness; its
    ratio is exact, read from the assignments by :func:`rho_assignments`.
    """
    if not 1 <= k <= tower.depth:
        raise LevelOutOfRange(f"ratio level {k} outside 1..{tower.depth}")
    rng = SplitMix64(seed)
    space_prev = tower.level(k - 1).space
    space_next = tower.level(k).space
    verts_prev = lip1_vertices(space_prev)
    verts_next = lip1_vertices(space_next)
    dim_prev = tower.dim(k - 1)

    def one_trial(child: SplitMix64) -> float | None:
        if kind == "projection":
            E = random_truth_conjugate_pvm(space_prev, child)
            F = random_truth_conjugate_pvm(space_prev, child)
        else:
            E = random_povm(space_prev, dim_prev, child)
            F = random_povm(space_prev, dim_prev, child)
        rho_prev = rho_exact(space_prev, E, F, verts_prev).value
        if rho_prev <= 1e-12:
            return None
        rho_next = rho_exact(
            space_next, phi_step(tower, k, E), phi_step(tower, k, F), verts_next
        ).value
        return rho_next / rho_prev

    ratios = [r for r in (one_trial(rng.spawn()) for _ in range(trials)) if r is not None]
    tight = None
    if k >= 2:
        truth = multiplication_pvm(tower, k - 1)
        off = swapped_diagonal_pvm(tower, k - 1)
        num = rho_assignments(phi_step(tower, k, off), phi_step(tower, k, truth))
        # off != truth at level >= 1, so the denominator is positive.
        tight = num / rho_assignments(off, truth)
    return RhoContractionReport(
        level=k,
        kind=kind,
        pairs_tested=len(ratios),
        pairs_skipped=trials - len(ratios),
        max_ratio=max(ratios, default=None),
        bound=float(tower.contraction),
        tight_pair_ratio=tight,
    )


@dataclass(frozen=True)
class RelateReport:
    positive_atoms: int
    isometry_defect: float
    intertwine_defect: float
    range_rank: int
    span_rank: int

    @property
    def passed(self) -> bool:
        return (
            self.isometry_defect <= 1e-10
            and self.intertwine_defect <= 1e-10
            and self.range_rank == self.span_rank
        )


def relate_verify(tower: CylinderTower, h) -> RelateReport:
    """Verify the unitary model of the fixed point on one cyclic vector.

    V sends the indicator of atom b, in L^2(mu) over the positive-mass
    atoms, to E(b) h, with E the diagonal truth at the ambient level K.  V
    must be an isometry, V^* P_u V must be multiplication by the indicator
    of each cylinder u, and V's range must be the span of all P_u h.  With
    a the truth's assignment, m_j = |h_j|^2 and mu = bincount(a, m), all of
    this is counted; there is no linear algebra:

    - The columns E(b) h are supported on the disjoint sets {j : a[j] = b},
      so the nonzero ones are independent: ``positive_atoms`` =
      ``range_rank`` = #{mu > 1e-26}.
    - The level-K blocks are the singletons {j}, and coarser P_u h are sums
      of the h_j e_j: ``span_rank`` = #{j : m_j > 1e-26}.
    - The Gram matrix of disjoint columns is diag(mu), the weighted
      space's own inner product: ``isometry_defect`` is 0.0 exactly.
    - V^* P_u V is diagonal too, entry b the share of b's mass inside u's
      basis block.  Against the indicator, the depth-t prefix of b has
      defect 1 minus that share, the share outside; any other depth-t
      word has a part of that same outside share.  So
      ``intertwine_defect`` is the largest share of a positive atom's
      mass outside the block j // N^(K - t) of its depth-t prefix, over
      t = 0..K.  The prefix, the code of b's word mod N^t, is looked up in
      level t's word list by ``cuntz.word_positions``, not computed by the
      block formula, so the two sides come by independent routes and a
      wrong block shows.
    """
    K = tower.depth
    h = np.asarray(h, dtype=np.complex128)
    dim = tower.dim(K)
    if h.shape != (dim,):
        raise MismatchedMeasures("vector must live at the ambient level")
    norm = float(np.sqrt(np.vdot(h, h).real))
    if abs(norm - 1.0) > 1e-12:
        raise PvmkError(f"vector must be a unit vector, norm is {norm}")
    a = multiplication_pvm(tower, K).assignment
    masses = np.abs(h) ** 2
    mu = np.bincount(a, masses, minlength=dim)
    positive = mu > 1e-26
    n = tower.n_branches
    codes = tower.level(K).word_codes.codes
    basis = np.arange(dim)
    intertwine_defect = 0.0
    for t in range(K + 1):
        prefix = word_positions(tower.level(t), codes % n**t)
        outside_block = basis // n ** (K - t) != prefix[a]
        outside = np.bincount(a, np.where(outside_block, masses, 0.0), minlength=dim)
        share = (outside[positive] / mu[positive]).max(initial=0.0)
        intertwine_defect = max(intertwine_defect, float(share))
    atoms = int(positive.sum())
    return RelateReport(
        positive_atoms=atoms,
        isometry_defect=0.0,
        intertwine_defect=intertwine_defect,
        range_rank=atoms,
        span_rank=int((masses > 1e-26).sum()),
    )
