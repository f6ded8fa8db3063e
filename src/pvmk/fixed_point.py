"""The contraction on operator valued measures and its fixed point.

One step sends a measure E on depth-(k-1) cells to the measure on depth-k
cells whose value on cell (i, c) is S_i E(c) S_i^*; pulling cell (i, c)
back through branch j is empty unless j = i, so the defining sum collapses
to a single term per atom.  In the cell basis S_i places E(c) as the
(i, i) diagonal block, which keeps integer and rational seeds exact.

Iterating from any seed contracts toward the diagonal multiplication
measure at rate max branch ratio per level; values on cells of depth at
most the step count agree with the cylinder projections exactly, whatever
the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .cuntz import (
    CuntzTower,
    cylinder_projection,
    multiplication_pvm,
    prefix_atoms,
)
from .errors import (
    KindViolation,
    LevelOutOfRange,
    MismatchedMeasures,
    OvmAxiomError,
    PvmkError,
    ZeroMassEverywhere,
)
from .ifs import word_id
from .metric_core import Lip1VertexSet, lip1_vertices
from .ovm import OperatorValuedMeasure, measure_of, validate_ovm
from .rho import rho_exact
from .rng import SplitMix64
from .sampling import random_povm, random_truth_conjugate_pvm

RHO_VERTEX_CAP = 8
RATIO_TOL = 1e-8


def phi_step(ct: CuntzTower, k: int, E: OperatorValuedMeasure) -> OperatorValuedMeasure:
    """One contraction step: level k-1 measure in, level k measure out."""
    if not 1 <= k <= ct.depth:
        raise LevelOutOfRange(f"step target {k} outside 1..{ct.depth}")
    prev = ct.tower.level(k - 1)
    if E.space.space_hash != prev.space.space_hash or E.dim != ct.dim(k - 1):
        raise MismatchedMeasures("measure does not live on the source level")
    d_prev = ct.dim(k - 1)
    d_next = ct.dim(k)
    dtype = E.mats[0].dtype
    mats = []
    for i in range(ct.n_branches):
        for m in range(d_prev):
            out = np.zeros((d_next, d_next), dtype=dtype)
            out[i * d_prev : (i + 1) * d_prev, i * d_prev : (i + 1) * d_prev] = E.mats[m]
            mats.append(out)
    try:
        return validate_ovm(ct.tower.level(k).space, mats, E.kind)
    except OvmAxiomError as exc:  # pragma: no cover - congruence preserves the kind
        raise KindViolation(f"step output failed validation: {exc}") from exc


def swapped_diagonal_pvm(ct: CuntzTower, k: int) -> OperatorValuedMeasure:
    """Diagonal measure with the atom order reversed; a canonical off-truth seed."""
    dim = ct.dim(k)
    mats = []
    for m in range(dim):
        mat = np.zeros((dim, dim), dtype=np.int64)
        j = dim - 1 - m
        mat[j, j] = 1
        mats.append(mat)
    return validate_ovm(ct.tower.level(k).space, mats, "projection")


def trivial_seed(ct: CuntzTower) -> OperatorValuedMeasure:
    """The unique measure at level 0: the whole space carries the identity."""
    return multiplication_pvm(ct, 0)


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


def _level_vertices(ct: CuntzTower, k: int, cache: dict, cap: int) -> Lip1VertexSet | None:
    if ct.dim(k) > cap:
        return None
    if k not in cache:
        cache[k] = lip1_vertices(ct.tower.level(k).space, cap=cap)
    return cache[k]


def phi_iterate(
    ct: CuntzTower,
    seed: OperatorValuedMeasure,
    steps: int,
    seed_desc: str = "seed",
    rho_cap: int = RHO_VERTEX_CAP,
) -> PhiTrace:
    """Iterate the contraction, tracking distance to the diagonal truth.

    Distances are recorded at levels whose atom count fits under
    ``rho_cap``; each recorded ratio must respect the contraction bound.
    After the run, values on all cells of depth <= steps are checked
    against the cylinder projections (exactly for exact seeds).
    """
    start_level = None
    for k in range(ct.depth + 1):
        if ct.tower.level(k).space.space_hash == seed.space.space_hash:
            start_level = k
            break
    if start_level is None:
        raise MismatchedMeasures("seed does not live on any tower level")
    if start_level + steps > ct.depth:
        raise LevelOutOfRange(
            f"{steps} steps from level {start_level} exceed depth {ct.depth}"
        )
    r = float(ct.tower.contraction)
    cache: dict[int, Lip1VertexSet] = {}
    records = []
    current = seed
    prev_rho: float | None = None
    for t in range(steps + 1):
        level = start_level + t
        verts = _level_vertices(ct, level, cache, rho_cap)
        rho_val: float | None = None
        if verts is not None:
            truth = multiplication_pvm(ct, level)
            rho_val = rho_exact(ct.tower.level(level).space, current, truth, verts).value
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
            current = phi_step(ct, level + 1, current)
    verified = _verify_prefixes(ct, current, start_level + steps, steps)
    return PhiTrace(
        seed_desc=seed_desc,
        records=tuple(records),
        final=current,
        contraction_bound=r,
        prefix_depth_verified=verified,
    )


def _verify_prefixes(ct: CuntzTower, E: OperatorValuedMeasure, level: int, depth: int) -> int:
    """Largest t <= depth with E(every depth-t cylinder) = cylinder projection."""
    exact = E.is_exact
    verified = 0
    for t in range(depth + 1):
        ok = True
        for word in ct.tower.level(t).words:
            lhs = measure_of(E, prefix_atoms(ct, word, level))
            rhs = cylinder_projection(ct, word, level)
            defect = linalg.max_abs(lhs - rhs)
            if (defect != 0) if exact else (defect > 1e-10):
                ok = False
                break
        if not ok:
            break
        verified = t
    return verified


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
    ct: CuntzTower,
    candidate: OperatorValuedMeasure | None = None,
) -> FixedPointReport:
    """Check the fixed-point identities at the tower's ambient level.

    For every word of every depth, the candidate's value on the word's
    cylinder (the sum of its descendant atoms) must equal the cylinder
    projection, with integer exactness for integer candidates.  The
    default candidate, the diagonal multiplication measure, is also
    re-derived by iterating the contraction from the level-0 seed and
    compared atom by atom.
    """
    K = ct.depth
    target = candidate if candidate is not None else multiplication_pvm(ct, K)
    exact = target.is_exact
    offending = []
    checked = 0
    for t in range(K + 1):
        for word in ct.tower.level(t).words:
            checked += 1
            lhs = measure_of(target, prefix_atoms(ct, word, K))
            rhs = cylinder_projection(ct, word, K)
            defect = linalg.max_abs(lhs - rhs)
            if (defect != 0) if exact else (defect > 1e-10):
                offending.append(word_id(word) if word else "<empty>")
    rederived = trivial_seed(ct)
    for k in range(1, K + 1):
        rederived = phi_step(ct, k, rederived)
    rederived_match = all(
        linalg.max_abs(a - b) == 0 if exact else linalg.max_abs(a - b) <= 1e-10
        for a, b in zip(rederived.mats, target.mats)
    )
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
    ct: CuntzTower,
    k: int,
    trials: int,
    seed: int = 0,
    kind: str = "projection",
    rho_cap: int = RHO_VERTEX_CAP,
    include_tight_pair: bool = True,
) -> RhoContractionReport:
    """Max observed rho ratio across one contraction step at level k.

    Random pairs at level k-1 (unitary conjugates of the diagonal truth,
    or random positive splittings) are stepped to level k and the distance
    ratio is compared against the branch contraction bound.  The swapped
    diagonal against the truth is included as the tightness witness when
    requested; its ratio is exact.
    """
    if not 1 <= k <= ct.depth:
        raise LevelOutOfRange(f"ratio level {k} outside 1..{ct.depth}")
    rng = SplitMix64(seed)
    space_prev = ct.tower.level(k - 1).space
    space_next = ct.tower.level(k).space
    verts_prev = lip1_vertices(space_prev, cap=rho_cap)
    verts_next = lip1_vertices(space_next, cap=rho_cap)
    dim_prev = ct.dim(k - 1)

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
            space_next, phi_step(ct, k, E), phi_step(ct, k, F), verts_next
        ).value
        return rho_next / rho_prev

    children = [rng.spawn() for _ in range(trials)]
    ratios = [one_trial(child) for child in children]
    best: float | None = None
    skipped = 0
    for ratio in ratios:
        if ratio is None:
            skipped += 1
        elif best is None or ratio > best:
            best = ratio
    tight = None
    if include_tight_pair:
        truth = multiplication_pvm(ct, k - 1)
        if k - 1 >= 1:
            off = swapped_diagonal_pvm(ct, k - 1)
            num = rho_exact(
                space_next, phi_step(ct, k, off), phi_step(ct, k, truth), verts_next
            )
            den = rho_exact(space_prev, off, truth, verts_prev)
            if num.exact is not None and den.exact is not None and den.exact != 0:
                tight = num.exact / den.exact
            elif den.value > 0:
                tight = Fraction(num.value / den.value).limit_denominator(10**12)
    return RhoContractionReport(
        level=k,
        kind=kind,
        pairs_tested=trials - skipped,
        pairs_skipped=skipped,
        max_ratio=best,
        bound=float(ct.tower.contraction),
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


def relate_verify(ct: CuntzTower, h, k: int | None = None) -> RelateReport:
    """Verify the unitary model of the fixed point on one cyclic vector.

    With E the diagonal truth at the ambient level and w the atom masses
    <E(a)h, h>, the map sending the indicator of atom a (in the weighted
    space over positive-mass atoms) to E(a) h is an isometry; conjugating
    a cylinder projection through it acts as multiplication by the
    cylinder's indicator; and its range is the span of all projected
    vectors P h over cylinder words.
    """
    K = ct.depth if k is None else k
    h = np.asarray(h, dtype=np.complex128)
    dim = ct.dim(K)
    if h.shape != (dim,):
        raise MismatchedMeasures("vector must live at the ambient level")
    norm = float(np.sqrt(np.vdot(h, h).real))
    if abs(norm - 1.0) > 1e-12:
        raise PvmkError(f"vector must be a unit vector, norm is {norm}")
    masses = np.abs(h) ** 2
    positive = [a for a in range(dim) if masses[a] > 1e-26]
    if not positive:
        raise ZeroMassEverywhere("unit vector with no atom mass")
    # columns of v: the atom images E(a) h = h_a e_a, restricted to positive atoms
    v = np.zeros((dim, len(positive)), dtype=np.complex128)
    for col, a in enumerate(positive):
        v[a, col] = h[a]
    w = masses[positive]
    gram = v.conj().T @ v
    isometry_defect = linalg.max_abs(gram - np.diag(w))
    intertwine_defect = 0.0
    for t in range(K + 1):
        for word in ct.tower.level(t).words:
            proj = cylinder_projection(ct, word, K).astype(np.float64)
            conj = (v.conj().T @ (proj @ v)) / w[None, :]
            indicator = np.diag(
                [float(proj[a, a]) for a in positive]
            )
            intertwine_defect = max(
                intertwine_defect, linalg.max_abs(conj - indicator)
            )
    span_vecs = []
    for t in range(K + 1):
        for word in ct.tower.level(t).words:
            proj = cylinder_projection(ct, word, K)
            span_vecs.append(proj.astype(np.float64) @ h)
    range_rank = linalg.gram_rank([v[:, c] for c in range(v.shape[1])])
    span_rank = linalg.gram_rank(span_vecs)
    return RelateReport(
        positive_atoms=len(positive),
        isometry_defect=float(isometry_defect),
        intertwine_defect=float(intertwine_defect),
        range_rank=range_rank,
        span_rank=span_rank,
    )


def scalar_pushforward_defect(
    ct: CuntzTower, k: int, E: OperatorValuedMeasure, h
) -> float:
    """Compatibility of the step with scalar measures on one vector.

    The stepped measure's diagonal weight on cell (i, c) must equal the
    source measure's weight on cell c against the branch-pulled vector
    S_i^* h.
    """
    from .cuntz import s_matrix
    from .ovm import scalar_measure

    stepped = phi_step(ct, k, E)
    h = np.asarray(h, dtype=np.complex128)
    lhs = np.array(scalar_measure(stepped, h, h).real.weights)
    d_prev = ct.dim(k - 1)
    rhs = np.empty_like(lhs)
    for i in range(ct.n_branches):
        si = s_matrix(ct, i, k).matrix.astype(np.float64)
        pulled = si.T @ h
        part = np.array(scalar_measure(E, pulled, pulled).real.weights)
        rhs[i * d_prev : (i + 1) * d_prev] = part
    return float(np.abs(lhs - rhs).max())
