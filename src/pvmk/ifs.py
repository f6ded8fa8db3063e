"""Contractive interval IFS with disjoint branches and its cylinder tower.

The tower discretizes the attractor: level k holds one representative per
length-k branch word, with exact rational coordinates that cohere across
levels (prepending branch i to a word applies branch i to the
representative).  Each level is a validated finite metric space, either
with coordinate distance |x - y| or, optionally, with the ultrametric
theta^(common prefix length) on words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InputParseError,
    LevelOutOfRange,
    OverlappingBranches,
    TowerTooLarge,
)
from .metric_core import FiniteMetricSpace, validate_space
from .rationals import as_fraction
from .rng import SplitMix64
from .sampling import random_rational_measure
from .transport import ProbMeasure, kantorovich

DEFAULT_CELL_CAP = 4096


@dataclass(frozen=True)
class IfsSystem:
    """Affine branches x -> r x + b on [0, 1] with pairwise disjoint images."""

    branches: tuple[tuple[Fraction, Fraction], ...]  # (ratio, offset) pairs
    base_point: Fraction
    theta: Fraction | None = None  # switches the tower metric to theta^lcp

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def contraction(self) -> Fraction:
        """Contraction constant of one tower step."""
        if self.theta is not None:
            return self.theta
        return max(r for r, _ in self.branches)

    def apply(self, i: int, x: Fraction) -> Fraction:
        r, b = self.branches[i]
        return r * x + b


def make_ifs(branches, base_point, theta=None) -> IfsSystem:
    """Validated IFS; branch cells must be pairwise disjoint.

    The space is modeled as [0, 1) and branch i carries it onto the
    half-open cell [b_i, b_i + r_i), so the cells genuinely partition
    their union: abutting cells (as in the halving system) are disjoint,
    while any interior overlap is rejected.  With the base point inside
    [0, 1), representatives always stay inside their own cell, which keeps
    the symbol-dropping inverse single-valued on them.
    """
    parsed = tuple((as_fraction(r), as_fraction(b)) for r, b in branches)
    if len(parsed) < 2:
        raise InputParseError("an IFS needs at least two branches")
    for r, b in parsed:
        if not 0 < r < 1:
            raise InputParseError("branch ratios must satisfy 0 < r < 1")
        if b < 0 or r + b > 1:
            raise InputParseError("branch cell must stay inside [0, 1)")
    intervals = sorted((b, r + b) for r, b in parsed)
    for (lo1, hi1), (lo2, _hi2) in zip(intervals, intervals[1:]):
        if lo2 < hi1:
            raise OverlappingBranches(
                f"branch cells [{lo1},{hi1}) and [{lo2},{_hi2}) overlap"
            )
        if lo2 == lo1:
            raise OverlappingBranches(f"two branch cells start at {lo1}")
    x = as_fraction(base_point)
    if not 0 <= x < 1:
        raise InputParseError("base point must lie in [0, 1)")
    th = None
    if theta is not None:
        th = as_fraction(theta)
        if not 0 < th < 1:
            raise InputParseError("theta must lie in (0, 1)")
    return IfsSystem(parsed, x, th)


def dyadic_ifs() -> IfsSystem:
    """The halving system x/2 and x/2 + 1/2 with base point 0."""
    return make_ifs([(Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2))], 0)


def triadic_ifs() -> IfsSystem:
    """Three branches of ratio 1/4 at offsets 0, 3/8, 3/4 with base point 0."""
    quarter = Fraction(1, 4)
    return make_ifs(
        [(quarter, 0), (quarter, Fraction(3, 8)), (quarter, Fraction(3, 4))], 0
    )


def word_id(word: tuple[int, ...]) -> str:
    return "".join(str(s) for s in word)


@dataclass(frozen=True)
class TowerLevel:
    k: int
    words: tuple[tuple[int, ...], ...]
    reps: tuple[Fraction, ...]
    space: FiniteMetricSpace


@dataclass(frozen=True)
class CylinderTower:
    ifs: IfsSystem
    depth: int
    levels: tuple[TowerLevel, ...]

    @property
    def contraction(self) -> Fraction:
        return self.ifs.contraction

    def level(self, k: int) -> TowerLevel:
        if not 0 <= k <= self.depth:
            raise LevelOutOfRange(f"level {k} outside 0..{self.depth}")
        return self.levels[k]


def _lcp(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _level_metric_space(ifs: IfsSystem, words, reps) -> FiniteMetricSpace:
    n = len(words)
    if ifs.theta is None:
        dist = [[abs(reps[i] - reps[j]) for j in range(n)] for i in range(n)]
    else:
        dist = [
            [
                Fraction(0) if i == j else ifs.theta ** _lcp(words[i], words[j])
                for j in range(n)
            ]
            for i in range(n)
        ]
    ids = [word_id(w) for w in words]
    coords = [(x,) for x in reps]
    # 1-D coordinate distance and the prefix ultrametric are metrics by
    # construction, so the cubic triangle scan is skipped on every level.
    return validate_space(dist, ids, coords, skip_triangle_scan=True)


def build_tower(ifs: IfsSystem, depth: int, cell_cap: int = DEFAULT_CELL_CAP) -> CylinderTower:
    """Cylinder tower of the IFS down to the given depth.

    Coherence is by construction: the representative of word (i, a) at
    level k is branch i applied to the representative of a at level k - 1.
    """
    if depth < 0:
        raise InputParseError("depth must be non-negative")
    n = ifs.n_branches
    if n**depth > cell_cap:
        raise TowerTooLarge(n**depth, cell_cap)
    levels = []
    words: list[tuple[int, ...]] = [()]
    reps: list[Fraction] = [ifs.base_point]
    levels.append(TowerLevel(0, tuple(words), tuple(reps), _level_metric_space(ifs, words, reps)))
    for k in range(1, depth + 1):
        words = [(i,) + a for i in range(n) for a in levels[k - 1].words]
        reps = [
            ifs.apply(i, x)
            for i in range(n)
            for x in levels[k - 1].reps
        ]
        levels.append(
            TowerLevel(k, tuple(words), tuple(reps), _level_metric_space(ifs, words, reps))
        )
    return CylinderTower(ifs, depth, tuple(levels))


def hutchinson_step(tower: CylinderTower, k: int, nu: ProbMeasure) -> ProbMeasure:
    """Averaged pushforward from level k to level k + 1.

    The cell (i, c) receives nu(c) / N: pulling (i, c) back through branch
    j is empty unless j = i, where it is the cell c.
    """
    if not 0 <= k < tower.depth:
        raise LevelOutOfRange(f"step needs 0 <= k < depth, got k={k}")
    if len(nu) != len(tower.levels[k].words):
        raise InputParseError("measure does not match the level")
    n = tower.ifs.n_branches
    frac = Fraction(1, n)
    out = [w * frac for _ in range(n) for w in nu.weights]
    return ProbMeasure.from_values(out)


def hutchinson_fixed(tower: CylinderTower, k: int | None = None):
    """The invariant tower measure (uniform) plus an exact invariance certificate."""
    k = tower.depth if k is None else k
    if k < 1:
        raise LevelOutOfRange("the invariant measure lives at level >= 1")
    cells = len(tower.level(k).words)
    uniform = ProbMeasure.uniform(cells)
    pushed = hutchinson_step(tower, k - 1, ProbMeasure.uniform(len(tower.level(k - 1).words)))
    certificate = {
        "invariant": pushed.weights == uniform.weights,
        "level": k,
        "cells": cells,
    }
    return uniform, certificate


@dataclass(frozen=True)
class ScalarContractionReport:
    level: int
    pairs_tested: int
    pairs_skipped: int
    max_ratio: Fraction | None
    bound: Fraction

    @property
    def passed(self) -> bool:
        return self.max_ratio is None or self.max_ratio <= self.bound


def contraction_ratio_scalar(
    tower: CylinderTower, k: int, trials: int, seed: int = 0, max_support: int = 8
) -> ScalarContractionReport:
    """Max observed H_{k+1}(T mu, T nu) / H_k(mu, nu) over sampled pairs."""
    if not 0 <= k < tower.depth:
        raise LevelOutOfRange(f"ratios need 0 <= k < depth, got k={k}")
    if trials < 1:
        raise InputParseError("trials must be >= 1")
    rng = SplitMix64(seed)
    cells = len(tower.level(k).words)
    space_k = tower.level(k).space
    space_k1 = tower.level(k + 1).space
    best: Fraction | None = None
    skipped = 0
    for _ in range(trials):
        mu = random_rational_measure(cells, rng, max_support=max_support)
        nu = random_rational_measure(cells, rng, max_support=max_support)
        if mu.weights == nu.weights:
            skipped += 1
            continue
        h_k = kantorovich(space_k, mu, nu).value
        h_k1 = kantorovich(
            space_k1, hutchinson_step(tower, k, mu), hutchinson_step(tower, k, nu)
        ).value
        ratio = h_k1 / h_k
        if best is None or ratio > best:
            best = ratio
    return ScalarContractionReport(
        level=k,
        pairs_tested=trials - skipped,
        pairs_skipped=skipped,
        max_ratio=best,
        bound=tower.contraction,
    )
