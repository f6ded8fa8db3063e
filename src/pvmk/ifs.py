"""Contractive interval IFS with disjoint branches and its cylinder tower.

The tower discretizes the attractor: level k holds one cell per length-k
branch word, and each cell has an exact rational representative; these
cohere across levels (prepending branch i to a word applies branch i to
the representative).  Each level is a finite metric space, either with
coordinate distance |x - y| or, optionally, with the ultrametric
theta^(common prefix length) on words.  A level's words are there at once;
its representatives are built from its parent's when they are first read,
a distance is computed when it is read, and the distance table is built
only when the table itself is read.

Coordinate distances run on integers.  When a child's distance is first
read, its parent level clears the branches, Q the lcm of the denominators
of every r_i and b_i, R_i = Q r_i and B_i = Q b_i, and its own
representatives, L and the ints Y = L y.  The child cell (a, u) then sits at
(R_a Y_u + B_a L) / (Q L), so a distance is one integer difference over
Q L, turned into a Fraction once.  A level's ids are its parent's with the
first symbol prepended, and its words are read into int arrays once
(:class:`WordCodes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import (
    InputParseError,
    LevelOutOfRange,
    OverlappingBranches,
    TowerTooLarge,
)
from .metric_core import FiniteMetricSpace
from .rationals import as_fraction, cleared
from .rng import SplitMix64
from .sampling import random_rational_measure
from .transport import ProbMeasure, kantorovich

DEFAULT_CELL_CAP = 4096
SCALAR_MAX_SUPPORT = 8


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


# Point ids join the symbols' decimal strings, so they are distinct only
# while every symbol is one digit: with 11 branches, (10, 1, 0) and
# (1, 0, 10) would both be "1010".
MAX_BRANCHES = 10


def make_ifs(branches, base_point, theta=None) -> IfsSystem:
    """Validated IFS of 2 to ``MAX_BRANCHES`` branches; branch cells must be
    pairwise disjoint.

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
    if len(parsed) > MAX_BRANCHES:
        raise InputParseError(
            f"an IFS has at most {MAX_BRANCHES} branches: tower point ids join one"
            " decimal digit per symbol"
        )
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


class WordCodes(NamedTuple):
    """A level's word list read into ints once.

    ``codes`` reads each word of the (d, k) array in base N, first symbol least significant, so word (i,) + a has code
    i + N code(a) and its depth-t prefix has code code % N^t.  ``order``
    sorts the codes, and ``sorted`` is the sorted codes, so the position of
    a code in the list is ``order[searchsorted(sorted, code)]``: it comes
    from the list's order, never from the code."""

    codes: np.ndarray
    order: np.ndarray
    sorted: np.ndarray


@dataclass(frozen=True)
class TowerLevel:
    """One level of a tower: its words and its parent level.

    The words are the parent's, each prefixed by every branch symbol,
    first-symbol-major, as :func:`build_tower` lists them; representatives,
    ids and coordinate distances are read off the parent in that order."""

    ifs: IfsSystem
    words: tuple[tuple[int, ...], ...]
    parent: TowerLevel | None  # the level above; None at level 0

    @cached_property
    def reps(self) -> tuple[Fraction, ...]:
        """Built from the parent's on first read, coherent by construction:
        word (i, a) gets branch i applied to the representative of a."""
        if self.parent is None:
            return (self.ifs.base_point,)
        apply = self.ifs.apply
        return tuple(apply(i, x) for i in range(self.ifs.n_branches) for x in self.parent.reps)

    @cached_property
    def int_branches(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The branches cleared, (Q, ((R_i, B_i), ...)), which the
        children's distances read."""
        q, flat = cleared([x for branch in self.ifs.branches for x in branch])
        return q, tuple(zip(flat[::2], flat[1::2]))

    @cached_property
    def cleared_reps(self) -> tuple[int, list[int]]:
        """(L, [L x for x in reps]), which the children's distances read."""
        return cleared(self.reps)

    @cached_property
    def point_ids(self) -> tuple[str, ...]:
        """Each word's symbols joined as a string, from the parent's ids:
        word (i,) + a has id str(i) + id(a).  Reading them builds no
        ancestor's space."""
        if self.parent is None:
            return ("",)
        parent_ids = self.parent.point_ids
        return tuple(s + p for s in map(str, range(self.ifs.n_branches)) for p in parent_ids)

    @cached_property
    def word_codes(self) -> WordCodes:
        symbols = np.array(self.words, dtype=np.int64)  # shape (1, 0) at level 0
        codes = symbols @ self.ifs.n_branches ** np.arange(symbols.shape[1])
        order = codes.argsort()
        return WordCodes(codes, order, codes[order])

    @cached_property
    def space(self) -> FiniteMetricSpace:
        """The level's metric space: ids now, each distance
        (:func:`_level_distance`) when it is read.  The pair function holds
        the parent and the level's data, not the level, so no reference
        cycle keeps a level alive."""
        theta, powers = self.ifs.theta, None
        if theta is not None or self.parent is None:
            # level 0's one point is at distance 0 from itself on either metric
            powers = tuple(theta**t for t in range(len(self.words[0]))) + (Fraction(0),)
        pair = partial(_level_distance, self.parent, self.words, powers)
        return FiniteMetricSpace(self.point_ids, pair)


def _level_distance(parent, words, powers, i: int, j: int) -> Fraction:
    """The distance between points i and j of a level, never validated.

    ``powers`` is None on a coordinate level, which gives |x_i - x_j| with
    x_i = branch i // d applied to y[i % d], y the parent's d
    representatives.  With the parent's cleared branches (Q, (R, B)) and
    cleared representatives (L, Y), that is
    |R_a Y_u + B_a L - R_c Y_v - B_c L| / (Q L) for (a, u) = divmod(i, d)
    and (c, v) = divmod(j, d): integer arithmetic and one Fraction, in
    lowest terms.  On a theta level ``powers`` is (theta^0, ...,
    theta^(k-1), 0) for words of length k, indexed by the common prefix
    length, which is k only for i == j; a table built from it shares these
    k + 1 Fractions.

    It is a metric by construction.  Distinct words of one length name
    distinct cells, and the cells are disjoint, so distinct words have
    distinct representatives and |x - y| > 0; distinct words of length
    k share a prefix shorter than k, so theta^lcp > 0.  Both are
    symmetric and vanish on the diagonal, |x - y| satisfies the triangle
    inequality, and theta^lcp the ultrametric one, since
    lcp(a, c) >= min(lcp(a, b), lcp(b, c)).
    """
    if powers is not None:
        return powers[_lcp(words[i], words[j])]
    q, scaled = parent.int_branches
    scale, y = parent.cleared_reps
    (a, u), (c, v) = divmod(i, len(y)), divmod(j, len(y))
    (r_a, b_a), (r_c, b_c) = scaled[a], scaled[c]
    return Fraction(abs(r_a * y[u] - r_c * y[v] + (b_a - b_c) * scale), q * scale)


@dataclass(frozen=True)
class CylinderTower:
    ifs: IfsSystem
    depth: int
    levels: tuple[TowerLevel, ...]

    @property
    def contraction(self) -> Fraction:
        return self.ifs.contraction

    @property
    def n_branches(self) -> int:
        return self.ifs.n_branches

    def level(self, k: int) -> TowerLevel:
        if not 0 <= k <= self.depth:
            raise LevelOutOfRange(f"level {k} outside 0..{self.depth}")
        return self.levels[k]

    def dim(self, k: int) -> int:
        """Dimension of level k's Hilbert space: one basis vector per cell."""
        return len(self.level(k).words)


def _lcp(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def build_tower(ifs: IfsSystem, depth: int) -> CylinderTower:
    """Cylinder tower of the IFS down to the given depth: the words of
    every level, first-symbol-major, and nothing else until it is read."""
    if depth < 0:
        raise InputParseError("depth must be non-negative")
    n = ifs.n_branches
    if n**depth > DEFAULT_CELL_CAP:
        raise TowerTooLarge(n**depth, DEFAULT_CELL_CAP)
    levels = [TowerLevel(ifs, ((),), None)]
    for _ in range(depth):
        prev = levels[-1]
        words = tuple((i,) + a for i in range(n) for a in prev.words)
        levels.append(TowerLevel(ifs, words, prev))
    return CylinderTower(ifs, depth, tuple(levels))


def hutchinson_step(tower: CylinderTower, k: int, nu: ProbMeasure) -> ProbMeasure:
    """Averaged pushforward from level k to level k + 1.

    The cell (i, c) receives nu(c) / N: pulling (i, c) back through branch
    j is empty unless j = i, where it is the cell c.  So the weights are
    one row, nu's over N, repeated N times; the row is formed on nu's
    cleared ints, one Fraction per distinct weight.  Unvalidated, as
    ``phi_step``'s atoms: they are non-negative and sum to 1 by
    construction.
    """
    if not 0 <= k < tower.depth:
        raise LevelOutOfRange(f"step needs 0 <= k < depth, got k={k}")
    if len(nu) != len(tower.levels[k].words):
        raise InputParseError("measure does not match the level")
    n = tower.ifs.n_branches
    scale, masses = cleared(nu.weights)
    shares = {m: Fraction(m, scale * n) for m in set(masses)}
    return ProbMeasure(tuple(shares[m] for m in masses) * n)


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
    tower: CylinderTower, k: int, trials: int, seed: int = 0
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
        mu = random_rational_measure(cells, rng, max_support=SCALAR_MAX_SUPPORT)
        nu = random_rational_measure(cells, rng, max_support=SCALAR_MAX_SUPPORT)
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
