"""Finite metric spaces, Lipschitz data, and the anchored unit Lipschitz ball.

Distances are exact rationals and every polytope statement is certified by
exact arithmetic.  The extreme points of

    L(anchor) = { f : f(anchor) = 0, |f(x) - f(y)| <= d(x,y) for all x,y }

make the supremum over 1-Lipschitz test functions a finite maximum, which
is what the transport and operator-metric layers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    AsymmetricDistance,
    InputParseError,
    MetricAxiomError,
    NonzeroSelfDistance,
    SpaceTooLarge,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from .rationals import as_fraction, is_rational_sequence

DEFAULT_VERTEX_CAP = 7


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Point ids, an exact distance table and optional coordinates.

    Spaces compare by value: two spaces are equal, and so the same frame
    for measures, vertex sets and tower steps, when their point ids and
    distance tables are equal.  Coordinates are ignored.
    """

    point_ids: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    coords: tuple[tuple[Fraction, ...], ...] | None = field(compare=False)

    @property
    def n(self) -> int:
        return len(self.point_ids)

    @cached_property
    def diam(self) -> Fraction:
        return max(x for row in self.dist for x in row)

    def index(self, point_id: str) -> int:
        try:
            return self.point_ids.index(point_id)
        except ValueError:
            raise InputParseError(f"unknown point id {point_id!r}") from None

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]


def _parse_table(dist_table, point_ids):
    n = len(dist_table)
    if n == 0:
        raise InputParseError("a metric space needs at least one point")
    if point_ids is None:
        point_ids = tuple(f"p{i}" for i in range(n))
    else:
        point_ids = tuple(str(p) for p in point_ids)
    if len(point_ids) != n or len(set(point_ids)) != n:
        raise InputParseError("point ids must be unique and match the table size")
    rows = []
    for row in dist_table:
        if len(row) != n:
            raise InputParseError("distance table must be square")
        frow = tuple(as_fraction(x) for x in row)
        if any(x < 0 for x in frow):
            raise InputParseError("distances must be non-negative")
        rows.append(frow)
    return point_ids, tuple(rows)


def _violations(ids, dist):
    """Yield every metric-axiom violation of a parsed table, in a fixed order:
    self distances, then pairs, then triangles."""
    n = len(ids)
    for i in range(n):
        if dist[i][i] != 0:
            yield NonzeroSelfDistance(ids[i])
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                yield AsymmetricDistance(ids[i], ids[j])
            elif dist[i][j] == 0:
                yield ZeroDistanceDistinctPoints(ids[i], ids[j])
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                if dist[i][j] > dist[i][k] + dist[k][j]:
                    yield TriangleViolation(ids[i], ids[k], ids[j])


def audit_space(dist_table, point_ids=None) -> list[MetricAxiomError]:
    """All metric-axiom violations of a table, each with witness ids."""
    return list(_violations(*_parse_table(dist_table, point_ids)))


def validate_space(dist_table, point_ids=None, coords=None) -> FiniteMetricSpace:
    """Validated metric space from a distance table.

    Raises the first violated axiom (use :func:`audit_space` for the full
    list).
    """
    ids, dist = _parse_table(dist_table, point_ids)
    bad = next(_violations(ids, dist), None)
    if bad is not None:
        raise bad
    if coords is not None:
        coords = tuple(tuple(as_fraction(c) for c in pt) for pt in coords)
        if len(coords) != len(ids):
            raise InputParseError("coords must match the number of points")
    return FiniteMetricSpace(ids, dist, coords)


def lip_constant(values, space: FiniteMetricSpace):
    """Smallest K with |f(x) - f(y)| <= K d(x,y); exact when values are rational."""
    if len(values) != space.n:
        raise InputParseError("value vector must cover every point")
    exact = is_rational_sequence(values)
    best = Fraction(0) if exact else 0.0
    for i in range(space.n):
        for j in range(i + 1, space.n):
            d = space.dist[i][j]
            ratio = abs(values[i] - values[j]) / d
            if ratio > best:
                best = ratio
    return best


@dataclass(frozen=True)
class LipschitzFunction:
    """Point values together with a certified Lipschitz constant."""

    values: tuple
    constant: object  # Fraction or float, matching the values


def certify_lipschitz(space: FiniteMetricSpace, values) -> LipschitzFunction:
    vals = tuple(values)
    return LipschitzFunction(vals, lip_constant(vals, space))


@dataclass(frozen=True)
class Lip1VertexSet:
    """Extreme points of the anchored 1-Lipschitz polytope of one space.

    It serves any space equal to ``space`` (same ids and table).
    """

    anchor: str
    vertices: tuple[tuple[Fraction, ...], ...]
    space: FiniteMetricSpace

    def __len__(self) -> int:
        return len(self.vertices)


def _line_order(space: FiniteMetricSpace) -> list[int] | None:
    """Point indices sorted along an isometric embedding into the real line.

    With ``a`` a point farthest from point 0, the coordinates
    x_i = d(a, i) embed the space isometrically exactly when
    d(i, j) == |x_i - x_j| for every pair; the check is exact and stops at
    the first mismatch.  None when the space is not a line.
    """
    d = space.dist
    a = max(range(space.n), key=d[0].__getitem__)
    x = d[a]
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if d[i][j] != abs(x[i] - x[j]):
                return None
    return sorted(range(space.n), key=x.__getitem__)


def _line_vertices(space: FiniteMetricSpace, a0: int, order: list[int]) -> list[tuple]:
    """Every slope-sign pattern of a line, walking outward from the anchor.

    On a line each pair constraint follows from those on neighbours, so the
    anchored polytope is the box |f(next) - f(prev)| <= gap in the slope
    coordinates, and its vertices are its 2^(n-1) corners.
    """
    p = order.index(a0)
    steps = [(order[k - 1], order[k]) for k in range(p + 1, space.n)]
    steps += [(order[k + 1], order[k]) for k in range(p - 1, -1, -1)]
    verts = [[Fraction(0)] * space.n]
    for prev, v in steps:
        gap = space.dist[prev][v]
        grown = []
        for vert in verts:
            for val in (vert[prev] + gap, vert[prev] - gap):
                new = vert.copy()
                new[v] = val
                grown.append(new)
        verts = grown
    return sorted(tuple(vert) for vert in verts)


def _search_vertices(space: FiniteMetricSpace, a0: int) -> list[tuple]:
    """Vertices of the anchored polytope of any space, by tree growing.

    A vertex is a feasible point with n-1 linearly independent tight
    difference constraints; a set of difference constraints is independent
    exactly when its pair graph is a forest, so every vertex carries a
    spanning tree of tight edges.  The search grows all such trees: states
    are partial assignments, each extension fixes a new point at
    value(u) +/- d(u, v) for an assigned u, and infeasible extensions are
    pruned.  Different growth orders of one tree collapse in the frontier
    set, and final assignments are deduplicated.
    """
    n = space.n
    d = space.dist
    frontier: set[tuple[tuple[int, Fraction], ...]] = {((a0, Fraction(0)),)}
    for _ in range(n - 1):
        grown: set[tuple[tuple[int, Fraction], ...]] = set()
        for state in frontier:
            assigned = dict(state)
            for v in range(n):
                if v in assigned:
                    continue
                candidates = set()
                for u, uval in assigned.items():
                    candidates.add(uval + d[u][v])
                    candidates.add(uval - d[u][v])
                for val in candidates:
                    feasible = True
                    for w, wval in assigned.items():
                        if abs(val - wval) > d[v][w]:
                            feasible = False
                            break
                    if feasible:
                        grown.add(tuple(sorted(assigned.items() | {(v, val)})))
        frontier = grown
    return sorted({tuple(dict(state)[i] for i in range(n)) for state in frontier})


def lip1_vertices(
    space: FiniteMetricSpace,
    anchor: str | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> Lip1VertexSet:
    """Exact vertex list of {f : f(anchor) = 0, f 1-Lipschitz}, sorted.

    Two routes give the same sorted tuple.  When the distances embed
    isometrically into the real line (checked exactly), the vertices are
    the 2^(n-1) slope-sign patterns, built in closed form.  Every other
    space goes through the generic spanning-tree search.  The point cap
    applies to both routes, and every vertex is certified 1-Lipschitz.
    """
    n = space.n
    if n > cap:
        raise SpaceTooLarge(n, cap)
    a0 = 0 if anchor is None else space.index(anchor)
    order = _line_order(space)
    if order is None:
        verts = _search_vertices(space, a0)
    else:
        verts = _line_vertices(space, a0, order)
    for vert in verts:
        if lip_constant(vert, space) > 1:  # pragma: no cover - construction invariant
            raise MetricAxiomError("enumerated vertex exceeds Lipschitz constant 1")
    return Lip1VertexSet(space.point_ids[a0], tuple(verts), space)


def mcshane(space: FiniteMetricSpace, values) -> tuple:
    """1-Lipschitz regularization f(x) = min_y (v(y) + d(x,y)) of raw values."""
    if len(values) != space.n:
        raise InputParseError("value vector must cover every point")
    return tuple(
        min(values[y] + space.dist[x][y] for y in range(space.n))
        for x in range(space.n)
    )
