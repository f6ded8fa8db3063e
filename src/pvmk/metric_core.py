"""Finite metric spaces, Lipschitz data, and the anchored unit Lipschitz ball.

Distances are exact rationals and every polytope statement is certified by
exact arithmetic.  The extreme points of

    L(anchor) = { f : f(anchor) = 0, |f(x) - f(y)| <= d(x,y) for all x,y }

make the supremum over 1-Lipschitz test functions a finite maximum, which
is what the transport and operator-metric layers consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    AsymmetricDistance,
    InputParseError,
    MetricAxiomError,
    NonzeroSelfDistance,
    SpaceTooLarge,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from .rationals import as_fraction, cleared, is_rational_sequence

DEFAULT_VERTEX_CAP = 7


class FiniteMetricSpace:
    """Point ids and an exact distance table.

    ``dist`` is the table, or a pair function ``(i, j) -> Fraction`` that
    gives one distance.  Given a function, ``d(i, j)`` calls it until the
    table exists, and the first read of ``dist`` (or of ``scaled`` or
    ``diam``, which read it) builds the table from it once and keeps it.
    Tower levels are built this way: measures, cylinder ids and frame
    checks read only the point ids, and a distance read through ``d``
    costs one call, so a level whose table nothing reads never builds its
    n x n table.

    Spaces compare by value: two spaces are equal, and so the same frame
    for measures, vertex sets and tower steps, when their point ids and
    distance tables are equal.  Equality tests identity first, then the
    ids, then the tables, so a space compared with itself, or with one of
    other ids, reads no table.  The hash is that of the ids.

    ``scaled`` caches the table as ``(L, L*dist)``: L is the lcm of the
    table's denominators and every entry of ``L*dist`` is a Python int, so
    exact comparisons and sums of distances run on ints, which never wrap.
    Its readers are the Lip-1 vertex routes, :func:`lip_constant` and the
    transport simplex and certificates of ``transport.kantorovich``.
    """

    def __init__(self, point_ids: tuple[str, ...], dist):
        self.point_ids = point_ids
        if callable(dist):
            self._pair = dist
        else:
            self.__dict__["dist"] = dist

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.point_ids == other.point_ids and self.dist == other.dist

    def __hash__(self) -> int:
        return hash(self.point_ids)

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(point_ids={self.point_ids!r})"

    @property
    def n(self) -> int:
        return len(self.point_ids)

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        pair, points = self._pair, range(self.n)
        return tuple(tuple(pair(i, j) for j in points) for i in points)

    @cached_property
    def diam(self) -> Fraction:
        return max(x for row in self.dist for x in row)

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        n = self.n
        scale, flat = cleared([x for row in self.dist for x in row])
        return scale, tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))

    def index(self, point_id: str) -> int:
        try:
            return self.point_ids.index(point_id)
        except ValueError:
            raise InputParseError(f"unknown point id {point_id!r}") from None

    def d(self, i: int, j: int) -> Fraction:
        table = self.__dict__.get("dist")
        if table is None:
            return self._pair(i, j)
        return table[i][j]


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


def validate_space(dist_table, point_ids=None) -> FiniteMetricSpace:
    """Validated metric space from a distance table.

    Raises the first violated axiom (use :func:`audit_space` for the full
    list).
    """
    ids, dist = _parse_table(dist_table, point_ids)
    bad = next(_violations(ids, dist), None)
    if bad is not None:
        raise bad
    return FiniteMetricSpace(ids, dist)


def lip_constant(values, space: FiniteMetricSpace):
    """Smallest K with |f(x) - f(y)| <= K d(x,y); exact when values are rational.

    Rational values are cleared of their denominators with their lcm D, so
    F = D*f is a list of ints, and compared on the scaled table: the ratio
    of a pair is |F_i - F_j| * L / (D * L*d_ij).  The largest ratio is found
    by cross-multiplying ints, and one Fraction is built at the end.
    """
    if len(values) != space.n:
        raise InputParseError("value vector must cover every point")
    if not is_rational_sequence(values):
        best = 0.0
        for i in range(space.n):
            for j in range(i + 1, space.n):
                ratio = abs(values[i] - values[j]) / space.dist[i][j]
                if ratio > best:
                    best = ratio
        return best
    scale, d = space.scaled
    den, f = cleared(values)
    top, bottom = 0, 1
    for i, (fi, row) in enumerate(zip(f, d)):
        for j in range(i + 1, space.n):
            diff = abs(fi - f[j])
            if diff * bottom > top * row[j]:
                top, bottom = diff, row[j]
    return Fraction(top * scale, bottom * den)


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

    It serves any space equal to ``space`` (same ids and table).  The
    vertices are sorted, as :func:`lip1_vertices` returns them.
    """

    anchor: str
    vertices: tuple[tuple[Fraction, ...], ...]
    space: FiniteMetricSpace

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def half(self) -> tuple[tuple[Fraction, ...], ...]:
        """One vertex of each {phi, -phi} pair, in vertex order.

        The rho objective is even in phi, so scoring this half scores every
        vertex.  The anchored polytope is centrally symmetric, so its
        vertex list is closed under negation, and negation reverses the
        sorted order: the partner of the i-th vertex is the i-th from the
        end.  The first of each pair is therefore in the first half of the
        list, and the zero vertex of a one-point space is its own partner.
        """
        return self.vertices[: (len(self.vertices) + 1) // 2]

    @cached_property
    def half_floats(self) -> np.ndarray:
        """``half`` as a read-only float64 matrix, one row per vertex."""
        arr = np.array([[float(x) for x in vert] for vert in self.half])
        arr.setflags(write=False)
        return arr

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The vertices as ``(L, L*vertices)`` in Python ints, L the lcm of
        their values' denominators.

        The vertex routes build every value as ``Fraction(x, L')`` with L'
        from ``space.scaled``, so L divides L'.  Each L*phi is a tuple of
        ints, in vertex order; the first ``len(half)`` of them are the
        half's.
        """
        n = self.space.n
        scale, flat = cleared([x for vert in self.vertices for x in vert])
        return scale, tuple(tuple(flat[i : i + n]) for i in range(0, len(flat), n))


def _line_order(space: FiniteMetricSpace) -> list[int] | None:
    """Point indices sorted along an isometric embedding into the real line.

    With ``a`` a point farthest from point 0, the coordinates
    x_i = d(a, i) embed the space isometrically exactly when
    d(i, j) == |x_i - x_j| for every pair; the check is exact (on the scaled
    table) and stops at the first mismatch.  None when the space is not a
    line.
    """
    _, d = space.scaled
    a = max(range(space.n), key=d[0].__getitem__)
    x = d[a]
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if d[i][j] != abs(x[i] - x[j]):
                return None
    return sorted(range(space.n), key=x.__getitem__)


def _certified(space: FiniteMetricSpace, verts) -> list[tuple]:
    """Scaled integer vertices, certified and returned as sorted Fractions.

    Each vertex must satisfy |f_i - f_j| <= L*d(i, j) in ints, which is
    ``lip_constant <= 1`` for f / L.  Sorting the ints sorts the Fractions,
    since L > 0.
    """
    scale, d = space.scaled
    pairs = [(i, j, d[i][j]) for i in range(space.n) for j in range(i + 1, space.n)]
    for vert in verts:
        for i, j, dij in pairs:
            if abs(vert[i] - vert[j]) > dij:  # pragma: no cover - construction invariant
                raise MetricAxiomError("enumerated vertex exceeds Lipschitz constant 1")
    as_q = {x: Fraction(x, scale) for x in {x for vert in verts for x in vert}}
    return [tuple(as_q[x] for x in vert) for vert in sorted(verts)]


def _line_vertices(space: FiniteMetricSpace, a0: int, order: list[int]) -> list[tuple]:
    """Every slope-sign pattern of a line, walking outward from the anchor.

    On a line each pair constraint follows from those on neighbours, so the
    anchored polytope is the box |f(next) - f(prev)| <= gap in the slope
    coordinates, and its vertices are its 2^(n-1) corners.
    """
    _, d = space.scaled
    p = order.index(a0)
    steps = [(order[k - 1], order[k]) for k in range(p + 1, space.n)]
    steps += [(order[k + 1], order[k]) for k in range(p - 1, -1, -1)]
    verts = [[0] * space.n]
    for prev, v in steps:
        gap = d[prev][v]
        grown = []
        for vert in verts:
            for val in (vert[prev] + gap, vert[prev] - gap):
                new = vert.copy()
                new[v] = val
                grown.append(new)
        verts = grown
    return _certified(space, [tuple(vert) for vert in verts])


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

    The search runs on the scaled integer table, and a state is an n-slot
    tuple with None for unassigned points.  A value x for point v is
    feasible when |x - f_w| <= d(v, w) for every assigned w, that is when x
    lies in every interval [f_w - d(v, w), f_w + d(v, w)], so in their
    intersection, the window [lo, hi] = [max_w(f_w - d(v, w)),
    min_w(f_w + d(v, w))].  Testing a candidate against the window, built
    once per state and point, is therefore the same test as checking it
    against every assigned w.  Every candidate f_u + d(u, v) is at least hi
    and every f_u - d(u, v) is at most lo, so the candidates inside the
    window are exactly its two ends.  The window is never empty: a state
    is 1-Lipschitz, so f_w - f_w' <= d(w, w') <= d(w, v) + d(v, w') for
    every pair of assigned points (McShane's extension).
    """
    n = space.n
    _, d = space.scaled
    start = [None] * n
    start[a0] = 0
    frontier = {tuple(start)}
    for _ in range(n - 1):
        grown = set()
        for state in frontier:
            assigned = [(u, f) for u, f in enumerate(state) if f is not None]
            for v in range(n):
                if state[v] is not None:
                    continue
                row = d[v]
                lo = max([f - row[u] for u, f in assigned])
                hi = min([f + row[u] for u, f in assigned])
                head, tail = state[:v], state[v + 1 :]
                grown.add(head + (lo,) + tail)
                grown.add(head + (hi,) + tail)
        frontier = grown
    return _certified(space, list(frontier))


def lip1_vertices(
    space: FiniteMetricSpace,
    anchor: str | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> Lip1VertexSet:
    """Exact vertex list of {f : f(anchor) = 0, f 1-Lipschitz}, sorted.

    Two routes give the same sorted tuple.  When the distances embed
    isometrically into the real line (checked exactly), the vertices are
    the 2^(n-1) slope-sign patterns, built in closed form.  Every other
    space goes through the generic spanning-tree search.  Both routes run on
    the space's scaled integer table and turn vertices into Fractions only
    when they return.  The point cap applies to both routes, and every
    vertex is certified 1-Lipschitz.
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
    return Lip1VertexSet(space.point_ids[a0], tuple(verts), space)

