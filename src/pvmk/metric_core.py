"""Finite metric spaces, Lipschitz data, and the anchored unit Lipschitz ball.

Distances are exact rationals and every polytope statement is certified by
exact arithmetic.  The extreme points of

    L(anchor) = { f : f(anchor) = 0, |f(x) - f(y)| <= d(x,y) for all x,y }

make the supremum over 1-Lipschitz test functions a finite maximum, which
is what the transport and operator-metric layers consume.
"""

from __future__ import annotations

import math
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

# The most rows of the (m, n) integer array a vertex route may build: it
# admits lines up to 20 points and the measured spaces of up to 10 (README).
VERTEX_ROWS_BUDGET = 1 << 19


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
        if any(x.numerator < 0 for x in frow):  # the sign of a Fraction
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


def _is_metric(dist) -> bool:
    """Whether a parsed table of non-negative distances has no violation
    of :func:`_violations`, decided on its cleared integer table T.

    T is int64 when its largest entry M has 2M < 2^63, so that no sum of
    two entries can wrap, and Python ints (``object``) otherwise.  Each
    intermediate point k costs one (n, n) comparison T > T[:, k] + T[k, :].
    That comparison also covers the cases k = i, k = j and i = j, which
    ``_violations`` skips, without a false alarm: with non-negative
    entries and a zero diagonal none of them can hold.  With a zero
    diagonal, a zero distance between distinct points shows as fewer
    than n(n - 1) non-zero entries.
    """
    n = len(dist)
    _, flat = cleared([x for row in dist for x in row])
    table = np.array(flat, dtype=np.int64 if 2 * max(flat) < 2**63 else object).reshape(n, n)
    if table.diagonal().any() or (table != table.T).any() or np.count_nonzero(table) < n * (n - 1):
        return False
    return not any((table > table[:, k : k + 1] + table[k]).any() for k in range(n))


def validate_space(dist_table, point_ids=None) -> FiniteMetricSpace:
    """Validated metric space from a distance table.

    Raises the first violated axiom (use :func:`audit_space` for the full
    list): the table is checked in integers by :func:`_is_metric`, and
    only a table that fails is scanned by ``_violations``, to name the
    first violation.
    """
    ids, dist = _parse_table(dist_table, point_ids)
    if not _is_metric(dist):
        raise next(_violations(ids, dist))
    return FiniteMetricSpace(ids, dist)


def lip_constant(values, space: FiniteMetricSpace) -> Fraction:
    """Smallest K with |f(x) - f(y)| <= K d(x,y), exactly.

    A finite float is a dyadic rational, so float values are read at their
    exact binary value with ``Fraction(x)``.  The values are cleared of
    their denominators with their lcm D, so F = D*f is a list of ints, and
    compared on the scaled table: the ratio of a pair is
    |F_i - F_j| * L / (D * L*d_ij).  The largest ratio is found by
    cross-multiplying ints, and one Fraction is built at the end.
    """
    if len(values) != space.n:
        raise InputParseError("value vector must cover every point")
    if not is_rational_sequence(values):
        values = [Fraction(x) for x in values]
    scale, d = space.scaled
    den, f = cleared(values)
    top, bottom = _steepest_pair(f, d)
    return Fraction(top * scale, bottom * den)


def _steepest_pair(f: list[int], d) -> tuple[int, int]:
    """(top, bottom) = (|f_i - f_j|, d_ij) of the first pair i < j, in row
    order, with the largest ratio, found by cross-multiplying ints on the
    int table d; (0, 1) when f is constant."""
    top, bottom = 0, 1
    for i, (fi, row) in enumerate(zip(f, d)):
        for j in range(i + 1, len(f)):
            diff = abs(fi - f[j])
            if diff * bottom > top * row[j]:
                top, bottom = diff, row[j]
    return top, bottom


def float_quotients(ints, scale: int, top) -> np.ndarray:
    """The float64 array of ints / scale, each correctly rounded, so bitwise
    the ``float`` of the Fraction.  With ``top`` at least every |int|: in
    float64 when scale and top are below 2^53, where every int converts
    exactly and one IEEE division rounds, else on Python ints, whose true
    division rounds correctly."""
    exact = max(scale, top) < 2**53
    return (np.asarray(ints, dtype=np.int64 if exact else object) / scale).astype(float, copy=False)


@dataclass(frozen=True)
class LipschitzFunction:
    """Point values together with their exact Lipschitz constant."""

    values: tuple
    constant: Fraction


def certify_lipschitz(space: FiniteMetricSpace, values) -> LipschitzFunction:
    vals = tuple(values)
    return LipschitzFunction(vals, lip_constant(vals, space))


@dataclass(frozen=True, eq=False)
class Lip1VertexSet:
    """Extreme points of the anchored 1-Lipschitz polytope of one space.

    It serves any space equal to ``space`` (same ids and table).  ``rows``
    is a read-only (m, n) array of L*phi, one vertex phi per row in sorted
    order, with L = ``scale`` the lcm of the values' denominators (it
    divides the scale of ``space.scaled``): int64 where the route ran in
    int64, Python ints otherwise.  Fractions are built only for a witness
    (``vertex``) and on a read of ``vertices``.  Sets compare by identity.

    The list is closed under negation, which reverses the sorted order, so
    the first ceil(m/2) rows, the half, hold one vertex of each {phi, -phi}
    (the zero vertex of one point is its own partner); rho is even in phi,
    so scoring the half scores every vertex.
    """

    anchor: str
    space: FiniteMetricSpace
    scale: int
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def vertex(self, i: int) -> tuple[Fraction, ...]:
        """Row i as a tuple of Fractions, equal to ``vertices[i]``."""
        return tuple(Fraction(x, self.scale) for x in self.rows[i].tolist())

    def witness(self, i: int) -> LipschitzFunction:
        """``certify_lipschitz(space, vertex(i))``, with the constant found on
        the integer row L*phi against the scaled table, so no Fraction is
        cleared: the same ratios, scaled by one positive factor, give the
        same steepest pair and the same Fraction."""
        scale, d = self.space.scaled
        top, bottom = _steepest_pair(self.rows[i].tolist(), d)
        return LipschitzFunction(self.vertex(i), Fraction(top * scale, bottom * self.scale))

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """Every row as Fractions, one per distinct value, built on first read."""
        as_q = {x: Fraction(x, self.scale) for x in set(self.rows.ravel().tolist())}
        return tuple(tuple(map(as_q.__getitem__, row)) for row in self.rows.tolist())

    @cached_property
    def half_floats(self) -> np.ndarray:
        """The half's rows a as read-only float64 a / L, each bitwise the
        ``float`` of its Fraction (:func:`float_quotients`, every |a| being
        at most L * diam)."""
        half = self.rows[: (len(self) + 1) // 2]
        arr = float_quotients(half, self.scale, self.scale * self.space.diam)
        arr.setflags(write=False)
        return arr

    def best(self, weights) -> tuple[int, int, int]:
        """``(top, i, j)``: the largest |L*phi_i . w_j| over the half's rows
        L*phi_i and the columns w_j of ``weights``, an (n, k) table of
        Python ints, at its first position in (vertex, column) order, so
        (0, 0, 0) when every score is 0.  The scores are one product in
        Python ints, which never wrap, and one ``argmax``.  The list is
        closed under negation, so ``top`` is the largest L*phi . w_j over
        every vertex."""
        half = self.rows[: (len(self) + 1) // 2].astype(object)
        scores = np.abs(half @ np.array(weights, dtype=object))
        i, j = divmod(int(np.argmax(scores)), scores.shape[1])
        return scores[i, j], i, j


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


def _value_dtype(space: FiniteMetricSpace):
    """``np.int64`` when every integer of a vertex route fits it, else
    ``object`` (Python ints, which never wrap).

    With M the largest scaled distance, every value a route holds lies in
    [-M, M].  A line's value at v is at most d(anchor, v) in size.  A search
    window starts at the anchor's, [-d(anchor, v), d(anchor, v)], and only
    narrows, so lo >= -M and hi <= M; lo is at most, and hi at least, an
    assigned value, so by induction every window end, and so every value,
    lies in [-M, M].  The widest intermediate is then a window end minus
    the sentinel M + 1, a value plus a distance or a difference of two
    values (``_check_lip1``): at most 2M + 1 in size, as is a value shifted
    by M in ``_pack``.  So when bit_length(2M + 1) <= 63, which ``_pack``
    needs too, no int64 operation of the routes can wrap.
    """
    top = max(map(max, space.scaled[1]))
    return np.int64 if (2 * top + 1).bit_length() <= 63 else object


def _check_lip1(rows: np.ndarray, d, order: list[int] | None = None) -> None:
    """Raise unless every row f of the (m, n) int array has
    |f_i - f_j| <= d[i][j] for every pair, which is ``lip_constant <= 1``
    for f / L on the scaled table d.  The rows are checked 4,096 at a time,
    with one pass per column i over the pairs (i, j > i), so its
    temporaries are (4096, n - 1) arrays and no (m, n, n) array is built.

    On a line, ``order`` is its points sorted along it, which
    :func:`_line_order` checked exactly, and only its n - 1 neighbour pairs
    are checked.  They imply every pair: for i < j < k along the line
    d(i, k) = d(i, j) + d(j, k), so by induction on the points between,
    |f_i - f_k| <= |f_i - f_j| + |f_j - f_k| <= d(i, j) + d(j, k) = d(i, k).
    """
    table = np.array(d, rows.dtype)
    if order is None:
        pairs = [(slice(i, i + 1), slice(i + 1, None)) for i in range(rows.shape[1] - 1)]
    else:
        pairs = [(order[:-1], order[1:])]
    for start in range(0, len(rows), 4096):
        part = rows[start : start + 4096]
        for i, j in pairs:
            gaps = np.abs(part[:, j] - part[:, i])
            if (gaps > table[i, j]).any():
                raise MetricAxiomError("enumerated vertex exceeds Lipschitz constant 1")


def _pack(space: FiniteMetricSpace, rows: np.ndarray):
    """The rows' (m, w) packed keys, and each column's multiplier and word.
    A route's f is 1-Lipschitz with f(anchor) = 0, so |f(v)| <= M, the
    largest scaled distance; shifted by M, it and the search's sentinel
    M + 1 fit b = bit_length(2M + 1) bits.  An int64 word holds
    floor(63 / b) of them, column 0 highest, so every word is in [0, 2^63)
    and comparing words compares rows.  Object rows keep one word per
    column.  Keys are summed column by column, with no (m, n) temporary."""
    n, top = space.n, max(map(max, space.scaled[1]))
    bits = (2 * top + 1).bit_length()
    per = 63 // bits if rows.dtype == np.int64 else 1
    unit = np.array([1 << bits * (per - 1 - c % per) for c in range(n)], rows.dtype)
    keys = np.zeros((len(rows), -(-n // per)), rows.dtype)
    for c in range(n):
        keys[:, c // per] += (rows[:, c] + top) * unit[c]
    return keys, unit, np.arange(n) // per


def _first_of_each(keys: np.ndarray) -> np.ndarray:
    """Indices of the first of each run of equal packed keys, in key order."""
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T[::-1])
    ranked = keys[order]
    return order[np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])]


def _certified(
    space: FiniteMetricSpace, a0: int, rows: np.ndarray, order: list[int] | None = None
) -> Lip1VertexSet:
    """The vertex set of a route's distinct scaled integer rows, certified
    (on a line's neighbour pairs when ``order`` is given, see
    :func:`_check_lip1`).

    The routes sort the rows by their packed keys, which sorts the
    vertices, since the scale L' > 0.  With g the gcd of L' and every value
    (one ``np.gcd.reduce``, on int64 or Python ints), L = L'/g is the lcm of
    the reduced denominators; the rows are divided by g in place and frozen.
    """
    scale, d = space.scaled
    _check_lip1(rows, d, order)
    g = math.gcd(scale, int(np.gcd.reduce(rows, axis=None)))
    if g > 1:
        rows //= g
    rows.setflags(write=False)
    return Lip1VertexSet(space.point_ids[a0], space, scale // g, rows)


def _check_rows(rows: int) -> None:
    """Refuse, before they are built, more rows than ``VERTEX_ROWS_BUDGET``."""
    if rows > VERTEX_ROWS_BUDGET:
        raise SpaceTooLarge(rows, VERTEX_ROWS_BUDGET)


def _line_vertices(space: FiniteMetricSpace, a0: int, order: list[int]) -> Lip1VertexSet:
    """Every slope-sign pattern of a line, walking outward from the anchor.

    On a line each pair constraint follows from those on neighbours, so the
    anchored polytope is the box |f(next) - f(prev)| <= gap in the slope
    coordinates, and its vertices are its 2^(n-1) corners.
    """
    _check_rows(2 ** (space.n - 1))  # peak: about 2n + 1 int64s per corner (unsorted, sorted, order)
    _, d = space.scaled
    p = order.index(a0)
    steps = [(order[k - 1], order[k]) for k in range(p + 1, space.n)]
    steps += [(order[k + 1], order[k]) for k in range(p - 1, -1, -1)]
    verts = np.zeros((1, space.n), _value_dtype(space))
    for prev, v in steps:
        gap = d[prev][v]
        verts = np.concatenate([verts, verts])
        verts[:, v] = verts[:, prev] + np.repeat([gap, -gap], len(verts) // 2)
    verts = verts[_first_of_each(_pack(space, verts)[0])]
    return _certified(space, a0, verts, order)


def _search_vertices(space: FiniteMetricSpace, a0: int) -> Lip1VertexSet:
    """Vertices of the anchored polytope of any space, by tree growing.

    A vertex is a feasible point with n-1 linearly independent tight
    difference constraints; a set of difference constraints is independent
    exactly when its pair graph is a forest, so every vertex carries a
    spanning tree of tight edges.  The search grows all such trees: states
    are partial assignments, each extension fixes a new point at
    value(u) +/- d(u, v) for an assigned u, and infeasible extensions are
    pruned.  Different growth orders of one tree give equal states, which
    are merged at every layer.

    A value x for point v is feasible when |x - f_w| <= d(v, w) for every
    assigned w, that is when x lies in the window [lo, hi] =
    [max_w(f_w - d(v, w)), min_w(f_w + d(v, w))].  Every candidate
    f_u + d(u, v) is at least hi and every f_u - d(u, v) is at most lo, so
    the candidates inside the window are exactly its two ends.  The window
    is never empty: a state is 1-Lipschitz, so f_w - f_w' <= d(w, w') <=
    d(w, v) + d(v, w') for every pair of assigned points (McShane's
    extension).

    The search runs on the scaled integer table, one layer of states at a
    time: an (m, n) array, one state per row, with a sentinel above every
    reachable value in the unassigned slots, the windows of every state
    and point as (m, n) arrays LO and HI, and the packed keys of
    :func:`_pack`.  A layer makes two children per (state, unassigned v),
    setting v to LO or HI, as keys alone: each is its parent's key with
    one field moved.  One sort keeps one child of each group of equal
    keys; only then are the kept children's rows and windows built, each
    from its parent's in O(n):
    fixing v := x adds x - d(v, .) to the maxima and x + d(v, .) to the
    minima.  The arrays are int64 when :func:`_value_dtype` proves no value
    can wrap, and Python ints (``object``) otherwise, on the same code.
    """
    n = space.n
    _, d = space.scaled
    dtype = _value_dtype(space)
    table = np.array(d, dtype)
    sentinel = max(map(max, d)) + 1
    states = np.full((1, n), sentinel, dtype)
    states[0, a0] = 0
    keys, unit, word = _pack(space, states)
    lo, hi = -table[a0 : a0 + 1], table[a0 : a0 + 1]
    for _ in range(n - 1):
        rows, cols = np.nonzero(states == sentinel)
        _check_rows(2 * len(rows))  # peak: about 16 int64s per child on int64 layers
        ends = np.concatenate([lo[rows, cols], hi[rows, cols]])
        rows, cols = np.tile(rows, 2), np.tile(cols, 2)
        keys = keys[rows]
        keys[np.arange(len(rows)), word[cols]] += (ends - sentinel) * unit[cols]
        keep = _first_of_each(keys)
        keys, rows, cols, ends = keys[keep], rows[keep], cols[keep], ends[keep]
        states = states[rows]
        states[np.arange(len(keep)), cols] = ends
        lo = np.maximum(lo[rows], ends[:, None] - table[cols])
        hi = np.minimum(hi[rows], ends[:, None] + table[cols])
    return _certified(space, a0, states)


def lip1_vertices(space: FiniteMetricSpace, anchor: str | None = None) -> Lip1VertexSet:
    """Exact vertex list of {f : f(anchor) = 0, f 1-Lipschitz}, sorted.

    Two routes give the same sorted rows.  When the distances embed
    isometrically into the real line (checked exactly), the vertices are
    the 2^(n-1) slope-sign patterns, built in closed form.  Every other
    space goes through the generic spanning-tree search, which grows its
    states as array layers.  Both routes run on the space's scaled integer
    table, in int64 where :func:`_value_dtype` proves it cannot wrap and in
    Python ints otherwise, and share one certification: every vertex is
    checked 1-Lipschitz in integers, the rows are sorted and reduced to
    the lcm of their denominators, and no Fraction is built.  Each route
    raises ``SpaceTooLarge`` before it would build more than
    ``VERTEX_ROWS_BUDGET`` rows.
    """
    a0 = 0 if anchor is None else space.index(anchor)
    order = _line_order(space)
    if order is None:
        return _search_vertices(space, a0)
    return _line_vertices(space, a0, order)
