"""Measures on a finite metric space and the exact Kantorovich metric.

The optimal-transport value is computed by a primal transportation simplex
with Bland's anti-cycling rule, restricted to the supports of the two
measures.  The pivots run in Python ints (never int64): costs are the
space's scaled table L*d, and weights are scaled by M, the lcm of the two
measures' denominators.  Flows are then ints in units of 1/M, duals and the
potential in units of 1/L, and the value in units of 1/(L*M).  Scaling by
positive constants keeps every sign and every tie, so Bland's entering and
leaving choices are the pivots exact rational arithmetic would make.

Every result ships a primal certificate (the plan) and a dual certificate
(an anchored 1-Lipschitz potential with zero duality gap), both checked in
ints before returning.  Fractions appear only at the boundary: the value,
the non-zero plan entries and the potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputParseError, MismatchedMeasures, PvmkError, StaleVertexSet
from .metric_core import (
    FiniteMetricSpace,
    Lip1VertexSet,
    LipschitzFunction,
    certify_lipschitz,
)
from .rationals import as_fraction, cleared


@dataclass(frozen=True)
class ProbMeasure:
    """Non-negative rational weights summing to exactly one."""

    weights: tuple[Fraction, ...]

    @staticmethod
    def from_values(values) -> "ProbMeasure":
        w = tuple(as_fraction(x) for x in values)
        if any(x < 0 for x in w):
            raise InputParseError("probability weights must be non-negative")
        if sum(w) != 1:
            raise InputParseError("probability weights must sum to exactly 1")
        return ProbMeasure(w)

    @staticmethod
    def dirac(n: int, at: int) -> "ProbMeasure":
        return ProbMeasure(tuple(Fraction(1 if i == at else 0) for i in range(n)))

    @staticmethod
    def uniform(n: int) -> "ProbMeasure":
        return ProbMeasure((Fraction(1, n),) * n)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w != 0)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class TransportResult:
    value: Fraction
    plan: tuple[tuple[Fraction, ...], ...]
    potential: LipschitzFunction


def _northwest_corner(supply, demand):
    """Initial staircase basis: m + n - 1 cells -> flow, zero flows kept."""
    m, n = len(supply), len(demand)
    a = list(supply)
    b = list(demand)
    flow: dict[tuple[int, int], int] = {}
    i = j = 0
    while True:
        t = min(a[i], b[j])
        flow[(i, j)] = t
        a[i] -= t
        b[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1
    return flow


def _basis_tree(flow, cost, m, n):
    """One walk of the basis tree from row 0: potentials, parents and depths.

    Node i < m is row i and node m + j is column j.  The potentials satisfy
    u_i + v_j = cost on every basic cell with u_0 = 0, u_i at node i and v_j
    at node m + j.  The root's parent is -1.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(m + n)]
    for i, j in flow:
        adj[i].append((m + j, cost[i][j]))
        adj[m + j].append((i, cost[i][j]))
    pot: list[int | None] = [None] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pot[0] = 0
    stack = [0]
    while stack:
        k = stack.pop()
        for nxt, c in adj[k]:
            if pot[nxt] is None:
                pot[nxt] = c - pot[k]
                parent[nxt] = k
                depth[nxt] = depth[k] + 1
                stack.append(nxt)
    if None in pot:
        raise PvmkError("transport basis is not a spanning tree")
    return pot, parent, depth


def _transport_simplex(cost, supply, demand):
    """Exact primal transportation simplex (Bland entering and leaving rules).

    Returns the value, the basis flows (cell -> flow) and the duals u, v.
    Costs, supplies and demands are ints, and so is everything computed.
    A basic cell has reduced cost exactly 0, so the entering scan needs no
    basis test.
    """
    m, n = len(supply), len(demand)
    flow = _northwest_corner(supply, demand)
    while True:
        pot, parent, depth = _basis_tree(flow, cost, m, n)
        u, v = pot[:m], pot[m:]
        entering = next(
            (
                (i, j)
                for i, (row, ui) in enumerate(zip(cost, u))
                for j, (c, vj) in enumerate(zip(row, v))
                if c < ui + vj
            ),
            None,
        )
        if entering is None:
            value = sum(f * cost[i][j] for (i, j), f in flow.items())
            return value, flow, u, v
        # The tree path from the entering row to the entering column: climb
        # from the deeper end until the two ends meet.  A tree edge joins a
        # row node and a column node, so its cell is (min, max - m).
        a, b = entering[0], m + entering[1]
        head, tail = [], []
        while a != b:
            if depth[a] > depth[b]:
                head.append((min(a, parent[a]), max(a, parent[a]) - m))
                a = parent[a]
            else:
                tail.append((min(b, parent[b]), max(b, parent[b]) - m))
                b = parent[b]
        path = head + tail[::-1]
        minus = path[0::2]  # cycle alternates starting beside the entering cell
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if flow[c] == theta)
        sign = -1
        for c in path:
            flow[c] += sign * theta
            sign = -sign
        del flow[leaving]
        flow[entering] = theta


def _check_measure(space: FiniteMetricSpace, mu: ProbMeasure):
    if len(mu) != space.n:
        raise MismatchedMeasures(
            f"measure has {len(mu)} weights, space has {space.n} points"
        )


def kantorovich(space: FiniteMetricSpace, mu: ProbMeasure, nu: ProbMeasure) -> TransportResult:
    """Exact Kantorovich distance with primal and dual certificates.

    The potential is recovered from the optimal basis duals through the
    metric transform f(p) = min_j (d(p, x_j) - v_j), anchored at the first
    point.  The 1-Lipschitz bound, the zero duality gap and the plan's row
    and column sums are then verified exactly rather than assumed, on the
    scaled ints; the marginals are summed from the basis flows.
    """
    _check_measure(space, mu)
    _check_measure(space, nu)
    scale, d = space.scaled
    unit, ab = cleared(mu.weights + nu.weights)
    a, b = ab[: space.n], ab[space.n :]
    rows = mu.support()
    cols = nu.support()
    value, flow, _u, v = _transport_simplex(
        [[d[i][j] for j in cols] for i in rows], [a[i] for i in rows], [b[j] for j in cols]
    )
    phi = [min(d[p][j] - vj for j, vj in zip(cols, v)) for p in range(space.n)]
    phi = [x - phi[0] for x in phi]
    potential = certify_lipschitz(space, [Fraction(x, scale) for x in phi])
    if potential.constant > 1:
        raise PvmkError("dual potential failed the 1-Lipschitz certificate")
    gap = sum(p * (x - y) for p, x, y in zip(phi, a, b)) - value
    if gap != 0:
        raise PvmkError(f"duality gap is nonzero: {Fraction(gap, scale * unit)}")
    row_sums = [0] * space.n
    col_sums = [0] * space.n
    for (si, sj), f in flow.items():
        row_sums[rows[si]] += f
        col_sums[cols[sj]] += f
    if row_sums != a:
        raise PvmkError("plan row sums do not match the source measure")
    if col_sums != b:
        raise PvmkError("plan column sums do not match the target measure")
    zero = Fraction(0)
    plan = [[zero] * space.n for _ in range(space.n)]
    for (si, sj), f in flow.items():
        if f:
            plan[rows[si]][cols[sj]] = Fraction(f, unit)
    return TransportResult(
        value=Fraction(value, scale * unit),
        plan=tuple(tuple(row) for row in plan),
        potential=potential,
    )


def kantorovich_dual_oracle(
    space: FiniteMetricSpace,
    mu: ProbMeasure,
    nu: ProbMeasure,
    vertices: Lip1VertexSet,
) -> Fraction:
    """max over polytope vertices of sum phi (mu - nu); equals the LP value.

    This is rho on a one-dimensional Hilbert space: ``vertices.best``
    scores each vertex as L*phi, a row of ``vertices.rows`` with
    L = ``vertices.scale``, against the one column of weight differences
    scaled by M, the lcm of the two measures' denominators.  The maximum is
    L*M times the value, which is returned as one Fraction.
    """
    if vertices.space != space:
        raise StaleVertexSet("vertex set was built from a different space")
    _check_measure(space, mu)
    _check_measure(space, nu)
    unit, ab = cleared(mu.weights + nu.weights)
    top, _, _ = vertices.best([[x - y] for x, y in zip(ab[: space.n], ab[space.n :])])
    return Fraction(top, vertices.scale * unit)
