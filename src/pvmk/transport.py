"""Measures on a finite metric space and the exact Kantorovich metric.

The optimal-transport value is computed by a primal transportation simplex
with exact rational pivots and Bland's anti-cycling rule, restricted to the
supports of the two measures.  Every result ships a primal certificate (the
plan) and a dual certificate (an anchored 1-Lipschitz potential with zero
duality gap), both checked by exact arithmetic before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, InputParseError, PvmkError, StaleVertexSet
from .metric_core import (
    FiniteMetricSpace,
    Lip1VertexSet,
    LipschitzFunction,
    lip_constant,
)
from .rationals import as_fraction, is_rational_sequence


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
        return ProbMeasure(tuple(Fraction(1, n) for _ in range(n)))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w != 0)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class SignedMeasure:
    """Finite signed (or one component of a complex) measure on the atoms."""

    weights: tuple

    @property
    def total_variation(self):
        return sum(abs(w) for w in self.weights)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class TransportResult:
    value: Fraction
    plan: tuple[tuple[Fraction, ...], ...]
    potential: LipschitzFunction


def _northwest_corner(supply, demand):
    """Initial staircase basis with m + n - 1 cells (zero flows kept)."""
    m, n = len(supply), len(demand)
    a = list(supply)
    b = list(demand)
    cells: list[tuple[int, int]] = []
    flow: dict[tuple[int, int], Fraction] = {}
    i = j = 0
    while True:
        t = min(a[i], b[j])
        cells.append((i, j))
        flow[(i, j)] = t
        a[i] -= t
        b[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1
    return cells, flow


def _tree_duals(cells, cost, m, n):
    """Potentials u, v with u_i + v_j = cost on every basic cell (u_0 = 0)."""
    row_adj: dict[int, list[int]] = {i: [] for i in range(m)}
    col_adj: dict[int, list[int]] = {j: [] for j in range(n)}
    for i, j in cells:
        row_adj[i].append(j)
        col_adj[j].append(i)
    u: list[Fraction | None] = [None] * m
    v: list[Fraction | None] = [None] * n
    u[0] = Fraction(0)
    queue = [("r", 0)]
    while queue:
        side, k = queue.pop()
        if side == "r":
            for j in row_adj[k]:
                if v[j] is None:
                    v[j] = cost[k][j] - u[k]
                    queue.append(("c", j))
        else:
            for i in col_adj[k]:
                if u[i] is None:
                    u[i] = cost[i][k] - v[k]
                    queue.append(("r", i))
    if any(x is None for x in u) or any(x is None for x in v):
        raise PvmkError("transport basis is not a spanning tree")
    return u, v


def _tree_path(cells, start_row, end_col, m, n):
    """Cells along the unique tree path from row node to column node."""
    row_adj: dict[int, list[int]] = {i: [] for i in range(m)}
    col_adj: dict[int, list[int]] = {j: [] for j in range(n)}
    for i, j in cells:
        row_adj[i].append(j)
        col_adj[j].append(i)
    parent: dict[tuple[str, int], tuple[tuple[str, int], tuple[int, int]] | None] = {
        ("r", start_row): None
    }
    queue = [("r", start_row)]
    while queue:
        node = queue.pop(0)
        side, k = node
        if side == "r":
            for j in row_adj[k]:
                nxt = ("c", j)
                if nxt not in parent:
                    parent[nxt] = (node, (k, j))
                    queue.append(nxt)
        else:
            for i in col_adj[k]:
                nxt = ("r", i)
                if nxt not in parent:
                    parent[nxt] = (node, (i, k))
                    queue.append(nxt)
    path = []
    node = ("c", end_col)
    while parent[node] is not None:
        prev, edge = parent[node]
        path.append(edge)
        node = prev
    path.reverse()
    return path


def _transport_simplex(cost, supply, demand):
    """Exact primal transportation simplex (Bland entering and leaving rules)."""
    m, n = len(supply), len(demand)
    cells, flow = _northwest_corner(supply, demand)
    basis = set(cells)
    while True:
        u, v = _tree_duals(cells, cost, m, n)
        entering = None
        for i in range(m):
            for j in range(n):
                if (i, j) not in basis and cost[i][j] - u[i] - v[j] < 0:
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            value = sum(flow[c] * cost[c[0]][c[1]] for c in cells)
            return value, flow, u, v
        path = _tree_path(cells, entering[0], entering[1], m, n)
        minus = path[0::2]  # cycle alternates starting beside the entering cell
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if flow[c] == theta)
        flow[entering] = flow.get(entering, Fraction(0)) + theta
        sign = -1
        for c in path:
            flow[c] += sign * theta
            sign = -sign
        basis.remove(leaving)
        basis.add(entering)
        cells = [c for c in cells if c != leaving] + [entering]
        del flow[leaving]


def _check_measure(space: FiniteMetricSpace, mu: ProbMeasure):
    if len(mu) != space.n:
        raise DimensionMismatch(
            f"measure has {len(mu)} weights, space has {space.n} points"
        )


def kantorovich(space: FiniteMetricSpace, mu: ProbMeasure, nu: ProbMeasure) -> TransportResult:
    """Exact Kantorovich distance with primal and dual certificates.

    The potential is recovered from the optimal basis duals through the
    metric transform f(p) = min_j (d(p, x_j) - v_j), anchored at the first
    point; 1-Lipschitz feasibility and the zero duality gap are then
    verified exactly rather than assumed.
    """
    _check_measure(space, mu)
    _check_measure(space, nu)
    rows = list(mu.support())
    cols = list(nu.support())
    cost = [[space.dist[i][j] for j in cols] for i in rows]
    value, flow, _u, v = _transport_simplex(
        cost, [mu.weights[i] for i in rows], [nu.weights[j] for j in cols]
    )
    plan = [[Fraction(0)] * space.n for _ in range(space.n)]
    for (si, sj), f in flow.items():
        plan[rows[si]][cols[sj]] = f
    phi = [
        min(space.dist[p][cols[sj]] - v[sj] for sj in range(len(cols)))
        for p in range(space.n)
    ]
    anchor_val = phi[0]
    phi = tuple(x - anchor_val for x in phi)
    constant = lip_constant(phi, space)
    if constant > 1:
        raise PvmkError("dual potential failed the 1-Lipschitz certificate")
    gap = sum(p * (a - b) for p, a, b in zip(phi, mu.weights, nu.weights)) - value
    if gap != 0:
        raise PvmkError(f"duality gap is nonzero: {gap}")
    for i in range(space.n):
        if sum(plan[i]) != mu.weights[i]:
            raise PvmkError("plan row sums do not match the source measure")
    for j in range(space.n):
        if sum(plan[i][j] for i in range(space.n)) != nu.weights[j]:
            raise PvmkError("plan column sums do not match the target measure")
    return TransportResult(
        value=value,
        plan=tuple(tuple(row) for row in plan),
        potential=LipschitzFunction(phi, constant),
    )


def kantorovich_dual_oracle(
    space: FiniteMetricSpace,
    mu: ProbMeasure,
    nu: ProbMeasure,
    vertices: Lip1VertexSet,
) -> Fraction:
    """max over polytope vertices of sum phi (mu - nu); equals the LP value."""
    if vertices.space_hash != space.space_hash:
        raise StaleVertexSet("vertex set was built from a different space")
    _check_measure(space, mu)
    _check_measure(space, nu)
    diff = [a - b for a, b in zip(mu.weights, nu.weights)]
    return max(sum(p * w for p, w in zip(vert, diff)) for vert in vertices.vertices)


def weak_gap(space: FiniteMetricSpace, f_values, mu: ProbMeasure, nu: ProbMeasure):
    """(|integral of f against mu - nu|, Lip(f) * H(mu, nu)); first <= second."""
    if len(f_values) != space.n:
        raise DimensionMismatch("test function must cover every point")
    exact = is_rational_sequence(f_values)
    fv = [as_fraction(x) for x in f_values] if exact else list(f_values)
    lhs = abs(sum(f * (a - b) for f, a, b in zip(fv, mu.weights, nu.weights)))
    k = lip_constant(fv, space)
    h = kantorovich(space, mu, nu).value
    rhs = k * h
    return (lhs, rhs)
