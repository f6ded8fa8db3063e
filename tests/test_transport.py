"""Exact transport: primal/dual certificates and metric structure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pvmk import transport
from pvmk.errors import MismatchedMeasures, PvmkError, StaleVertexSet
from pvmk.ifs import build_tower, dyadic_ifs
from pvmk.metric_core import FiniteMetricSpace, lip1_vertices, lip_constant, validate_space
from pvmk.rationals import as_fraction, cleared, is_rational_sequence
from pvmk.rng import SplitMix64
from pvmk.sampling import random_metric_space, random_rational_measure
from pvmk.transport import (
    ProbMeasure,
    kantorovich,
    kantorovich_dual_oracle,
)
from oracles import _THETA, _float_space, _loop_lip_constant

F = Fraction


def weak_gap(space: FiniteMetricSpace, f_values, mu: ProbMeasure, nu: ProbMeasure):
    """(|integral of f against mu - nu|, Lip(f) * H(mu, nu)); first <= second."""
    exact = is_rational_sequence(f_values)
    fv = [as_fraction(x) for x in f_values] if exact else list(f_values)
    lhs = abs(sum(f * (a - b) for f, a, b in zip(fv, mu.weights, nu.weights)))
    return (lhs, lip_constant(fv, space) * kantorovich(space, mu, nu).value)


def two_point_space():
    return validate_space([[0, 1], [1, 0]])


def test_same_measure_zero_value_identity_plan():
    space = two_point_space()
    mu = ProbMeasure.from_values(["3/4", "1/4"])
    res = kantorovich(space, mu, mu)
    assert res.value == 0
    # zero cost forces all mass onto the zero-distance diagonal
    for i in range(2):
        for j in range(2):
            if i != j:
                assert res.plan[i][j] == 0


def test_dirac_pair_value_is_distance():
    space = validate_space([[0, "1/3"], ["1/3", 0]])
    res = kantorovich(space, ProbMeasure.dirac(2, 0), ProbMeasure.dirac(2, 1))
    assert res.value == F(1, 3)
    assert res.plan[0][1] == 1


def brute_force_two_point(space, mu, nu):
    """One-parameter plan family: optimum sits at an endpoint."""
    lo = max(F(0), mu.weights[0] - nu.weights[1])
    hi = min(mu.weights[0], nu.weights[0])
    d = space.dist
    best = None
    for t in (lo, hi):
        plan = [
            [t, mu.weights[0] - t],
            [nu.weights[0] - t, mu.weights[1] - (nu.weights[0] - t)],
        ]
        val = sum(plan[i][j] * d[i][j] for i in range(2) for j in range(2))
        best = val if best is None else min(best, val)
    return best


def test_two_point_half_example():
    space = two_point_space()
    mu = ProbMeasure.from_values(["3/4", "1/4"])
    nu = ProbMeasure.from_values(["1/4", "3/4"])
    assert brute_force_two_point(space, mu, nu) == F(1, 2)
    res = kantorovich(space, mu, nu)
    assert res.value == F(1, 2)
    verts = lip1_vertices(space)
    assert kantorovich_dual_oracle(space, mu, nu, verts) == F(1, 2)


def test_two_point_brute_force_sweep():
    rng = SplitMix64(5)
    space = two_point_space()
    for _ in range(20):
        mu = random_rational_measure(2, rng)
        nu = random_rational_measure(2, rng)
        assert kantorovich(space, mu, nu).value == brute_force_two_point(space, mu, nu)


def test_dual_oracle_dirac_attained_at_distance_vertex():
    space = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    verts = lip1_vertices(space)
    val = kantorovich_dual_oracle(
        space, ProbMeasure.dirac(3, 0), ProbMeasure.dirac(3, 2), verts
    )
    assert val == space.dist[0][2]


def test_dimension_mismatch():
    with pytest.raises(MismatchedMeasures):
        kantorovich(two_point_space(), ProbMeasure.dirac(3, 0), ProbMeasure.dirac(3, 1))


def test_stale_vertex_set():
    rng = SplitMix64(9)
    s1 = random_metric_space(3, rng)
    s2 = random_metric_space(3, rng)
    verts = lip1_vertices(s1)
    with pytest.raises(StaleVertexSet):
        kantorovich_dual_oracle(
            s2, ProbMeasure.dirac(3, 0), ProbMeasure.dirac(3, 1), verts
        )


def test_duality_on_random_instances():
    rng = SplitMix64(13)
    for _ in range(15):
        n = rng.randint(2, 5)
        space = random_metric_space(n, rng)
        verts = lip1_vertices(space)
        mu = random_rational_measure(n, rng)
        nu = random_rational_measure(n, rng)
        res = kantorovich(space, mu, nu)
        assert res.value == kantorovich_dual_oracle(space, mu, nu, verts)
        assert res.potential.constant <= 1
        assert res.value <= space.diam
        assert (res.value == 0) == (mu.weights == nu.weights)


def test_against_scipy_linprog():
    linprog = pytest.importorskip("scipy.optimize").linprog
    import numpy as np

    rng = SplitMix64(21)
    for _ in range(8):
        n = rng.randint(2, 5)
        space = random_metric_space(n, rng)
        mu = random_rational_measure(n, rng)
        nu = random_rational_measure(n, rng)
        cost = np.array([[float(space.dist[i][j]) for j in range(n)] for i in range(n)])
        a_eq = []
        for i in range(n):
            row = np.zeros((n, n))
            row[i, :] = 1
            a_eq.append(row.ravel())
        for j in range(n):
            col = np.zeros((n, n))
            col[:, j] = 1
            a_eq.append(col.ravel())
        b_eq = [float(w) for w in mu.weights] + [float(w) for w in nu.weights]
        res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None))
        assert res.success
        assert abs(float(kantorovich(space, mu, nu).value) - res.fun) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_metric_axioms_of_h(seed):
    rng = SplitMix64(seed)
    n = rng.randint(2, 4)
    space = random_metric_space(n, rng)
    mu = random_rational_measure(n, rng)
    nu = random_rational_measure(n, rng)
    tau = random_rational_measure(n, rng)
    h_mn = kantorovich(space, mu, nu).value
    h_nm = kantorovich(space, nu, mu).value
    h_mt = kantorovich(space, mu, tau).value
    h_tn = kantorovich(space, tau, nu).value
    assert h_mn == h_nm
    assert h_mn <= h_mt + h_tn
    assert h_mn >= 0


def test_weak_gap_examples():
    space = two_point_space()
    mu = ProbMeasure.from_values(["3/4", "1/4"])
    nu = ProbMeasure.from_values(["1/4", "3/4"])
    lhs, rhs = weak_gap(space, [5, 5], mu, nu)
    assert (lhs, rhs) == (0, 0)
    # f = d(., p0) between diracs at p0 and p1: both sides equal the distance
    lhs, rhs = weak_gap(space, [0, 1], ProbMeasure.dirac(2, 0), ProbMeasure.dirac(2, 1))
    assert lhs == 1 and rhs == 1


def test_weak_gap_random_bound():
    rng = SplitMix64(33)
    for _ in range(10):
        n = rng.randint(2, 5)
        space = random_metric_space(n, rng)
        f = [F(rng.randint(-24, 24), 8) for _ in range(n)]
        mu = random_rational_measure(n, rng)
        nu = random_rational_measure(n, rng)
        lhs, rhs = weak_gap(space, f, mu, nu)
        assert lhs <= rhs


# ---------------------------------------------------------------- Fraction reference
#
# The transport simplex and its certificates as they ran in Fraction
# arithmetic, kept as the oracle for the scaled integer route.


def _fraction_northwest_corner(supply, demand):
    m, n = len(supply), len(demand)
    a = list(supply)
    b = list(demand)
    cells = []
    flow = {}
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


def _fraction_adjacency(cells, m, n):
    row_adj = {i: [] for i in range(m)}
    col_adj = {j: [] for j in range(n)}
    for i, j in cells:
        row_adj[i].append(j)
        col_adj[j].append(i)
    return row_adj, col_adj


def _fraction_tree_duals(cells, cost, m, n):
    row_adj, col_adj = _fraction_adjacency(cells, m, n)
    u = [None] * m
    v = [None] * n
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
    assert None not in u and None not in v
    return u, v


def _fraction_tree_path(cells, start_row, end_col, m, n):
    row_adj, col_adj = _fraction_adjacency(cells, m, n)
    parent = {("r", start_row): None}
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


def _fraction_simplex(cost, supply, demand):
    m, n = len(supply), len(demand)
    cells, flow = _fraction_northwest_corner(supply, demand)
    basis = set(cells)
    while True:
        u, v = _fraction_tree_duals(cells, cost, m, n)
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
        path = _fraction_tree_path(cells, entering[0], entering[1], m, n)
        minus = path[0::2]
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


def _fraction_kantorovich(space, mu, nu):
    """(value, plan, potential values, constant), certified in Fractions."""
    rows = list(mu.support())
    cols = list(nu.support())
    cost = [[space.dist[i][j] for j in cols] for i in rows]
    value, flow, _u, v = _fraction_simplex(
        cost, [mu.weights[i] for i in rows], [nu.weights[j] for j in cols]
    )
    plan = [[Fraction(0)] * space.n for _ in range(space.n)]
    for (si, sj), f in flow.items():
        plan[rows[si]][cols[sj]] = f
    phi = [
        min(space.dist[p][cols[sj]] - v[sj] for sj in range(len(cols)))
        for p in range(space.n)
    ]
    phi = tuple(x - phi[0] for x in phi)
    constant = _loop_lip_constant(phi, space, Fraction(0))
    assert constant <= 1
    assert sum(p * (a - b) for p, a, b in zip(phi, mu.weights, nu.weights)) == value
    for i in range(space.n):
        assert sum(plan[i]) == mu.weights[i]
        assert sum(plan[j][i] for j in range(space.n)) == nu.weights[i]
    return value, tuple(tuple(row) for row in plan), phi, constant


def _full_measure(n, rng):
    raw = [rng.randint(1, 16) for _ in range(n)]
    return ProbMeasure(tuple(F(w, sum(raw)) for w in raw))


def _coprime_measure(n, rng):
    """Weights over denominators 7, 11, 13 and 10^9 + 7, summing to 1."""
    weights = [F(rng.randint(0, 6), 7 * n), F(rng.randint(0, 10), 11 * n)]
    weights.append(F(rng.randint(1, 12), 13 * n))
    weights += [F(rng.randint(1, 10**9), (10**9 + 7) * n) for _ in range(n - 3)]
    weights[-1] += 1 - sum(weights)
    assert min(weights) >= 0
    return ProbMeasure(tuple(weights))


_DYADIC_TOWER = build_tower(dyadic_ifs(), 6)
_THETA_TOWER = build_tower(_THETA, 5)


def _reference_cases():
    rng = SplitMix64(71)
    cases = []
    for n in range(5, 9):
        space = random_metric_space(n, rng)
        for t in range(3):
            mu = random_rational_measure(n, rng)
            cases.append((f"generic-{n}-{t}", space, mu, random_rational_measure(n, rng)))
    towers = (("dyadic", _DYADIC_TOWER, (4, 5, 6)), ("theta", _THETA_TOWER, (3, 4, 5)))
    for name, tower, levels in towers:
        for k in levels:
            space = tower.level(k).space
            n = space.n
            mu = random_rational_measure(n, rng, max_support=8)
            nu = random_rational_measure(n, rng, max_support=8)
            cases.append((f"{name}-{k}-sparse", space, mu, nu))
            cases.append((f"{name}-{k}-full", space, _full_measure(n, rng), _full_measure(n, rng)))
    space = _float_space(6, rng)
    assert space.scaled[0] >= 2**53
    mu = random_rational_measure(6, rng)
    cases.append(("float-6", space, mu, random_rational_measure(6, rng)))
    space = random_metric_space(6, rng)
    cases.append(("coprime-6", space, _coprime_measure(6, rng), _coprime_measure(6, rng)))
    mu = random_rational_measure(6, rng)
    cases.append(("mu-equals-nu", space, mu, mu))
    cases.append(("one-point-supports", space, ProbMeasure.dirac(6, 4), ProbMeasure.dirac(6, 1)))
    cases.append(("one-point-source", space, ProbMeasure.dirac(6, 2), _coprime_measure(6, rng)))
    return cases


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize(
    "space, mu, nu",
    [case[1:] for case in REFERENCE_CASES],
    ids=[case[0] for case in REFERENCE_CASES],
)
def test_integer_transport_matches_fraction_reference(space, mu, nu):
    res = kantorovich(space, mu, nu)
    value, plan, phi, constant = _fraction_kantorovich(space, mu, nu)
    assert res.value == value
    assert res.plan == plan
    assert res.potential.values == phi
    assert res.potential.constant == constant
    assert type(res.value) is Fraction
    assert all(type(x) is Fraction for row in res.plan for x in row)
    assert all(type(x) is Fraction for x in res.potential.values)


def _fraction_dual_oracle(mu, nu, verts):
    """Reference for ``kantorovich_dual_oracle``: the Fraction sum of
    phi (mu - nu) over every vertex."""
    diff = [a - b for a, b in zip(mu.weights, nu.weights)]
    return max(sum(p * w for p, w in zip(vert, diff)) for vert in verts.vertices)


def _int_dual_oracle(mu, nu, verts):
    """Reference for ``kantorovich_dual_oracle``: the former generator,
    every vertex's L*phi (with no absolute value) against the cleared
    differences on the points where they are non-zero, in Python ints."""
    scale, ints = verts.scale, verts.rows.tolist()
    unit, ab = cleared(mu.weights + nu.weights)
    a, b = ab[: len(mu)], ab[len(mu) :]
    diff = [(i, x - y) for i, (x, y) in enumerate(zip(a, b)) if x != y]
    return F(max(sum([vert[i] * w for i, w in diff]) for vert in ints), scale * unit)


def _huge_measure(n, rng):
    """Weights over denominators past 2^64, so the cleared weights pass 2^63."""
    weights = [F(rng.randint(1, 10**6), 2**64 + 13 + k) for k in range(n - 1)]
    return ProbMeasure(tuple(weights + [1 - sum(weights)]))


ORACLE_CASES = [case for case in REFERENCE_CASES if case[1].n <= 7] + [
    ("one-point", validate_space([[0]]), ProbMeasure.dirac(1, 0), ProbMeasure.dirac(1, 0)),
    ("huge-weights", REFERENCE_CASES[0][1], _huge_measure(5, SplitMix64(77)),
     _huge_measure(5, SplitMix64(78))),
    ("huge-weights-float-space", _float_space(5, SplitMix64(79)), _huge_measure(5, SplitMix64(80)),
     random_rational_measure(5, SplitMix64(81))),
] + [
    (f"{name}-3-{t}", tower.level(3).space, *pair)
    for name, tower in (("dyadic", _DYADIC_TOWER), ("theta", _THETA_TOWER))
    for t, pair in enumerate(
        [
            (random_rational_measure(8, SplitMix64(73)), random_rational_measure(8, SplitMix64(74))),
            (_coprime_measure(8, SplitMix64(75)), _full_measure(8, SplitMix64(76))),
        ]
    )
]


@pytest.mark.parametrize(
    "space, mu, nu", [case[1:] for case in ORACLE_CASES], ids=[case[0] for case in ORACLE_CASES]
)
def test_integer_dual_oracle_matches_fraction_reference(space, mu, nu):
    verts = lip1_vertices(space)
    value = kantorovich_dual_oracle(space, mu, nu, verts)
    assert type(value) is Fraction
    assert value == _fraction_dual_oracle(mu, nu, verts) == _int_dual_oracle(mu, nu, verts)
    assert value == kantorovich(space, mu, nu).value


# ---------------------------------------------------------------- certificates


def _triangle_space():
    # not a line (2 + 3 > 4), so the optimal potentials have no slack to
    # absorb a perturbed dual
    return validate_space([[0, 2, 3], [2, 0, 4], [3, 4, 0]])


def _patch_simplex(monkeypatch, edit):
    solve = transport._transport_simplex

    def patched(cost, supply, demand):
        value, flow, u, v = solve(cost, supply, demand)
        return edit(cost, supply, demand, value, dict(flow), list(u), list(v))

    monkeypatch.setattr(transport, "_transport_simplex", patched)


def test_lipschitz_certificate_rejects_a_non_metric_table():
    # The transform min_j (d(p, x_j) - v_j) is 1-Lipschitz for every dual v
    # on a metric table, so only a table that breaks the triangle
    # inequality (built without validate_space) can fail this certificate.
    dist = tuple(tuple(F(x) for x in row) for row in ((0, 1, 5), (1, 0, 1), (5, 1, 0)))
    space = FiniteMetricSpace(("a", "b", "c"), dist)
    with pytest.raises(PvmkError, match="1-Lipschitz certificate"):
        kantorovich(space, ProbMeasure.dirac(3, 0), ProbMeasure.dirac(3, 2))


def test_duality_gap_certificate_rejects_a_perturbed_dual(monkeypatch):
    def edit(cost, supply, demand, value, flow, u, v):
        v[-1] -= 1
        return value, flow, u, v

    _patch_simplex(monkeypatch, edit)
    mu = ProbMeasure.dirac(3, 0)
    nu = ProbMeasure.from_values(["0", "1/2", "1/2"])
    with pytest.raises(PvmkError, match="duality gap is nonzero"):
        kantorovich(_triangle_space(), mu, nu)


def test_duality_gap_certificate_rejects_a_non_optimal_basis(monkeypatch):
    def edit(cost, supply, demand, value, flow, u, v):
        # the starting basis, returned without a pivot
        start = transport._northwest_corner(supply, demand)
        m = len(supply)
        pot, _parent, _depth = transport._basis_tree(start, cost, m, len(demand))
        return sum(f * cost[i][j] for (i, j), f in start.items()), start, pot[:m], pot[m:]

    space = _triangle_space()
    mu = ProbMeasure.from_values(["0", "1/2", "1/2"])
    nu = ProbMeasure.from_values(["1/2", "1/2", "0"])
    assert kantorovich(space, mu, nu).value == F(3, 2)
    _patch_simplex(monkeypatch, edit)
    # the starting basis costs 3, above every dual value (weak duality)
    with pytest.raises(PvmkError, match="duality gap is nonzero: -"):
        kantorovich(space, mu, nu)


def test_basis_tree_rejects_a_basis_that_does_not_span():
    cost = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    # five cells, as many as a spanning tree of 3 + 3 nodes has edges, but
    # they close the cycle r0-c0-r1-c1 and leave row 2 and column 2 apart
    cells = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1, (2, 2): 1}
    with pytest.raises(PvmkError, match="transport basis is not a spanning tree"):
        transport._basis_tree(cells, cost, 3, 3)


@pytest.mark.parametrize("side", ["row", "column"])
def test_marginal_certificates_reject_a_flow_off_by_one_unit(monkeypatch, side):
    def edit(cost, supply, demand, value, flow, u, v):
        cells = list(flow)
        flow[cells[0]] += 1
        if side == "column":
            # take the unit back from the same row, so only columns are off
            flow[next(c for c in cells[1:] if c[0] == cells[0][0])] -= 1
        return value, flow, u, v

    _patch_simplex(monkeypatch, edit)
    mu = ProbMeasure.dirac(3, 0)
    nu = ProbMeasure.from_values(["0", "1/2", "1/2"])
    with pytest.raises(PvmkError, match=f"plan {side} sums do not match"):
        kantorovich(_triangle_space(), mu, nu)
