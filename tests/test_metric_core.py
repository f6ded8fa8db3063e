"""Metric space validation and exact Lipschitz polytope geometry."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvmk.errors import (
    AsymmetricDistance,
    MetricAxiomError,
    SpaceTooLarge,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from pvmk import metric_core
from pvmk.ifs import build_tower, dyadic_ifs, make_ifs, triadic_ifs
from pvmk.metric_core import (
    FiniteMetricSpace,
    _check_lip1,
    _first_of_each,
    _is_metric,
    _line_order,
    _pack,
    _parse_table,
    _search_vertices,
    _value_dtype,
    _violations,
    audit_space,
    certify_lipschitz,
    lip1_vertices,
    lip_constant,
    validate_space,
)
from pvmk.rationals import cleared
from pvmk.rng import SplitMix64
from pvmk.sampling import random_metric_space
from oracles import _THETA, _float_space, _loop_lip_constant, mcshane

F = Fraction


def path_space():
    # three points in a row: d(p0,p1) = d(p1,p2) = 1, d(p0,p2) = 2
    return validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_validate_two_points():
    space = validate_space([[0, 1], [1, 0]])
    assert space.diam == 1
    assert space.point_ids == ("p0", "p1")


def test_validate_dyadic_depth2_representatives():
    # |x - y| on {0, 1/4, 1/2, 3/4}; diameter computed by direct arithmetic
    reps = [F(0), F(1, 4), F(1, 2), F(3, 4)]
    dist = [[abs(a - b) for b in reps] for a in reps]
    space = validate_space(dist)
    assert space.diam == F(3, 4)


def test_triangle_violation_witness():
    with pytest.raises(TriangleViolation) as err:
        validate_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert err.value.witness == ("p0", "p1", "p2")


def test_asymmetric_distance_rejected():
    with pytest.raises(AsymmetricDistance):
        validate_space([[0, 1], [2, 0]])


def test_zero_distance_distinct_points_rejected():
    with pytest.raises(ZeroDistanceDistinctPoints):
        validate_space([[0, 0], [0, 0]])


def test_audit_collects_all_violations():
    bad = audit_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert any(isinstance(v, TriangleViolation) for v in bad)


def _planted_table(rng):
    """A random table of a shortest-path metric with, most of the time, one
    planted violation: a non-zero self distance, an asymmetric pair, a zero
    distance or a broken triangle.  Entries are ints, Fractions, or ints or
    Fractions whose cleared table passes 2^63."""
    n = rng.randint(1, 7)
    d = [[0 if i == j else rng.randint(1, 9) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    plant = rng.randint(0, 4)
    i, j, k = (rng.randint(0, n - 1) for _ in range(3))
    if plant == 1:
        d[i][i] = rng.randint(1, 3)
    elif plant == 2 and i != j:
        d[i][j] += rng.randint(1, 3)
    elif plant == 3 and i != j:
        d[i][j] = d[j][i] = 0
    elif plant == 4 and len({i, j, k}) == 3:
        d[i][j] = d[j][i] = d[i][k] + d[k][j] + rng.randint(1, 2)
    style = rng.randint(0, 3)
    if style == 1:
        den = rng.randint(2, 12)
        return [[F(x, den) for x in row] for row in d]
    if style == 2:
        return [[x * (2**64 + 13) for x in row] for row in d]
    if style == 3:
        return [[F(x * 2**70, 3) for x in row] for row in d]
    return d


def test_integer_space_check_raises_what_the_scan_names_first():
    rng = SplitMix64(907)
    seen = set()
    for _ in range(600):
        table = _planted_table(rng)
        ids, dist = _parse_table(table, None)
        want = next(_violations(ids, dist), None)
        assert _is_metric(dist) == (want is None)
        seen.add(type(want).__name__)
        if want is None:
            assert validate_space(table).dist == dist
            continue
        with pytest.raises(MetricAxiomError) as got:
            validate_space(table)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        assert got.value.witness == want.witness
    assert seen == {
        "NoneType",
        "NonzeroSelfDistance",
        "AsymmetricDistance",
        "ZeroDistanceDistinctPoints",
        "TriangleViolation",
    }


def test_integer_space_check_runs_on_python_ints_above_int64():
    big = 2**62
    assert _is_metric(_parse_table([[0, big, big], [big, 0, big], [big, big, 0]], None)[1])
    # 2^62 + 2^62 = 2^63 wraps in int64; in Python ints the triangle holds
    far = _parse_table([[0, 2**63, big], [2**63, 0, big], [big, big, 0]], None)[1]
    assert _is_metric(far)
    assert not _is_metric(_parse_table([[0, 2**63 + 1, big], [2**63 + 1, 0, big], [big, big, 0]], None)[1])


def test_lip_constant_examples():
    space = path_space()
    assert lip_constant([3, 3, 3], space) == 0
    dist_to_p0 = [space.dist[0][j] for j in range(3)]
    assert lip_constant(dist_to_p0, space) == 1
    assert lip_constant([2 * x for x in dist_to_p0], space) == 2


def test_lip1_vertices_two_points():
    space = validate_space([[0, 1], [1, 0]])
    verts = lip1_vertices(space)
    assert set(verts.vertices) == {(F(0), F(1)), (F(0), F(-1))}


def test_lip1_vertices_path_frozen():
    verts = lip1_vertices(path_space())
    expected = {
        (F(0), F(1), F(2)),
        (F(0), F(1), F(0)),
        (F(0), F(-1), F(0)),
        (F(0), F(-1), F(-2)),
    }
    assert set(verts.vertices) == expected


def test_lip1_vertices_cap(monkeypatch):
    # over a row budget of 2^10, the line route (the 2^15 corners of the
    # 16-point dyadic level) and the search (its third layer on the 16-point
    # theta level) refuse before they build the rows: the traced peak stays
    # below the bytes of the refused (rows, n) int64 array
    monkeypatch.setattr(metric_core, "VERTEX_ROWS_BUDGET", 2**10)
    for ifs, rows in ((dyadic_ifs(), 2**15), (_THETA, 16_380)):
        space = build_tower(ifs, 4).level(4).space
        space.scaled  # the table is the space's, built before tracing
        tracemalloc.start()
        try:
            with pytest.raises(SpaceTooLarge) as err:
                lip1_vertices(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.rows, err.value.budget) == (rows, 2**10)
        assert str(err.value) == f"vertex enumeration would build {rows} rows, budget is 1024"
        assert peak < rows * space.n * 8


def test_vertex_budget_refuses_the_16_point_theta_level_and_admits_lines():
    theta = build_tower(_THETA, 4).level(4).space
    theta.scaled
    start = time.perf_counter()
    with pytest.raises(SpaceTooLarge) as err:
        lip1_vertices(theta)
    assert time.perf_counter() - start < 1.0
    assert err.value.rows == 1_621_620  # its 196,560-row layer is built
    assert len(lip1_vertices(_strict_space(9, SplitMix64(3)))) > 0
    line = build_tower(dyadic_ifs(), 4).level(4).space
    assert len(lip1_vertices(line)) == 2**15


def test_search_peak_stays_under_its_stated_factor(monkeypatch):
    # beside its _check_rows call the search states its transient factor:
    # an int64 layer peaks near 16 int64s per child it counts (the search
    # that built every child row before merging peaked near 22 here)
    children = []
    check = metric_core._check_rows
    monkeypatch.setattr(metric_core, "_check_rows", lambda rows: (children.append(rows), check(rows)))
    space = _strict_space(9, SplitMix64(3))
    space.scaled
    tracemalloc.start()
    try:
        lip1_vertices(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(children) > 50_000
    assert peak < 17 * 8 * max(children) + 64 * 1024


def test_lip1_vertices_negation_closure():
    rng = SplitMix64(17)
    for _ in range(5):
        space = random_metric_space(rng.randint(2, 5), rng)
        verts = set(lip1_vertices(space).vertices)
        assert {tuple(-x for x in v) for v in verts} == verts


def _gauss_solve(rows, rhs):
    """Exact solve of a square rational system; None if singular."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def brute_force_vertices(space, anchor=0):
    """Literal enumeration: (n-1)-subsets of one-sided constraints, rank
    test by exact elimination, then feasibility."""
    n = space.n
    constraints = [
        (x, y) for x in range(n) for y in range(n) if x != y
    ]  # phi(x) - phi(y) <= d(x, y), tight when chosen
    found = set()
    for subset in itertools.combinations(constraints, n - 1):
        rows = []
        rhs = []
        for x, y in subset:
            row = [F(0)] * n
            row[x] += 1
            row[y] -= 1
            rows.append(row)
            rhs.append(space.dist[x][y])
        row = [F(0)] * n
        row[anchor] = F(1)
        rows.append(row)
        rhs.append(F(0))
        sol = _gauss_solve(rows, rhs)
        if sol is None:
            continue
        feasible = all(
            sol[x] - sol[y] <= space.dist[x][y] for x, y in constraints
        )
        if feasible:
            found.add(tuple(sol))
    return found


def test_vertices_match_subset_enumeration_oracle():
    rng = SplitMix64(23)
    for _ in range(4):
        space = random_metric_space(rng.randint(2, 4), rng)
        assert set(lip1_vertices(space).vertices) == brute_force_vertices(space)


def test_vertices_match_oracle_on_path():
    space = path_space()
    assert set(lip1_vertices(space).vertices) == brute_force_vertices(space)


def _reanchored(verts, b):
    """Sorted vertices of the same space anchored at point b.

    The anchored polytopes of one space are translates of each other
    (f -> f - f(b)), so one search gives the search's answer at every anchor.
    """
    return tuple(sorted(tuple(x - v[b] for x in v) for v in verts))


def _tower_spaces(ifs, depth):
    return [level.space for level in build_tower(ifs, depth).levels]


def _shuffled_line_space(n, rng):
    xs = set()
    while len(xs) < n:
        xs.add(F(rng.randint(-64, 64), rng.randint(1, 8)))
    xs = sorted(xs)
    xs = [xs[i] for i in rng.distinct_indices(n, n)]
    return validate_space([[abs(a - b) for b in xs] for a in xs])


TOWER_LINES = _tower_spaces(dyadic_ifs(), 3) + _tower_spaces(triadic_ifs(), 1)
SHUFFLED_LINES = [_shuffled_line_space(n, SplitMix64(50 + n)) for n in range(2, 9)]


@pytest.mark.parametrize(
    "space, shuffled",
    [(space, False) for space in TOWER_LINES] + [(space, True) for space in SHUFFLED_LINES],
    ids=[f"dyadic-{k}" for k in range(4)]
    + [f"triadic-{k}" for k in range(2)]
    + [f"shuffled-{n}" for n in range(2, 9)],
)
def test_line_vertices_match_search(space, shuffled):
    order = _line_order(space)
    assert order is not None
    # the order walks the line from one end
    assert [space.dist[order[0]][i] for i in order] == sorted(space.dist[order[0]])
    if shuffled and space.n >= 3:
        assert order not in (sorted(order), sorted(order, reverse=True))
    reference = _search_vertices(space, 0).vertices
    assert len(reference) == 2 ** (space.n - 1)
    for b, point in enumerate(space.point_ids):
        verts = lip1_vertices(space, point).vertices
        assert verts == _reanchored(reference, b)
        for vert in verts:
            assert lip_constant(vert, space) <= 1
        if space.n <= 4:
            assert set(verts) == brute_force_vertices(space, b)
            assert verts == _search_vertices(space, b).vertices


def test_reanchoring_matches_search_at_every_anchor():
    rng = SplitMix64(43)
    spaces = [random_metric_space(n, rng) for n in (3, 4, 5)]
    spaces.append(_shuffled_line_space(5, rng))
    for space in spaces:
        reference = _search_vertices(space, 0).vertices
        for b in range(space.n):
            assert _search_vertices(space, b).vertices == _reanchored(reference, b)


def _strict_space(n, rng):
    # every distance in [3/2, 2], so every triangle inequality holds
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = F(3, 2) + F(rng.randint(0, 8), 16)
    return validate_space(d)


def test_non_line_spaces_keep_the_search():
    rng = SplitMix64(47)
    theta = make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 2))], 0, theta=F(1, 3))
    theta3 = make_ifs([(F(1, 3), 0), (F(1, 3), F(1, 3)), (F(1, 3), F(2, 3))], 0, theta=F(1, 3))
    searched = [_strict_space(n, rng) for n in (3, 4, 5)]
    searched += [_tower_spaces(theta, 2)[2], _tower_spaces(theta3, 1)[1]]
    for space in searched:
        assert _line_order(space) is None
        for b, point in enumerate(space.point_ids):
            assert lip1_vertices(space, point).vertices == _search_vertices(space, b).vertices
    theta_deep = _tower_spaces(theta, 3)[3]
    assert _line_order(theta_deep) is None


def _fraction_search_vertices(space, a0):
    """Reference for ``_search_vertices``: the same tree growing in Fraction
    arithmetic, with states as sorted (point, value) pairs and each
    candidate checked against every assigned point."""
    n = space.n
    d = space.dist
    frontier = {((a0, Fraction(0)),)}
    for _ in range(n - 1):
        grown = set()
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


_CROSS_RNG = SplitMix64(61)
CROSS_CHECK = (
    [(f"random-{n}", random_metric_space(n, _CROSS_RNG), n - 1) for n in range(3, 8)]
    + [(f"strict-{n}", _strict_space(n, _CROSS_RNG), n // 2) for n in (5, 6)]
    + [("theta-level-3", _tower_spaces(_THETA, 3)[3], 0), ("float-5", _float_space(5, _CROSS_RNG), 2)]
)


@pytest.mark.parametrize(
    "space, a0", [case[1:] for case in CROSS_CHECK], ids=[case[0] for case in CROSS_CHECK]
)
def test_integer_search_matches_fraction_search(space, a0):
    verts = _search_vertices(space, a0).vertices
    assert list(verts) == _fraction_search_vertices(space, a0)
    assert all(type(x) is Fraction for vert in verts for x in vert)
    if space.n == 8:
        assert len(verts) == 1458


_RANDOM_SEARCH = [random_metric_space(n, SplitMix64(71)) for n in range(1, 9)]


@pytest.mark.parametrize("space", _RANDOM_SEARCH, ids=[f"n{n}" for n in range(1, 9)])
def test_array_search_matches_both_oracles_at_every_anchor(space):
    # the Fraction oracle runs at every anchor up to 6 points; at 7 and 8
    # points, where it is the slowest check in the suite, it runs once and
    # its translates give every other anchor.  The subset oracle is
    # C(n(n-1), n-1) solves, so it runs up to 4 points.
    reference = _fraction_search_vertices(space, 0)
    for b in range(space.n):
        verts = _search_vertices(space, b).vertices
        if space.n <= 6:
            assert list(verts) == _fraction_search_vertices(space, b)
        else:
            assert verts == _reanchored(reference, b)
        if space.n <= 4:
            assert set(verts) == brute_force_vertices(space, b)


def test_array_search_on_one_point_and_nine_point_theta_levels():
    assert _search_vertices(validate_space([[0]]), 0).vertices == ((F(0),),)
    # the 9-point triadic theta level, out of reach of the Fraction oracle:
    # 2,058 is the count the earlier tuple-and-set search gave at both thetas
    for theta in (F(1, 3), F(1, 2)):
        triadic = make_ifs([(F(1, 3), 0), (F(1, 3), F(1, 3)), (F(1, 3), F(2, 3))], 0, theta=theta)
        space = _tower_spaces(triadic, 2)[2]
        assert space.n == 9 and _line_order(space) is None
        assert len(_search_vertices(space, 0)) == 2058


def _equilateral(side):
    return validate_space([[0, side, side], [side, 0, side], [side, side, 0]])


def test_large_tables_take_the_python_int_route():
    # (2n + 2) * max(L*d) < 2^63 keeps int64; at and above it, object
    floats = dict((case[0], case[1]) for case in CROSS_CHECK)["float-5"]
    assert floats.scaled[0] > 2**63
    assert _value_dtype(floats) is object
    assert _value_dtype(CROSS_CHECK[0][1]) is np.int64
    below, at = _equilateral(2**60 - 1), _equilateral(2**60)
    assert _value_dtype(below) is np.int64 and _value_dtype(at) is object
    for space in (below, at, floats):
        assert list(_search_vertices(space, 1).vertices) == _fraction_search_vertices(space, 1)


def _wide_space(n, rng):
    # distances 3/2 + k/1000003: the scale is 2 * 1000003, so M is near 2^22
    # and a packed field takes 23 bits, two to an int64 word
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = F(3, 2) + F(rng.randint(0, 500_000), 1_000_003)
    return validate_space(d)


def _raw_rows(verts, dtype):
    """The vertex rows on the space's own scale, as the routes hold them."""
    scale = verts.space.scaled[0]
    return np.array([[int(x * scale) for x in vert] for vert in verts.vertices], dtype)


KEY_CASES = [
    ("one-word", _strict_space(6, SplitMix64(83)), 1, np.int64),
    ("three-words", _wide_space(5, SplitMix64(89)), 3, np.int64),
    ("object-floats", _float_space(5, SplitMix64(97)), 5, object),
    ("int64-bound", _equilateral(2**60 - 1), 3, np.int64),
]


@pytest.mark.parametrize(
    "space, words, dtype", [case[1:] for case in KEY_CASES], ids=[case[0] for case in KEY_CASES]
)
def test_packed_keys_order_the_search_at_every_anchor(space, words, dtype, monkeypatch):
    # every layer's children keys are recorded on their way to the merge
    seen = []

    def recording(keys):
        seen.append(keys)
        return _first_of_each(keys)

    monkeypatch.setattr(metric_core, "_first_of_each", recording)
    assert _value_dtype(space) is dtype
    for b in range(space.n):
        seen.clear()
        verts = _search_vertices(space, b)
        assert list(verts.vertices) == _fraction_search_vertices(space, b)
        rows = _raw_rows(verts, dtype)
        keys = _pack(space, rows)[0]
        assert keys.shape == (len(rows), words) and keys.dtype == dtype
        # the last layer's incremental keys, merged, are the packed keys of
        # the sorted vertex rows, in order
        assert np.array_equal(seen[-1][_first_of_each(seen[-1])], keys)
        assert np.array_equal(rows[np.lexsort(rows.T[::-1])], rows)
        # an int64 word stays below 2^63; an object word is one field, which
        # stays in [0, 2M + 1]
        top = 2**63 if dtype is np.int64 else 2 * max(map(max, space.scaled[1])) + 2
        for layer in seen:
            assert all(0 <= x < top for x in layer.ravel().tolist())


def test_certification_rejects_a_row_one_over_a_distance():
    space = _strict_space(5, SplitMix64(79))
    _, d = space.scaled
    good = _search_vertices(space, 0).scaled[1]
    table = [list(row) for row in good]
    for dtype in (np.int64, object):
        _check_lip1(np.array(table, dtype), d)
    # d(0, .) is 1-Lipschitz; one more at point 1 breaks the pair (0, 1) by 1
    bad = list(d[0])
    bad[1] += 1
    assert all(abs(bad[i] - bad[j]) <= d[i][j] for i in range(5) for j in range(5) if {i, j} != {0, 1})
    for dtype in (np.int64, object):
        with pytest.raises(MetricAxiomError):
            _check_lip1(np.array(table + [bad], dtype), d)


def test_scaled_table_is_a_cache_outside_equality():
    rng = SplitMix64(67)
    for space in (_strict_space(5, rng), _float_space(4, rng), path_space()):
        fresh = validate_space([list(row) for row in space.dist], space.point_ids)
        scale, table = space.scaled
        assert space.scaled is space.scaled
        assert "scaled" not in fresh.__dict__
        assert space == fresh and hash(space) == hash(fresh)
        assert scale == math.lcm(*(x.denominator for row in space.dist for x in row))
        assert all(type(x) is int for row in table for x in row)
        assert all(F(x, scale) == q for row, qrow in zip(table, space.dist) for x, q in zip(row, qrow))
    assert _float_space(4, rng).scaled[0] > 2**63


_LIP_RNG = SplitMix64(73)
_DYADIC_3 = _tower_spaces(dyadic_ifs(), 3)[3]
LIP_CASES = [
    ("thirds-on-integers", path_space(), [F(1, 3), F(-2, 7), F(5, 11)]),
    ("negative", _strict_space(5, _LIP_RNG), [F(-3, 2), F(-7, 5), 0, -2, F(-1, 9)]),
    ("all-equal", _DYADIC_3, [F(-5, 3)] * 8),
    ("one-point", validate_space([[0]]), [F(7, 3)]),
    ("float-table", _float_space(5, _LIP_RNG), [F(k, 13) for k in (0, 4, -9, 2, 11)]),
    ("ints", _DYADIC_3, [3, -1, 4, 1, -5, 9, -2, 6]),
    ("dyadic-vertex", _DYADIC_3, list(lip1_vertices(_DYADIC_3).vertices[77])),
]


@pytest.mark.parametrize(
    "space, values", [case[1:] for case in LIP_CASES], ids=[case[0] for case in LIP_CASES]
)
def test_lip_constant_matches_fraction_loop(space, values):
    got = lip_constant(values, space)
    assert type(got) is Fraction
    assert got == _loop_lip_constant(values, space, Fraction(0))
    # floats are read at their exact binary value; the float loop rounds
    # each difference, distance and quotient, so it is within a few ulps
    floats = [float(x) for x in values]
    got = lip_constant(floats, space)
    assert type(got) is Fraction
    assert got == _loop_lip_constant([F(x) for x in floats], space, Fraction(0))
    loop = _loop_lip_constant(floats, space, 0.0)
    assert abs(float(got) - loop) <= 4 * math.ulp(loop)


def _canonical_half(vertices):
    """Reference for ``Lip1VertexSet.half``: one vertex of each {phi, -phi}
    pair, in vertex order."""
    seen = set()
    out = []
    for vert in vertices.vertices:
        neg = tuple(-x for x in vert)
        if neg in seen:
            continue
        seen.add(vert)
        out.append(vert)
    return out


def test_vertex_set_caches_its_sign_half():
    one_point = lip1_vertices(validate_space([[0]]))
    assert one_point.half == one_point.vertices == ((F(0),),)
    # lines, random, strict and theta spaces divide in float64 (L * max(diam, 1)
    # below 2^53); the float table's L passes 2^53, so it divides Python ints
    spaces = [path_space(), SHUFFLED_LINES[-1]] + [case[1] for case in CROSS_CHECK]
    in_float64 = [True] * (len(spaces) - 1) + [False]
    for space, small in zip(spaces, in_float64):
        verts = lip1_vertices(space)
        assert (verts.scaled[0] * max(space.diam, 1) < 2**53) == small
        assert small or verts.scaled[0] > 2**53
        assert verts.half == tuple(_canonical_half(verts))
        assert verts.half is verts.half
        # no vertex of two or more points is its own negation
        assert 2 * len(verts.half) == len(verts)
        arr = verts.half_floats
        assert arr is verts.half_floats
        assert arr.dtype == np.float64 and not arr.flags.writeable
        # bitwise the floats of the Fractions, though built from the scaled ints
        floats = np.array([[float(x) for x in vert] for vert in verts.half])
        assert np.array_equal(arr.view(np.uint64), floats.view(np.uint64))
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_vertex_set_caches_its_scaled_ints():
    spaces = [validate_space([[0]]), path_space()] + [case[1] for case in CROSS_CHECK]
    for space in spaces:
        verts = lip1_vertices(space)
        scale, ints = verts.scaled
        assert verts.scaled is verts.scaled
        assert space.scaled[0] % scale == 0
        assert all(type(x) is int for vert in ints for x in vert)
        assert tuple(tuple(F(x, scale) for x in vert) for vert in ints) == verts.vertices
        # L is the lcm of the vertex denominators, not the table's scale
        assert (scale, [x for vert in ints for x in vert]) == cleared(
            [x for vert in verts.vertices for x in vert]
        )


def test_a_table_given_as_a_function_is_built_on_first_read():
    # the function gives one distance; d calls it, and dist builds the table once
    calls = []
    path = path_space().dist

    def pair(i, j):
        calls.append((i, j))
        return path[i][j]

    lazy = FiniteMetricSpace(("p0", "p1", "p2"), pair)
    other = FiniteMetricSpace(("a", "b", "c"), pair)
    assert lazy == lazy and lazy != other and hash(lazy) == hash(lazy.point_ids)
    assert lazy.n == 3 and lazy.index("p2") == 2
    assert calls == [] and "dist" not in vars(lazy)
    assert lazy.d(0, 2) == 2 and lazy.d(2, 1) == 1
    assert calls == [(0, 2), (2, 1)] and "dist" not in vars(lazy)
    calls.clear()
    assert lazy == path_space()  # equal ids: the tables are compared
    assert calls == [(i, j) for i in range(3) for j in range(3)]
    calls.clear()
    assert lazy.scaled == path_space().scaled and lazy.diam == 2
    assert lazy.dist is lazy.dist and lazy.d(0, 2) == 2 and calls == []
    validated = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert validated == lazy


def test_anchored_lip1_membership_lp():
    # every anchored 1-Lipschitz function is a convex combination of vertices
    scipy = pytest.importorskip("scipy.optimize")
    import numpy as np

    rng = SplitMix64(29)
    for _ in range(5):
        space = random_metric_space(rng.randint(2, 4), rng)
        verts = lip1_vertices(space)
        raw = [rng.uniform(-float(space.diam), float(space.diam)) for _ in range(space.n)]
        phi = mcshane(space, raw)
        phi = [x - phi[0] for x in phi]
        vmat = np.array([[float(x) for x in v] for v in verts.vertices]).T
        n_verts = vmat.shape[1]
        a_eq = np.vstack([vmat, np.ones((1, n_verts))])
        b_eq = np.array([float(x) for x in phi] + [1.0])
        res = scipy.linprog(
            c=np.zeros(n_verts), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n_verts
        )
        assert res.success


def test_vertex_lipschitz_exactness():
    rng = SplitMix64(31)
    space = random_metric_space(5, rng)
    for vert in lip1_vertices(space).vertices:
        assert lip_constant(vert, space) <= 1


def test_mcshane_is_one_lipschitz():
    rng = SplitMix64(37)
    for _ in range(5):
        space = random_metric_space(rng.randint(2, 5), rng)
        raw = [F(rng.randint(-32, 32), 8) for _ in range(space.n)]
        reg = mcshane(space, raw)
        assert lip_constant(reg, space) <= 1


def test_certify_lipschitz():
    space = path_space()
    f = certify_lipschitz(space, [F(0), F(1, 2), F(1)])
    assert f.constant == F(1, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
def test_random_metric_spaces_validate(seed, n):
    space = random_metric_space(n, SplitMix64(seed))
    # triangle inequality and symmetry hold after closure
    for i in range(n):
        for j in range(n):
            assert space.dist[i][j] == space.dist[j][i]
            for k in range(n):
                assert space.dist[i][j] <= space.dist[i][k] + space.dist[k][j]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_vertices_are_feasible_and_mirrored(seed):
    rng = SplitMix64(seed)
    space = random_metric_space(rng.randint(2, 5), rng)
    verts = lip1_vertices(space)
    anchor = space.index(verts.anchor)
    for v in verts.vertices:
        assert v[anchor] == 0
        for i in range(space.n):
            for j in range(space.n):
                assert abs(v[i] - v[j]) <= space.dist[i][j]
        assert tuple(-x for x in v) in set(verts.vertices)
