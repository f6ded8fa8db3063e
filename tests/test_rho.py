"""The operator metric: exact values, lower bounds, axioms, topology bounds."""

from fractions import Fraction

import numpy as np
import pytest

from pvmk.errors import MismatchedMeasures
from pvmk.ifs import build_tower, dyadic_ifs, make_ifs
from pvmk.linalg import spectral_norm, to_complex, top_eigenpair
from pvmk.metric_core import Lip1VertexSet, lip_constant, lip1_vertices, validate_space
from pvmk.ovm import conjugate, diagonal_pvm, integrate, rho_assignments, validate_ovm
from pvmk.rho import (
    SPHERE_ASCENT_STEPS,
    _difference_stack,
    metric_axiom_suite,
    rho_exact,
    rho_lower_grid,
    rho_lower_sphere,
    topology_bounds,
)
from pvmk.rationals import cleared
from pvmk.rng import SplitMix64
from pvmk.sampling import (
    random_diagonal_pvm_pair,
    random_metric_space,
    random_povm,
    random_pvm,
    random_rational_measure,
    random_rational_values,
    random_unit_vector,
    random_unitary,
)
from pvmk.transport import ProbMeasure, kantorovich, kantorovich_dual_oracle
from oracles import _float_space, mcshane, strict_space

F = Fraction


def swapped_pair():
    """Diagonal truth and its swap on the two-point space {0, 1/2}."""
    space = validate_space([[0, "1/2"], ["1/2", 0]])
    e = validate_ovm(space, [np.diag([1, 0]), np.diag([0, 1])], "projection")
    f = validate_ovm(space, [np.diag([0, 1]), np.diag([1, 0])], "projection")
    return space, e, f


def test_rho_self_distance_zero():
    space, e, _ = swapped_pair()
    verts = lip1_vertices(space)
    res = rho_exact(space, e, e, verts)
    assert res.value == 0.0
    assert res.exact == 0


def test_rho_swapped_diagonal_is_half():
    space, e, f = swapped_pair()
    verts = lip1_vertices(space)
    res = rho_exact(space, e, f, verts)
    assert res.exact == F(1, 2)
    assert res.method == "vertex"


def test_rho_commuting_diagonal_closed_form():
    rng = SplitMix64(41)
    for _ in range(10):
        n = rng.randint(2, 4)
        dim = rng.randint(2, 4)
        space = random_metric_space(n, rng)
        verts = lip1_vertices(space)
        e, f, a, b = random_diagonal_pvm_pair(space, dim, rng)
        closed = max(space.dist[ai][bi] for ai, bi in zip(a, b))
        assert rho_exact(space, e, f, verts).exact == closed


def test_rho_assignments_matches_the_vertex_route_on_random_spaces():
    # 3 to 7 points, generic search spaces, so no line or ultrametric shortcut
    rng = SplitMix64(43)
    nonzero = 0
    for n in range(3, 8):
        space = random_metric_space(n, rng)
        verts = lip1_vertices(space)
        for _ in range(12):
            e, f, _, _ = random_diagonal_pvm_pair(space, rng.randint(1, 6), rng)
            value = rho_assignments(e, f)
            assert type(value) is Fraction
            assert value == rho_exact(space, e, f, verts).exact == rho_assignments(f, e)
            nonzero += value != 0
    assert nonzero >= 50


def test_rho_assignments_needs_two_assignments_on_one_frame():
    rng = SplitMix64(47)
    space = random_metric_space(3, rng)
    e, f, _, _ = random_diagonal_pvm_pair(space, 3, rng)
    with pytest.raises(MismatchedMeasures):
        rho_assignments(e, random_pvm(space, 3, rng))
    with pytest.raises(MismatchedMeasures):
        rho_assignments(e, diagonal_pvm(space, [0, 1]))
    with pytest.raises(MismatchedMeasures):
        rho_assignments(e, diagonal_pvm(random_metric_space(3, rng), [0, 1, 2]))
    assert rho_assignments(e, e) == 0


def test_rho_results_compare_by_identity():
    space, e, f = swapped_pair()
    verts = lip1_vertices(space)
    a, b = rho_exact(space, e, f, verts), rho_exact(space, e, f, verts)
    assert a == a and a != b and len({a, b}) == 2


def test_rho_witness_reproduces_value():
    rng = SplitMix64(43)
    space = random_metric_space(4, rng)
    verts = lip1_vertices(space)
    e = random_pvm(space, 4, rng, complex_=True)
    f = random_pvm(space, 4, rng, complex_=True)
    res = rho_exact(space, e, f, verts)
    redone = spectral_norm(
        to_complex(integrate(res.witness_phi.values, e))
        - to_complex(integrate(res.witness_phi.values, f))
    )
    assert abs(redone - res.value) <= 1e-10
    assert res.witness_phi.constant <= 1
    # the witness vector achieves the operator norm of the witness operator
    w = to_complex(integrate(res.witness_phi.values, e)) - to_complex(
        integrate(res.witness_phi.values, f)
    )
    h = res.witness_vector
    assert abs(abs(np.vdot(h, w @ h)) - res.value) <= 1e-9


def test_rho_anchoring_invariance():
    # adding a constant to the test function does not change the objective
    rng = SplitMix64(47)
    space = random_metric_space(3, rng)
    e = random_pvm(space, 3, rng)
    f = random_pvm(space, 3, rng)
    phi = [0.0, 0.3, -0.2]
    base = spectral_norm(
        to_complex(integrate(phi, e)) - to_complex(integrate(phi, f))
    )
    shifted = [x + 5.0 for x in phi]
    moved = spectral_norm(
        to_complex(integrate(shifted, e)) - to_complex(integrate(shifted, f))
    )
    assert abs(base - moved) < 1e-9


def test_rho_negation_symmetry_and_order_invariance():
    space, e, f = swapped_pair()
    verts = lip1_vertices(space)
    assert rho_exact(space, e, f, verts).value == rho_exact(space, f, e, verts).value


def test_rho_is_bitwise_symmetric_on_a_shared_vertex_set():
    rng = SplitMix64(73)
    for n in (4, 5):
        space = random_metric_space(n, rng)
        verts = lip1_vertices(space)
        pairs = [
            (random_pvm(space, 3, rng, complex_=True), random_pvm(space, 3, rng, complex_=True)),
            (random_povm(space, 3, rng), random_povm(space, 3, rng)),
        ]
        for e, f in pairs:
            ef = rho_exact(space, e, f, verts)
            fe = rho_exact(space, f, e, verts)
            assert ef.value == fe.value
            assert ef.witness_phi.values == fe.witness_phi.values


def test_sphere_same_with_fresh_or_shared_vertex_set():
    rng = SplitMix64(79)
    space = random_metric_space(5, rng)
    e = random_pvm(space, 3, rng, complex_=True)
    f = random_pvm(space, 3, rng, complex_=True)
    shared = lip1_vertices(space)
    rho_exact(space, e, f, shared)  # fills the shared set's caches first
    shared_run = rho_lower_sphere(space, e, f, restarts=4, seed=5, vertices=shared)
    fresh_run = rho_lower_sphere(space, e, f, restarts=4, seed=5, vertices=lip1_vertices(space))
    assert fresh_run.value == shared_run.value
    assert fresh_run.witness_phi.values == shared_run.witness_phi.values
    assert np.array_equal(fresh_run.witness_vector, shared_run.witness_vector)


def test_sphere_on_swapped_pair():
    space, e, f = swapped_pair()
    verts = lip1_vertices(space)
    res = rho_lower_sphere(space, e, f, restarts=5, seed=1, vertices=verts)
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_sphere_and_grid_are_lower_bounds():
    rng = SplitMix64(53)
    for t in range(5):
        n = rng.randint(2, 4)
        dim = rng.randint(2, 4)
        space = random_metric_space(n, rng)
        verts = lip1_vertices(space)
        if t % 2:
            e = random_pvm(space, dim, rng, complex_=True)
            f = random_pvm(space, dim, rng, complex_=True)
        else:
            e = random_povm(space, dim, rng)
            f = random_povm(space, dim, rng)
        exact = rho_exact(space, e, f, verts).value
        sphere = rho_lower_sphere(space, e, f, restarts=60, seed=t, vertices=verts).value
        grid = rho_lower_grid(space, e, f, samples=200, seed=t).value
        assert sphere <= exact + 1e-10
        assert grid <= exact + 1e-10
        assert abs(sphere - exact) <= 1e-4
        assert grid <= sphere + 1e-10


def _loop_sphere(space, e, f, restarts, seed, verts):
    """Reference for ``rho_lower_sphere``: the restarts one after another,
    each drawing its start vector when it starts, and the first maximum in
    (restart, step) order under a strict >.  Returns (value, vertex, h)."""
    cdeltas = to_complex(_difference_stack(e, f)[0])
    complex_case = bool(np.abs(cdeltas.imag).max() > 0.0)
    phis = verts.half_floats
    rng = SplitMix64(seed)
    best, best_h, best_vert = -1.0, None, verts.vertices[0]
    for _ in range(restarts):
        h = random_unit_vector(e.dim, rng, complex_=complex_case)
        prev = -1.0
        for _step in range(SPHERE_ASCENT_STEPS):
            svec = np.real(np.einsum("i,aij,j->a", h.conj(), cdeltas, h))
            vals = np.abs(phis @ svec)
            iv = int(np.argmax(vals))
            val = float(vals[iv])
            if val > best:
                best, best_h, best_vert = val, h, verts.vertices[iv]
            if val <= prev * (1.0 + 1e-15):
                break
            prev = val
            witness = np.tensordot(phis[iv], cdeltas, axes=(0, 0))
            _, h = top_eigenpair(witness)
    return best, best_vert, best_h


def _sphere_panel():
    rng = SplitMix64(97)
    cases = []
    for n in (5, 6, 7):
        space = strict_space(n, rng)
        e, f = (random_pvm(space, 3, rng, complex_=True) for _ in range(2))
        u = random_unitary(3, rng)
        pairs = {
            "real-pvm": (random_pvm(space, 6, rng), random_pvm(space, 6, rng)),
            "complex-pvm": (e, f),
            "povm": (random_povm(space, 4, rng), random_povm(space, 4, rng)),
            "conjugated": (conjugate(e, u), conjugate(f, u)),
        }
        cases += [(f"n{n}-{name}", space, pair) for name, pair in pairs.items()]
    return cases


SPHERE_PANEL = _sphere_panel()


@pytest.mark.parametrize("restarts", [1, 6, 60])
@pytest.mark.parametrize(
    "space, pair", [case[1:] for case in SPHERE_PANEL], ids=[case[0] for case in SPHERE_PANEL]
)
def test_lockstep_sphere_matches_the_per_restart_loop(space, pair, restarts):
    e, f = pair
    verts = lip1_vertices(space)
    res = rho_lower_sphere(space, e, f, restarts, seed=restarts + space.n, vertices=verts)
    value, vert, loop_h = _loop_sphere(space, e, f, restarts, restarts + space.n, verts)
    assert abs(res.value - value) <= 1e-12 * max(1.0, value)
    if res.value == value:  # same bits, so the same first maximum
        assert res.witness_phi.values == vert and np.array_equal(res.witness_vector, loop_h)
    h = res.witness_vector
    assert abs(np.vdot(h, h).real - 1.0) <= 1e-12
    m = to_complex(integrate(res.witness_phi.values, e)) - to_complex(integrate(res.witness_phi.values, f))
    assert abs(abs(np.vdot(h, m @ h)) - res.value) <= 1e-12


def test_grid_constant_sample_is_zero():
    space, e, f = swapped_pair()
    res = rho_lower_grid(space, e, f, samples=1, seed=0)
    assert 0.0 <= res.value <= 0.5 + 1e-10


def test_grid_samples_are_the_mcshane_regularizations():
    # the float table route gives, bit for bit, the phis mcshane gives for
    # float raw values on the exact table
    rng = SplitMix64(83)
    space = random_metric_space(5, rng)
    e = random_pvm(space, 3, rng, complex_=True)
    f = random_pvm(space, 3, rng, complex_=True)
    samples = 12
    res = rho_lower_grid(space, e, f, samples=samples, seed=7)
    draws = SplitMix64(7)
    diam = float(space.diam)
    phis = []
    for _ in range(samples):
        phi = mcshane(space, [draws.uniform(-diam, diam) for _ in range(space.n)])
        phis.append(tuple(x - phi[0] for x in phi))
    norms = [
        spectral_norm(to_complex(integrate(phi, e)) - to_complex(integrate(phi, f))) for phi in phis
    ]
    best = phis[int(np.argmax(norms))]
    assert res.witness_phi.values == best
    assert all(type(x) is float for x in best)
    assert res.value == pytest.approx(max(norms), abs=1e-12)


def test_mismatched_measures_rejected():
    rng = SplitMix64(59)
    s1 = random_metric_space(3, rng)
    s2 = random_metric_space(3, rng)
    e = random_pvm(s1, 3, rng)
    f = random_pvm(s2, 3, rng)
    with pytest.raises(MismatchedMeasures):
        rho_exact(s1, e, f, lip1_vertices(s1))


def test_metric_axiom_suite_trivial_and_random():
    space, e, f = swapped_pair()
    verts = lip1_vertices(space)
    trivial = metric_axiom_suite(space, e, e, e, vertices=verts)
    assert trivial.passed and trivial.rho_ef == 0.0
    swapped = metric_axiom_suite(space, e, f, e, vertices=verts)
    assert swapped.passed
    assert swapped.rho_ef == 0.5
    assert swapped.bounded_ok  # 1/2 <= 2 * (1/2)
    rng = SplitMix64(61)
    for t in range(4):
        sp = random_metric_space(3, rng)
        vs = lip1_vertices(sp)
        trio = [random_pvm(sp, 4, rng, complex_=(t % 2 == 0)) for _ in range(3)]
        report = metric_axiom_suite(sp, *trio, vertices=vs)
        assert report.passed


def test_topology_bounds_examples():
    space, e, f = swapped_pair()
    verts = lip1_vertices(space)
    # constant test function: zero integral difference
    rep = topology_bounds(space, [7, 7], e, f, vertices=verts)
    assert rep.integral_gap < 1e-12
    assert rep.passed
    # identical measures: both sides of the reverse bound vanish
    rep = topology_bounds(space, [F(0), F(1, 2)], e, e, vertices=verts)
    assert rep.rho == 0.0 and rep.diam_times_atom_sum == 0.0
    assert rep.passed


def test_topology_bounds_random():
    rng = SplitMix64(67)
    for t in range(8):
        n = rng.randint(2, 4)
        dim = rng.randint(2, 4)
        space = random_metric_space(n, rng)
        verts = lip1_vertices(space)
        e = random_pvm(space, dim, rng)
        f = random_povm(space, dim, rng) if t % 2 else random_pvm(space, dim, rng)
        fvals = random_rational_values(space, rng)
        rep = topology_bounds(space, fvals, e, f, vertices=verts)
        assert rep.passed


# ------------------------------------------------ integer diagonal reference


def _loop_difference_stack(e, f):
    """Reference for ``rho._difference_stack``: the sign of the first
    non-zero entry, found by walking every entry in a Python list; exact,
    complex when either measure is, and real otherwise."""
    exact = e.is_exact and f.is_exact
    if exact:
        deltas = [a - b for a, b in zip(e.mats, f.mats)]
    elif np.iscomplexobj(e.mats) or np.iscomplexobj(f.mats):
        deltas = [to_complex(a) - to_complex(b) for a, b in zip(e.mats, f.mats)]
    else:
        deltas = [np.asarray(a, dtype=float) - np.asarray(b, dtype=float) for a, b in zip(e.mats, f.mats)]
    for x in [x for m in deltas for x in np.asarray(m).ravel()]:
        if x != 0:
            if (x.real if isinstance(x, complex) else x) < 0:
                deltas = [-m for m in deltas]
            break
    return deltas


def _fraction_rho_diagonal(space, e, f, verts):
    """Reference for the exact diagonal branch of ``rho_exact``: the
    Fraction loop over the half (the first ceil(m/2) vertices) and the
    diagonal slots, with a strict >."""
    deltas = _loop_difference_stack(e, f)
    diag = [[np.asarray(m)[j, j] for m in deltas] for j in range(e.dim)]
    best, best_vert, best_j = F(0), verts.vertices[0], 0
    for vert in verts.vertices[: (len(verts) + 1) // 2]:
        for j in range(e.dim):
            val = abs(sum(p * w for p, w in zip(vert, diag[j])))
            if val > best:
                best, best_vert, best_j = val, vert, j
    return best, best_vert, best_j


def _int_scan_diagonal_vertex(verts, deltas):
    """Reference for ``Lip1VertexSet.best`` on the diagonals: the former
    ``rho._best_diagonal_vertex``, a vertex-major, slot-minor scan in Python
    ints with a strict ``>`` that scores only the slots with a non-zero
    difference, each on its non-zero atoms."""
    scale, ints = verts.scale, verts.rows.tolist()
    d = deltas.shape[1]
    unit, flat = cleared(deltas.diagonal(axis1=1, axis2=2).ravel().tolist())
    slots = []
    for j in range(d):
        nonzero = [(a, w) for a, w in enumerate(flat[j::d]) if w]
        if nonzero:
            slots.append((j, nonzero))
    best, best_i, best_j = 0, 0, 0
    for i, vert in enumerate(ints[: (len(ints) + 1) // 2]):
        for j, col in slots:
            val = abs(sum([vert[a] * w for a, w in col]))
            if val > best:
                best, best_i, best_j = val, i, j
    return F(best, scale * unit), best_i, best_j


def _rational_diagonal_povm(space, dim, rng, denom):
    """Diagonal positive measure: basis slot j split over the atoms in
    random parts of 1/denom, as an exact object matrix per atom."""
    parts = [[0] * dim for _ in range(space.n)]
    for j in range(dim):
        for _ in range(denom):
            parts[rng.randint(0, space.n - 1)][j] += 1
    mats = [np.diag([F(x, denom) for x in row]).astype(object) for row in parts]
    return validate_ovm(space, mats, "positive")


def _diagonal_reference_cases():
    rng = SplitMix64(83)
    cases = []
    for n in (2, 3, 4, 5, 6):
        space = random_metric_space(n, rng)
        for t in range(4):
            e, f, _, _ = random_diagonal_pvm_pair(space, rng.randint(1, 5), rng)
            cases.append((f"pvm-{n}-{t}", space, e, f))
            cases.append((f"pvm-{n}-{t}-flipped", space, f, e))
        for t, denom in enumerate((2, 3, 7, 12)):
            dim = rng.randint(1, 4)
            e = _rational_diagonal_povm(space, dim, rng, denom)
            g = _rational_diagonal_povm(space, dim, rng, 5)
            cases.append((f"povm-{n}-{t}", space, e, g))
            cases.append((f"povm-{n}-{t}-flipped", space, g, e))
        cases.append((f"equal-{n}", space, e, e))
    # tower levels: the dyadic line and the theta = 1/3 ultrametric, 8 cells
    theta = make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 2))], 0, theta=F(1, 3))
    for name, ifs in (("dyadic", dyadic_ifs()), ("theta", theta)):
        space = build_tower(ifs, 3).level(3).space
        for t in range(3):
            e, f, _, _ = random_diagonal_pvm_pair(space, 8, rng)
            cases.append((f"{name}-level-3-{t}", space, e, f))
    # 0/1 measures against rational ones: int64 minus object matrices
    space = random_metric_space(4, rng)
    e, _, _, _ = random_diagonal_pvm_pair(space, 3, rng)
    cases.append(("pvm-minus-povm", space, e, _rational_diagonal_povm(space, 3, rng, 6)))
    # halves on one slot and thirds on the other: no single entry carries
    # the lcm 6 of the denominators
    space = random_metric_space(3, rng)
    thirds = [np.diag([F(1, 2), F(1, 3)]), np.diag([F(1, 2), F(1, 3)]), np.diag([F(0), F(1, 3)])]
    e = validate_ovm(space, [m.astype(object) for m in thirds], "positive")
    cases.append(("coprime-slots", space, e, diagonal_pvm(space, [2, 0])))
    # ties: every slot of the swapped pair scores 1/2, and on the unit path
    # many vertices reach the same value
    cases.append(("swapped-tie",) + swapped_pair())
    path = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    e = validate_ovm(path, [np.diag([1, 0, 0]), np.diag([0, 1, 0]), np.diag([0, 0, 1])], "projection")
    g = validate_ovm(path, [np.diag([0, 1, 0]), np.diag([1, 0, 1]), np.diag([0, 0, 0])], "projection")
    cases.append(("path-ties", path, e, g))
    cases.append(("path-ties-flipped", path, g, e))
    # slots 0, 2 and 4 agree, so their differences are all zero
    space = random_metric_space(4, rng)
    cases.append(("zero-slots", space, diagonal_pvm(space, [0, 1, 2, 3, 1]),
                  diagonal_pvm(space, [0, 3, 2, 1, 1])))
    one = validate_space([[0]])
    cases.append(("one-point", one, diagonal_pvm(one, [0, 0]), diagonal_pvm(one, [0, 0])))
    # cleared values past 2^63: a table scaled past 2^63, and weights over
    # denominators past 2^64
    space = _float_space(5, rng)
    e, f, _, _ = random_diagonal_pvm_pair(space, 4, rng)
    cases.append(("float-space", space, e, f))
    space = random_metric_space(3, rng)
    p, q = F(1, 2**64 + 13), F(1, 2**65 + 7)
    huge = [np.diag(w).astype(object) for w in ([p, q], [q, p], [1 - p - q, 1 - p - q])]
    e = validate_ovm(space, huge, "positive")
    cases.append(("huge-weights", space, e, diagonal_pvm(space, [0, 2])))
    return cases


DIAGONAL_CASES = _diagonal_reference_cases()


@pytest.mark.parametrize(
    "space, e, f", [case[1:] for case in DIAGONAL_CASES], ids=[case[0] for case in DIAGONAL_CASES]
)
def test_integer_diagonal_rho_matches_fraction_reference(space, e, f):
    verts = lip1_vertices(space)
    res = rho_exact(space, e, f, verts)
    best, best_vert, best_j = _fraction_rho_diagonal(space, e, f, verts)
    deltas, _ = _difference_stack(e, f)
    unit, flat = cleared(deltas.diagonal(axis1=1, axis2=2).ravel().tolist())
    top, i, j = verts.best(np.array(flat, dtype=object).reshape(deltas.shape[:2]))
    expected = _int_scan_diagonal_vertex(verts, deltas)
    assert (F(top, verts.scale * unit), i, j) == expected == (best, verts.vertices.index(best_vert), best_j)
    assert type(res.exact) is Fraction and res.exact == best
    assert res.value == float(best)
    assert res.witness_phi.values == best_vert
    assert res.witness_phi.constant == lip_constant(best_vert, space)
    expected_vec = np.zeros(e.dim)
    expected_vec[best_j] = 1.0
    assert np.array_equal(res.witness_vector, expected_vec)
    if e is f:
        assert res.exact == 0 and best_j == 0 and best_vert == verts.vertices[0]


@pytest.mark.parametrize(
    "space, e, f", [case[1:] for case in DIAGONAL_CASES], ids=[case[0] for case in DIAGONAL_CASES]
)
def test_commuting_rho_is_the_largest_slot_w1(space, e, f):
    # Slot j carries the signed measure a -> E_a[j, j] - F_a[j, j]; W1 of
    # its positive and negative parts (equal masses m) is m * W1 of the
    # normalized parts, found by the transport simplex.
    slots = []
    for j in range(e.dim):
        diff = [F(x) for x in (e.mats[:, j, j] - f.mats[:, j, j]).tolist()]
        mass = sum(x for x in diff if x > 0)
        if mass:
            pos = ProbMeasure(tuple(max(x, 0) / mass for x in diff))
            neg = ProbMeasure(tuple(max(-x, 0) / mass for x in diff))
            slots.append(mass * kantorovich(space, pos, neg).value)
    expected = max(slots, default=F(0))
    assert rho_exact(space, e, f, lip1_vertices(space)).exact == expected


def test_best_keeps_the_first_maximum_and_scores_the_one_point_space():
    path = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    verts = lip1_vertices(path)
    scale = verts.scale
    # every vertex has phi(p1) = +/-1, so every (vertex, slot) ties at L
    assert verts.best([[0, 0], [1, 1], [0, 0]]) == (scale, 0, 0)
    assert verts.best([[0, 0, 0]] * 3) == (0, 0, 0)
    # |phi(p2)| is largest (2) at the half's vertex with slopes (-, -), in
    # both slots
    top, i, j = verts.best([[0, 0], [0, 0], [1, -1]])
    assert (top, j) == (2 * scale, 0) and verts.vertices[i] == (0, -1, -2)
    one = lip1_vertices(validate_space([[0]]))
    assert one.best([[2**70, -3]]) == (0, 0, 0)


def test_vertex_readers_build_only_their_witness_rows(monkeypatch):
    # lip1_vertices, rho_exact on an exact diagonal and on a float pair, the
    # sphere search and the transport dual oracle read the integer rows
    # alone: the Fraction view stays unbuilt, and each witness is the one
    # Fraction row built for it, the view's vertex of the same row
    built = []
    vertex = Lip1VertexSet.vertex

    def recording(self, i):
        built.append((int(i), vertex(self, i)))
        return built[-1][1]

    monkeypatch.setattr(Lip1VertexSet, "vertex", recording)
    rng = SplitMix64(97)
    space = random_metric_space(6, rng)
    verts = lip1_vertices(space)
    assert "vertices" not in verts.__dict__
    e, f, _, _ = random_diagonal_pvm_pair(space, 3, rng)
    g, h = random_pvm(space, 3, rng), random_pvm(space, 3, rng)
    results = [rho_exact(space, e, f, verts), rho_exact(space, g, h, verts)]
    results.append(rho_lower_sphere(space, g, h, restarts=4, vertices=verts))
    mu, nu = random_rational_measure(6, rng), random_rational_measure(6, rng)
    assert kantorovich_dual_oracle(space, mu, nu, verts) == kantorovich(space, mu, nu).value
    assert "vertices" not in verts.__dict__
    assert results[0].exact is not None and results[1].exact is None
    assert [res.witness_phi.values for res in results] == [values for _, values in built]
    assert all(values == verts.vertices[i] for i, values in built)
    with pytest.raises(ValueError):
        verts.rows[0, 0] = 1


def test_difference_stack_sign_matches_the_entry_walk():
    rng = SplitMix64(89)
    space = random_metric_space(4, rng)
    pairs = [case[2:] for case in DIAGONAL_CASES[:12]]
    pairs += [
        (random_pvm(space, 3, rng, complex_=True), random_pvm(space, 3, rng, complex_=True)),
        (random_povm(space, 3, rng), random_povm(space, 3, rng)),
    ]
    e, _ = pairs[-1]
    pairs += [(e, e), (diagonal_pvm(space, [0, 3, 1]), e)]
    for e, f in pairs:
        for a, b in zip(_difference_stack(e, f)[0], _loop_difference_stack(e, f)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
