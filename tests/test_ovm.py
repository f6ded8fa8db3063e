"""Operator valued measure axioms and the scalar-measure calculus."""

from fractions import Fraction

import numpy as np
import pytest

from pvmk.cuntz import multiplication_pvm
from pvmk.fixed_point import phi_step
from pvmk.errors import (
    CrossProductNonzero,
    MismatchedMeasures,
    NotHermitian,
    NotIdempotent,
    NotPSD,
    NotUnitary,
    SumNotIdentity,
)
from pvmk.linalg import max_abs, spectral_norm, to_complex
from pvmk.metric_core import validate_space
from pvmk.ovm import (
    conjugate,
    diagonal_pvm,
    integrate,
    measure_of,
    polarize,
    quadratic_oracle_from,
    representation_check,
    scalar_measure,
    validate_ovm,
)
from pvmk.rng import SplitMix64
from pvmk.sampling import (
    random_metric_space,
    random_povm,
    random_pvm,
    random_unit_vector,
    random_unitary,
)

F = Fraction


def two_atom_space():
    return validate_space([[0, "1/2"], ["1/2", 0]])


def half_identity_povm():
    space = two_atom_space()
    return validate_ovm(space, [np.eye(2) / 2, np.eye(2) / 2], "positive")


def test_diagonal_pvm_validates(dyadic_ct2):
    pvm = multiplication_pvm(dyadic_ct2, 2)
    again = validate_ovm(pvm.space, pvm.mats, "projection")
    assert again.kind == "projection"


def test_diagonal_pvm_keeps_its_assignment_and_builds_atoms_when_read():
    space = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    pvm = diagonal_pvm(space, [2, 0, 2, 1])
    assert pvm.dim == 4 and pvm.is_exact
    assert pvm.assignment.tolist() == [2, 0, 2, 1] and not pvm.assignment.flags.writeable
    assert "mats" not in vars(pvm)  # dim and is_exact read the assignment
    assert [np.diag(m).tolist() for m in pvm.mats] == [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]]
    assert not np.count_nonzero(pvm.mats * (1 - np.eye(4, dtype=np.int64)))
    assert pvm.mats is pvm.mats  # built once


@pytest.mark.parametrize("assignment, entry", [([-1, 0, 1], -1), ([0, 2, 1], 2)], ids=["negative", "past-last"])
def test_diagonal_pvm_rejects_an_entry_that_names_no_atom(assignment, entry):
    # a negative entry would wrap to the last atom, and one past the last
    # atom would surface only when the dense atoms are built
    with pytest.raises(MismatchedMeasures, match=f"entry {entry} "):
        diagonal_pvm(two_atom_space(), assignment)


def test_measures_compare_and_hash_by_identity():
    # ndarray fields have no single truth value, so comparison is identity
    rng = SplitMix64(31)
    space = random_metric_space(3, rng)
    for e, f in [
        (random_pvm(space, 3, rng), random_pvm(space, 3, rng)),
        (diagonal_pvm(space, [0, 1, 2]), diagonal_pvm(space, [0, 1, 2])),
    ]:
        assert e == e and e != f and not e == f
        assert len({e, f, e}) == 2


def test_half_identity_is_povm_but_not_pvm():
    space = two_atom_space()
    mats = [np.eye(2) / 2, np.eye(2) / 2]
    validate_ovm(space, mats, "positive")
    with pytest.raises(NotIdempotent):
        validate_ovm(space, mats, "projection")


def test_exact_defect_below_the_float_range_is_not_idempotent():
    # A^2 - A = eps^2 I for both atoms, and eps^2 = 1e-400 is 0.0 as a float
    eps = Fraction(1, 10**200)
    a = np.array([[1, eps], [eps, 0]], dtype=object)
    b = np.array([[0, -eps], [-eps, 1]], dtype=object)
    assert max_abs(a @ a - a) == eps**2
    with pytest.raises(NotIdempotent, match=r"'p0': matrix not idempotent \(defect 1e-400\)$") as err:
        validate_ovm(two_atom_space(), [a, b], "projection")
    assert err.value.defect == eps**2


def _exact(rows):
    return np.array([[F(x) for x in row] for row in rows], dtype=object)


TINY = F(1, 10**400)  # 0.0 as a float
# w = (TINY, 1) spans a line at angle ~1e-400 from e_2: its projection
# ww^T / |w|^2 is exact, Hermitian and idempotent, and meets e_1's.
W_PROJ = _exact([[TINY**2, TINY], [TINY, 1]]) / (1 + TINY**2)
EXACT_DEFECT_CASES = {
    "hermitian": (NotHermitian, [_exact([[1, TINY], [0, 0]]), _exact([[0, -TINY], [0, 1]])], "positive",
                  r"'p0': matrix not Hermitian \(defect 1e-400\)$", TINY),
    "cross-product": (CrossProductNonzero, [_exact([[1, 0], [0, 0]]), W_PROJ], "projection",
                      r"'p0', 'p1' not orthogonal \(defect 1e-400\)$", TINY / (1 + TINY**2)),
    "sum": (SumNotIdentity, [_exact([[1, 0], [0, 0]]), _exact([[0, 0], [0, 1 - TINY]])], "positive",
            r"identity \(defect 1e-400\)$", TINY),
}


@pytest.mark.parametrize("case", EXACT_DEFECT_CASES.values(), ids=EXACT_DEFECT_CASES.keys())
def test_exact_defects_below_the_float_range_are_named_non_zero(case):
    error, mats, kind, message, defect = case
    with pytest.raises(error, match=message) as err:
        validate_ovm(two_atom_space(), mats, kind)
    assert err.value.defect == defect and type(err.value.defect) is Fraction


def test_float_defects_print_as_floats_and_exact_ones_in_scientific_notation():
    with pytest.raises(SumNotIdentity, match=r"\(defect 0\.25\)$") as err:
        validate_ovm(two_atom_space(), [np.eye(2) / 2, np.eye(2) / 4], "positive")
    assert type(err.value.defect) is float
    half = _exact([[F(1, 2), 0], [0, F(1, 2)]])
    with pytest.raises(NotIdempotent, match=r"\(defect 2\.5e-01\)$") as err:
        validate_ovm(two_atom_space(), [half, half], "projection")
    assert err.value.defect == F(1, 4)


def test_random_conjugate_of_pvm_validates():
    rng = SplitMix64(3)
    space = random_metric_space(3, rng)
    pvm = random_pvm(space, 3, rng, complex_=True)
    u = random_unitary(3, rng)
    moved = conjugate(pvm, u)
    assert moved.kind == "projection"


def test_validation_errors():
    space = two_atom_space()
    herm = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        validate_ovm(space, [herm, np.eye(2) - herm], "positive")
    with pytest.raises(NotPSD):
        validate_ovm(space, [np.diag([2.0, 1.5]), np.diag([-1.0, -0.5])], "positive")
    with pytest.raises(SumNotIdentity):
        validate_ovm(space, [np.eye(2) / 2, np.eye(2) / 4], "positive")
    p0 = np.diag([1.0, 0.0])
    with pytest.raises(CrossProductNonzero):
        validate_ovm(space, [p0, p0], "projection")


def test_measure_of_additivity(dyadic_ct2):
    pvm = multiplication_pvm(dyadic_ct2, 2)
    ids = pvm.atom_ids
    union = measure_of(pvm, ids[:3])
    assert np.array_equal(union, sum(pvm.mats[:3]))


def test_scalar_measure_dirac(dyadic_ct2):
    pvm = multiplication_pvm(dyadic_ct2, 1)
    e0 = np.array([1.0, 0.0])
    weights = scalar_measure(pvm, e0, e0)
    assert weights.dtype == np.complex128
    assert weights.tolist() == [1.0, 0.0]


def test_scalar_measure_diagonal_is_positive_with_mass():
    rng = SplitMix64(7)
    space = random_metric_space(3, rng)
    povm = random_povm(space, 3, rng)
    h = 2.0 * random_unit_vector(3, rng, complex_=True)
    complex_weights = scalar_measure(povm, h, h)
    weights = complex_weights.real
    assert np.abs(complex_weights.imag).max() < 1e-12
    assert weights.min() > -1e-12
    assert abs(weights.sum() - np.vdot(h, h).real) < 1e-12


def test_scalar_measure_total_variation_bound():
    rng = SplitMix64(11)
    for _ in range(10):
        space = random_metric_space(3, rng)
        povm = random_povm(space, 3, rng)
        g = 1.5 * random_unit_vector(3, rng, complex_=True)
        h = 0.5 * random_unit_vector(3, rng, complex_=True)
        weights = scalar_measure(povm, g, h)
        assert np.abs(weights).sum() <= 0.75 + 1e-10
        assert np.abs(weights - scalar_measure(povm, h, g).conj()).max() < 1e-12


def test_integrate_constant_gives_scaled_identity(dyadic_ct2):
    pvm = multiplication_pvm(dyadic_ct2, 2)
    out = integrate([F(5, 3)] * 4, pvm)
    assert np.array_equal(out, np.diag([F(5, 3)] * 4).astype(object))
    rng = SplitMix64(13)
    space = random_metric_space(3, rng)
    povm = random_povm(space, 3, rng)
    out = integrate([2.5 + 0j] * 3, povm)
    assert max_abs(out - 2.5 * np.eye(3)) < 1e-12


def test_integrate_defining_identity():
    # <(integral psi dF) g, h> equals the psi-weighted sum of <F(.)g, h>
    rng = SplitMix64(15)
    space = random_metric_space(3, rng)
    povm = random_povm(space, 3, rng)
    psi = np.array([complex(rng.gauss(), rng.gauss()) for _ in range(3)])
    g = random_unit_vector(3, rng, complex_=True)
    h = random_unit_vector(3, rng, complex_=True)
    m = to_complex(integrate(psi, povm))
    lhs = np.vdot(h, m @ g)
    rhs = (psi * scalar_measure(povm, g, h)).sum()
    assert abs(lhs - rhs) < 1e-12


def test_integrate_indicator_returns_atom_value(dyadic_ct2):
    pvm = multiplication_pvm(dyadic_ct2, 2)
    psi = [0, 1, 0, 0]
    assert np.array_equal(integrate(psi, pvm), pvm.mats[1])


def test_integrate_real_function_is_hermitian():
    rng = SplitMix64(17)
    space = random_metric_space(3, rng)
    pvm = random_pvm(space, 3, rng, complex_=True)
    psi = [rng.gauss() for _ in range(3)]
    out = to_complex(integrate(psi, pvm))
    assert max_abs(out - out.conj().T) < 1e-12


def test_representation_check_discriminates(dyadic_ct2):
    diag = multiplication_pvm(dyadic_ct2, 2)
    rep = representation_check(diag)
    assert rep.max_defect < 1e-12
    half = half_identity_povm()
    rep = representation_check(half, extra=0)
    # indicator pair: product integral is 0, integrals multiply to I/4
    assert rep.multiplicativity == pytest.approx(0.25, abs=1e-15)
    assert rep.unital < 1e-15


def _exact_measures():
    """An assignment PVM, an int64 dense PVM and a rational object PVM."""
    space = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    half = np.array([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], dtype=object)
    return {
        "assignment": diagonal_pvm(space, [2, 0, 2, 1]),
        "int64": validate_ovm(
            space, [np.diag([1, 0, 0]), np.diag([0, 1, 0]), np.diag([0, 0, 1])], "projection"
        ),
        "rational": validate_ovm(
            two_atom_space(), [half, np.eye(2, dtype=np.int64) - half], "projection"
        ),
    }


def _fraction_integral(values, E) -> list:
    """Entry (i, j) of the integral as a Fraction sum over atoms, one entry at a time."""
    return [
        [sum(F(values[a]) * F(E.mats[a, i, j]) for a in range(E.space.n)) for j in range(E.dim)]
        for i in range(E.dim)
    ]


@pytest.mark.parametrize("kind", ["assignment", "int64", "rational"])
def test_integrate_exact_values_on_exact_measures_is_exact(kind):
    E = _exact_measures()[kind]
    n = E.space.n
    for values in ([3, -1, 2][:n], [F(1, 3), F(-5, 7), 4][:n], [True, 0, F(2, 9)][:n]):
        out = integrate(values, E)
        assert out.dtype == object, values
        assert all(type(x) in (int, F) for x in out.flat), values
        assert out.tolist() == _fraction_integral(values, E), values
    # a float or complex value anywhere makes the integral complex128
    for values in ([0.5] + [1] * (n - 1), [1j] + [F(1, 2)] * (n - 1)):
        out = integrate(values, E)
        assert out.dtype == np.complex128
        oracle = sum(complex(x) * to_complex(m) for x, m in zip(values, E.mats))
        assert max_abs(out - oracle) < 1e-15
    # numpy integers are not Python ints, so they take the float route
    assert integrate(np.arange(n), E).dtype == np.complex128


@pytest.mark.parametrize("kind", ["assignment", "int64", "rational"])
def test_integrate_stack_equals_row_by_row(kind):
    E = _exact_measures()[kind]
    n = E.space.n
    rows = [[F(k + a, a + 2) - k for a in range(n)] for k in range(4)]
    stacked = integrate(rows, E)
    assert stacked.shape == (4, E.dim, E.dim) and stacked.dtype == object
    for row, one in zip(rows, stacked):
        assert np.array_equal(one, integrate(row, E))
    rng = SplitMix64(41)
    panel = np.array([[complex(rng.gauss(), rng.gauss()) for _ in range(n)] for _ in range(5)])
    stacked = integrate(panel, E)
    assert stacked.dtype == np.complex128
    for row, one in zip(panel, stacked):
        assert max_abs(one - integrate(row, E)) < 1e-12


def _random_float_measures(seed):
    rng = SplitMix64(seed)
    space = random_metric_space(4, rng)
    povm = random_povm(space, 3, rng)
    return rng, {
        "real-pvm": random_pvm(space, 3, rng),
        "complex-pvm": random_pvm(space, 3, rng, complex_=True),
        "povm": povm,
        "complex-povm": conjugate(povm, random_unitary(3, rng)),
    }


def test_scalar_measure_matches_per_atom_loop():
    for seed in range(5):
        rng, measures = _random_float_measures(seed)
        for name, E in measures.items():
            g = 1.5 * random_unit_vector(3, rng, complex_=True)
            h = random_unit_vector(3, rng, complex_=True)
            oracle = np.array([np.vdot(h, to_complex(m) @ g) for m in E.mats])
            weights = scalar_measure(E, g, h)
            assert weights.shape == (4,) and weights.dtype == np.complex128, name
            assert np.abs(weights - oracle).max() < 1e-12, name


def _loop_representation_check(E, seed=0, extra=3):
    """The per-pair route: one integral per panel function and per product."""

    def integral(psi):
        out = np.zeros((E.dim, E.dim), dtype=np.complex128)
        for x, m in zip(psi, E.mats):
            out = out + complex(x) * to_complex(m)
        return out

    n = E.space.n
    rng = SplitMix64(seed)
    panel = [np.eye(n, dtype=np.complex128)[i] for i in range(n)]
    for _ in range(extra):
        panel.append(np.array([complex(rng.gauss(), rng.gauss()) for _ in range(n)]))
    ints = [integral(f) for f in panel]
    unital = max_abs(integral([1] * n) - np.eye(E.dim))
    adjoint = max(max_abs(integral(np.conj(f)) - m.conj().T) for f, m in zip(panel, ints))
    mult = max(
        max_abs(integral(f * g) - ints[i] @ ints[j])
        for i, f in enumerate(panel)
        for j, g in enumerate(panel)
    )
    lin = 0.0
    for _ in range(3):
        a = complex(rng.gauss(), rng.gauss())
        f = panel[rng.randint(0, len(panel) - 1)]
        g = panel[rng.randint(0, len(panel) - 1)]
        lin = max(lin, max_abs(integral(a * f + g) - (a * integral(f) + integral(g))))
    return lin, mult, adjoint, unital


def test_representation_check_matches_per_pair_loop(dyadic_ct2):
    _, measures = _random_float_measures(7)
    measures["diagonal"] = multiplication_pvm(dyadic_ct2, 2)
    measures["half-identity"] = half_identity_povm()
    for name, E in measures.items():
        for seed, extra in ((0, 3), (5, 0), (9, 2)):
            rep = representation_check(E, seed=seed, extra=extra)
            got = (rep.linearity, rep.multiplicativity, rep.adjoint, rep.unital)
            want = _loop_representation_check(E, seed=seed, extra=extra)
            assert np.abs(np.subtract(got, want)).max() < 1e-12, (name, seed, got, want)
    assert representation_check(measures["povm"]).multiplicativity > 1e-3


def test_conjugate_examples(dyadic_ct2):
    pvm = multiplication_pvm(dyadic_ct2, 1)
    same = conjugate(pvm, np.eye(2))
    assert max_abs(to_complex(same.mats[0]) - to_complex(pvm.mats[0])) == 0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    swapped = conjugate(pvm, swap)
    assert np.allclose(to_complex(swapped.mats[0]), np.diag([0.0, 1.0]))
    with pytest.raises(NotUnitary):
        conjugate(pvm, np.eye(2) * 2)


def test_polarize_collapses_on_diagonal():
    rng = SplitMix64(19)
    space = random_metric_space(3, rng)
    povm = random_povm(space, 3, rng)
    h = random_unit_vector(3, rng, complex_=True)
    rebuilt = polarize(quadratic_oracle_from(povm), h, h)
    direct = scalar_measure(povm, h, h)
    assert np.abs(rebuilt - direct).max() < 1e-12
    assert np.abs(rebuilt.imag).max() < 1e-12


def test_polarize_orthogonal_atoms_zero(dyadic_ct2):
    pvm = multiplication_pvm(dyadic_ct2, 2)
    e0 = np.eye(4)[0]
    e1 = np.eye(4)[1]
    rebuilt = polarize(quadratic_oracle_from(pvm), e0, e1)
    assert np.abs(rebuilt).max() < 1e-12


def test_polarize_matches_scalar_measure_randomly():
    rng = SplitMix64(23)
    for _ in range(5):
        space = random_metric_space(3, rng)
        povm = random_povm(space, 3, rng)
        g = random_unit_vector(3, rng, complex_=True)
        h = random_unit_vector(3, rng, complex_=True)
        rebuilt = polarize(quadratic_oracle_from(povm), g, h)
        direct = scalar_measure(povm, g, h)
        assert np.abs(rebuilt - direct).max() < 1e-12


def test_sesquilinearity():
    rng = SplitMix64(29)
    space = random_metric_space(3, rng)
    povm = random_povm(space, 3, rng)
    g = random_unit_vector(3, rng, complex_=True)
    h = random_unit_vector(3, rng, complex_=True)
    k = random_unit_vector(3, rng, complex_=True)
    alpha = complex(rng.gauss(), rng.gauss())
    lhs = scalar_measure(povm, alpha * g + k, h)
    rhs = alpha * scalar_measure(povm, g, h) + scalar_measure(povm, k, h)
    assert np.abs(lhs - rhs).max() < 1e-12
    lhs2 = scalar_measure(povm, g, alpha * h)
    rhs2 = np.conj(alpha) * scalar_measure(povm, g, h)
    assert np.abs(lhs2 - rhs2).max() < 1e-12


def test_identity_of_measures_on_spanning_panel():
    # equal quadratic diagonals on a spanning panel force atomwise equality
    rng = SplitMix64(31)
    space = random_metric_space(3, rng)
    E = random_pvm(space, 3, rng, complex_=True)
    F2 = random_pvm(space, 3, rng, complex_=True)
    basis = [np.eye(3)[i].astype(complex) for i in range(3)]
    panel = list(basis)
    for i in range(3):
        for j in range(i + 1, 3):
            panel.append(basis[i] + basis[j])
            panel.append(1j * basis[i] + basis[j])

    def equal_on_panel(a, b):
        return all(
            np.abs(scalar_measure(a, h, h).real - scalar_measure(b, h, h).real).max()
            < 1e-12
            for h in panel
        )

    assert equal_on_panel(E, E)
    same = validate_ovm(space, [m.copy() for m in E.mats], "projection")
    assert equal_on_panel(E, same)
    if not equal_on_panel(E, F2):
        diffs = max(
            spectral_norm(to_complex(a) - to_complex(b))
            for a, b in zip(E.mats, F2.mats)
        )
        assert diffs > 1e-10
    # reconstruction: panel diagonals determine every matrix entry
    for atom in range(3):
        rebuilt = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                rebuilt[i, j] = polarize(quadratic_oracle_from(E), basis[j], basis[i])[atom]
        assert np.abs(rebuilt - to_complex(E.mats[atom])).max() < 1e-12


def test_atoms_are_one_read_only_array(dyadic_ct2):
    truth = multiplication_pvm(dyadic_ct2, 2)
    measures = {
        "validate_ovm": validate_ovm(truth.space, [np.array(m) for m in truth.mats], "projection"),
        "diagonal_pvm": diagonal_pvm(truth.space, [3, 2, 1, 0]),
        "phi_step": phi_step(dyadic_ct2, 2, multiplication_pvm(dyadic_ct2, 1)),
        "conjugate": conjugate(truth, random_unitary(4, SplitMix64(2))),
    }
    for name, E in measures.items():
        assert type(E.mats) is np.ndarray, name
        assert E.mats.shape == (4, 4, 4) and E.dim == 4, name
        assert not E.mats.flags.writeable, name
        with pytest.raises(ValueError):
            E.mats[0, 0, 0] = 5


def test_validate_ovm_keeps_no_view_of_its_input(dyadic_ct2):
    truth = multiplication_pvm(dyadic_ct2, 2)
    listed = [np.array(m) for m in truth.mats]
    stacked = np.array(truth.mats)
    from_list = validate_ovm(truth.space, listed, "projection")
    from_stack = validate_ovm(truth.space, stacked, "projection")
    for m in listed:
        m[:] = 9
    stacked[:] = 9
    assert np.array_equal(from_list.mats, truth.mats)
    assert np.array_equal(from_stack.mats, truth.mats)


def test_exact_and_float_atoms_make_a_float_measure():
    space = two_atom_space()
    exact = [np.array([[F(1), 0], [0, 0]], dtype=object), np.diag([0, 1])]
    assert validate_ovm(space, exact, "projection").is_exact
    mixed = validate_ovm(space, [exact[0], np.diag([0.0, 1.0])], "projection")
    assert not mixed.is_exact
    assert mixed.mats.dtype == np.float64
    assert np.array_equal(mixed.mats, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    third = np.array([[F(1, 3), 0], [0, 0]], dtype=object)
    rest = np.diag([2 / 3, 1.0]) + 0j
    mixed = validate_ovm(space, [third, rest], "positive")
    assert not mixed.is_exact
    assert mixed.mats.dtype == np.complex128 and mixed.mats[0, 0, 0] == 1 / 3
