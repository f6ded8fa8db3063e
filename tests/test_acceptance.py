"""Acceptance sweep: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts the verdict, so the suite doubles as a readable report.
"""

from pvmk import acceptance


def _check(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {result.index:2d} [{status}] {result.name}: {result.details}")
    assert result.passed, f"criterion {result.index} ({result.name}): {result.details}"


def test_criterion_01_kantorovich_duality():
    # 100 seeded instances, up to 7 atoms: primal equals dual, rational equality
    _check(acceptance.criterion_1(seed=0))


def test_criterion_02_hutchinson_contraction():
    # levels 1..5, 50 pairs each: ratio <= 1/2 exactly; Dirac pair attains it
    _check(acceptance.criterion_2(seed=0))


def test_criterion_03_invariant_measure():
    # uniform weights exactly invariant: halving to depth 6, three-branch to 4
    _check(acceptance.criterion_3(seed=0))


def test_criterion_04_cuntz_relations():
    # integer-exact relation defects, plus the one-bit-flip negative control
    _check(acceptance.criterion_4(seed=0))


def test_criterion_05_fixed_point_identification():
    # cylinder values equal cylinder projections, both routes, integer exact
    _check(acceptance.criterion_5(seed=0))


def test_criterion_06_rho_contraction():
    # >= 50 projection and >= 50 positive pairs, ratio <= 1/2 + 1e-8; tight pair
    _check(acceptance.criterion_6(seed=0))


def test_criterion_07_rho_metric_axioms():
    # 25 seeded triples: symmetry, identity, triangle, boundedness by 2 diam
    _check(acceptance.criterion_7(seed=0))


def test_criterion_08_exchange_identity():
    # sphere search within 1e-4 of the vertex value; grid <= sphere <= exact
    _check(acceptance.criterion_8(seed=0))


def test_criterion_09_diagonal_closed_form():
    # 50 commuting diagonal pairs against the independent max-distance formula
    _check(acceptance.criterion_9(seed=0))


def test_criterion_10_unitary_isometry():
    # 20 seeded unitaries at dimension 4 move rho by at most 1e-9
    _check(acceptance.criterion_10(seed=0))


def test_criterion_11_weak_topology_bounds():
    # 100 random triples for both inequalities; panel convergence along traces
    _check(acceptance.criterion_11(seed=0))


def test_criterion_12_scalar_measure_calculus():
    # sesquilinearity, polarization, masses, norm bounds, multiplicativity
    _check(acceptance.criterion_12(seed=0))


def test_criterion_13_weighted_space_model():
    # basis vector, uniform superposition, and ten random unit vectors
    _check(acceptance.criterion_13(seed=0))
