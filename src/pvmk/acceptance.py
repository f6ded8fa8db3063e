"""The acceptance sweep: thirteen seeded property checks with pinned tolerances.

Each criterion pairs an implementation route with an independent one
(primal against dual, exact against sampled, stepped against closed form)
and reports a verdict plus the measured extremes.  The pytest acceptance
module runs these at their stated sizes; the command-line ``suite``
subcommand reuses them for reproducible reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .cuntz import branch_maps, cuntz_verify, multiplication_pvm, relation_defects
from .fixed_point import (
    contraction_ratio_rho,
    phi_iterate,
    phi_step,
    relate_verify,
    swapped_diagonal_pvm,
    verify_fixed_point,
)
from .ifs import (
    build_tower,
    contraction_ratio_scalar,
    dyadic_ifs,
    hutchinson_fixed,
    hutchinson_step,
    triadic_ifs,
)
from .metric_core import lip1_vertices, lip_constant
from .ovm import (
    integrate,
    polarize,
    quadratic_oracle_from,
    representation_check,
    rho_assignments,
    scalar_measure,
    validate_ovm,
)
from .rho import (
    metric_axiom_suite,
    rho_exact,
    rho_lower_grid,
    rho_lower_sphere,
    topology_bounds,
)
from .rng import SplitMix64
from .sampling import (
    random_diagonal_pvm_pair,
    random_metric_space,
    random_povm,
    random_pvm,
    random_rational_measure,
    random_rational_values,
    random_unit_vector,
    random_unitary,
)
from .transport import ProbMeasure, kantorovich, kantorovich_dual_oracle


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict


def criterion_1(seed: int = 0) -> CriterionResult:
    """Primal transport value equals the dual vertex maximum, exactly."""
    instances = 100
    rng = SplitMix64(seed ^ 0xC1)
    failures = 0
    largest = 0
    for _ in range(instances):
        n = rng.randint(2, 7)
        largest = max(largest, n)
        space = random_metric_space(n, rng)
        vertices = lip1_vertices(space)
        mu = random_rational_measure(n, rng)
        nu = random_rational_measure(n, rng)
        primal = kantorovich(space, mu, nu).value
        dual = kantorovich_dual_oracle(space, mu, nu, vertices)
        if primal != dual:
            failures += 1
    return CriterionResult(
        1,
        "kantorovich duality",
        failures == 0,
        {"instances": instances, "max_atoms": largest, "failures": failures},
    )


def criterion_2(seed: int = 0) -> CriterionResult:
    """Scalar contraction of the averaged pushforward at rate 1/2, exactly."""
    tower = build_tower(dyadic_ifs(), 6)
    bound = Fraction(1, 2)
    worst: Fraction | None = None
    tested = 0
    ok = True
    for k in range(1, 6):
        report = contraction_ratio_scalar(tower, k, 50, seed=seed ^ (0xC2 + k))
        tested += report.pairs_tested
        if report.max_ratio is not None:
            worst = report.max_ratio if worst is None else max(worst, report.max_ratio)
            ok = ok and report.max_ratio <= bound
    # the Dirac pair at level 1 attains the rate exactly
    n1 = len(tower.level(1).words)
    mu = ProbMeasure.dirac(n1, 0)
    nu = ProbMeasure.dirac(n1, 1)
    h1 = kantorovich(tower.level(1).space, mu, nu).value
    h2 = kantorovich(
        tower.level(2).space, hutchinson_step(tower, 1, mu), hutchinson_step(tower, 1, nu)
    ).value
    tight = h2 / h1
    ok = ok and tight == bound
    return CriterionResult(
        2,
        "hutchinson contraction",
        ok,
        {
            "pairs_tested": tested,
            "max_ratio": str(worst),
            "dirac_ratio": str(tight),
            "bound": str(bound),
        },
    )


def criterion_3(seed: int = 0) -> CriterionResult:
    """The uniform tower measure is exactly invariant at every level."""
    ok = True
    checked = []
    for ifs, depth in ((dyadic_ifs(), 6), (triadic_ifs(), 4)):
        tower = build_tower(ifs, depth)
        for k in range(1, depth + 1):
            _, cert = hutchinson_fixed(tower, k)
            ok = ok and cert["invariant"]
            checked.append(f"N={ifs.n_branches},k={k}")
    return CriterionResult(
        3, "invariant measure", ok, {"levels_checked": len(checked)}
    )


def criterion_4(seed: int = 0) -> CriterionResult:
    """Cuntz relations hold with integer exactness; a redirected index is caught."""
    ok = True
    levels = 0
    for ifs, depth in ((dyadic_ifs(), 6), (triadic_ifs(), 4)):
        tower = build_tower(ifs, depth)
        for k in range(1, depth + 1):
            report = cuntz_verify(tower, k)
            ok = ok and report.sum_defect == 0 and report.ortho_defect == 0
            levels += 1
    tower = build_tower(dyadic_ifs(), 2)
    maps = branch_maps(tower, 1)
    maps[0, 0] = maps[1, 0]
    sum_defect, ortho_defect = relation_defects(maps, tower.dim(1))
    control_caught = sum_defect > 0 or ortho_defect > 0
    return CriterionResult(
        4,
        "cuntz relations",
        ok and control_caught,
        {"levels_checked": levels, "negative_control_caught": control_caught},
    )


def criterion_5(seed: int = 0) -> CriterionResult:
    """Fixed-point identification, coarse-grained and re-derived, integer exact."""
    reports = {}
    ok = True
    for label, ifs, depth in (("N=2,K=5", dyadic_ifs(), 5), ("N=3,K=3", triadic_ifs(), 3)):
        tower = build_tower(ifs, depth)
        rep = verify_fixed_point(tower)
        reports[label] = {
            "words_checked": rep.words_checked,
            "offending": list(rep.offending_words),
            "rederived_match": rep.rederived_match,
        }
        ok = ok and rep.passed
    return CriterionResult(5, "fixed point identification", ok, reports)


def criterion_6(seed: int = 0) -> CriterionResult:
    """Contraction of the measure-level step in rho, with a tight witness.

    Pairs at level k - 1 are stepped into level k for k = 2, 3 (the level-0
    source carries a single atom, where every measure is the identity and
    the ratio is vacuous).
    """
    tower = build_tower(dyadic_ifs(), 3)
    ok = True
    tested = {"projection": 0, "positive": 0}
    worst = {"projection": 0.0, "positive": 0.0}
    tight_ok = True
    for kind in ("projection", "positive"):
        for k in (2, 3):
            report = contraction_ratio_rho(tower, k, 30, seed=seed ^ (0xC6 + k), kind=kind)
            tested[kind] += report.pairs_tested
            if report.max_ratio is not None:
                worst[kind] = max(worst[kind], report.max_ratio)
            ok = ok and report.passed
            tight = report.tight_pair_ratio  # the swapped pair's, at every k >= 2
            tight_ok = tight_ok and tight == Fraction(1, 2)
    enough = tested["projection"] >= 50 and tested["positive"] >= 50
    return CriterionResult(
        6,
        "rho contraction",
        ok and tight_ok and enough,
        {
            "pvm_pairs": tested["projection"],
            "povm_pairs": tested["positive"],
            "max_ratio_pvm": worst["projection"],
            "max_ratio_povm": worst["positive"],
            "tight_ratio": str(tight),
        },
    )


def _random_ovm(space, dim, rng, kind_idx):
    if kind_idx % 3 == 2:
        return random_povm(space, dim, rng)
    return random_pvm(space, dim, rng, complex_=(kind_idx % 2 == 1))


def criterion_7(seed: int = 0) -> CriterionResult:
    """Metric axioms of rho on random operator-valued triples."""
    triples = 25
    rng = SplitMix64(seed ^ 0xC7)
    ok = True
    for t in range(triples):
        n = rng.randint(2, 4)
        dim = rng.randint(2, 4)
        space = random_metric_space(n, rng)
        vertices = lip1_vertices(space)
        E = _random_ovm(space, dim, rng, t)
        F = _random_ovm(space, dim, rng, t + 1)
        G = _random_ovm(space, dim, rng, t + 2)
        report = metric_axiom_suite(space, E, F, G, vertices=vertices)
        ok = ok and report.passed
    return CriterionResult(7, "rho metric axioms", ok, {"triples": triples})


def criterion_8(seed: int = 0) -> CriterionResult:
    """Exchanging the two suprema: sphere search meets the vertex value."""
    instances = 12
    restarts = 200
    rng = SplitMix64(seed ^ 0xC8)
    ok = True
    worst_gap = 0.0
    for t in range(instances):
        n = 2 + t % 3
        dim = 2 + (t // 3) % 3
        space = random_metric_space(n, rng)
        vertices = lip1_vertices(space)
        E = _random_ovm(space, dim, rng, t)
        F = _random_ovm(space, dim, rng, t + 1)
        exact = rho_exact(space, E, F, vertices)
        sphere = rho_lower_sphere(space, E, F, restarts, seed=seed ^ (0x58 + t), vertices=vertices)
        grid = rho_lower_grid(space, E, F, restarts, seed=seed ^ (0x68 + t))
        gap = abs(exact.value - sphere.value)
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= 1e-4
        ok = ok and grid.value <= sphere.value + 1e-10
        ok = ok and sphere.value <= exact.value + 1e-10
    return CriterionResult(
        8,
        "exchange identity",
        ok,
        {"instances": instances, "restarts": restarts, "worst_gap": worst_gap},
    )


def criterion_9(seed: int = 0) -> CriterionResult:
    """Commuting diagonal pairs match the closed form max_j d(a_j, b_j)."""
    instances = 50
    rng = SplitMix64(seed ^ 0xC9)
    ok = True
    for _ in range(instances):
        n = rng.randint(2, 4)
        dim = rng.randint(2, 4)
        space = random_metric_space(n, rng)
        vertices = lip1_vertices(space)
        E, F, _, _ = random_diagonal_pvm_pair(space, dim, rng)
        ok = ok and rho_exact(space, E, F, vertices).exact == rho_assignments(E, F)
    return CriterionResult(9, "diagonal closed form", ok, {"instances": instances})


def criterion_10(seed: int = 0) -> CriterionResult:
    """Conjugation by a unitary is an isometry of rho."""
    unitaries = 20
    rng = SplitMix64(seed ^ 0xCA)
    space = random_metric_space(4, rng)
    vertices = lip1_vertices(space)
    E = random_pvm(space, 4, rng, complex_=True)
    F = random_pvm(space, 4, rng, complex_=True)
    base = rho_exact(space, E, F, vertices).value
    from .ovm import conjugate

    worst = 0.0
    for _ in range(unitaries):
        u = random_unitary(4, rng)
        moved = rho_exact(space, conjugate(E, u), conjugate(F, u), vertices).value
        worst = max(worst, abs(moved - base))
    return CriterionResult(
        10,
        "unitary isometry",
        worst <= 1e-9,
        {"unitaries": unitaries, "worst_shift": worst},
    )


def criterion_11(seed: int = 0) -> CriterionResult:
    """Two-sided weak-topology bounds, plus integral convergence along traces."""
    instances = 100
    rng = SplitMix64(seed ^ 0xCB)
    ok = True
    for t in range(instances):
        n = rng.randint(2, 4)
        dim = rng.randint(2, 4)
        space = random_metric_space(n, rng)
        vertices = lip1_vertices(space)
        E = _random_ovm(space, dim, rng, t)
        F = _random_ovm(space, dim, rng, t + 1)
        f = random_rational_values(space, rng)
        report = topology_bounds(space, f, E, F, vertices=vertices)
        ok = ok and report.passed
    # integral convergence along contraction traces at trace rate
    tower = build_tower(dyadic_ifs(), 3)
    panel = [
        lambda x: x,
        lambda x: abs(x - Fraction(1, 2)),
        lambda x: x * x,
        lambda x: min(x, Fraction(1, 4)),
        lambda x: 1 - x,
    ]
    seeds = {
        "swapped": swapped_diagonal_pvm(tower, 1),
        "random-pvm": random_pvm(tower.level(1).space, 2, SplitMix64(seed ^ 0x1B)),
        "random-povm": random_povm(tower.level(1).space, 2, SplitMix64(seed ^ 0x2B)),
    }
    r = float(tower.contraction)
    trace_checks = 0
    for desc, seed_ovm in seeds.items():
        trace = phi_iterate(tower, seed_ovm, 2, seed_desc=desc)
        rho0 = trace.records[0].rho_to_truth
        current = seed_ovm
        for rec in trace.records:
            if rec.step:
                current = phi_step(tower, rec.level, current)
            truth = multiplication_pvm(tower, rec.level)
            level = tower.level(rec.level)
            for fn in panel:
                fvals = tuple(fn(x) for x in level.reps)
                gap = linalg.spectral_norm(
                    linalg.to_complex(integrate(fvals, current))
                    - linalg.to_complex(integrate(fvals, truth))
                )
                lip = float(lip_constant(fvals, level.space))
                ok = ok and gap <= lip * (r**rec.step) * rho0 + 1e-8
                trace_checks += 1
    return CriterionResult(
        11,
        "weak topology bounds",
        ok,
        {"instances": instances, "trace_checks": trace_checks},
    )


def criterion_12(seed: int = 0) -> CriterionResult:
    """Scalar-measure calculus: sesquilinearity, polarization, masses, norms."""
    rng = SplitMix64(seed ^ 0xCC)
    tower = build_tower(dyadic_ifs(), 2)
    diag = multiplication_pvm(tower, 2)
    space4 = random_metric_space(4, rng)
    conj_pvm = random_pvm(space4, 4, rng, complex_=True)
    space2 = random_metric_space(2, rng)
    half = validate_ovm(
        space2, [np.eye(2) / 2, np.eye(2) / 2], "positive"
    )
    space3 = random_metric_space(3, rng)
    povm = random_povm(space3, 3, rng)
    ok = True
    worst = 0.0

    def track(defect):
        nonlocal ok, worst
        worst = max(worst, defect)
        ok = ok and defect <= 1e-12

    for F in (diag, conj_pvm, half, povm):
        dim = F.dim
        g = random_unit_vector(dim, rng, complex_=True)
        h = random_unit_vector(dim, rng, complex_=True)
        k = random_unit_vector(dim, rng, complex_=True)
        alpha = complex(rng.gauss(), rng.gauss())
        beta = complex(rng.gauss(), rng.gauss())
        w_gh = scalar_measure(F, g, h)
        track(float(np.abs(w_gh - scalar_measure(F, h, g).conj()).max()))
        # additivity and homogeneity in the first slot, conjugate in the second
        lhs = scalar_measure(F, alpha * g + k, h)
        rhs = alpha * w_gh + scalar_measure(F, k, h)
        track(float(np.abs(lhs - rhs).max()))
        lhs2 = scalar_measure(F, g, beta * h + k)
        rhs2 = np.conj(beta) * w_gh + scalar_measure(F, g, k)
        track(float(np.abs(lhs2 - rhs2).max()))
        # polarization reconstructs the measure from the quadratic diagonal
        rebuilt = polarize(quadratic_oracle_from(F), g, h)
        track(float(np.abs(rebuilt - w_gh).max()))
        # total mass and total variation
        track(abs(w_gh.sum() - np.vdot(h, g)))
        tv_slack = float(np.abs(w_gh).sum()) - 1.0  # unit vectors: bound is 1
        track(max(0.0, tv_slack))
        # sup-norm bound for operator integrals
        psi = np.array([complex(rng.gauss(), rng.gauss()) for _ in range(F.space.n)])
        norm = float(np.linalg.norm(linalg.to_complex(integrate(psi, F)), 2))
        track(max(0.0, norm - float(np.abs(psi).max())))
    mult_pvm = max(
        representation_check(diag, seed=seed).multiplicativity,
        representation_check(conj_pvm, seed=seed).multiplicativity,
    )
    track(mult_pvm)
    mult_povm = representation_check(half, seed=seed).multiplicativity
    discriminates = mult_povm > 1e-6
    ok = ok and discriminates
    return CriterionResult(
        12,
        "scalar measure calculus",
        ok,
        {"worst_defect": worst, "povm_mult_defect": mult_povm},
    )


def criterion_13(seed: int = 0) -> CriterionResult:
    """The weighted-space model of the fixed point on a panel of vectors."""
    tower = build_tower(dyadic_ifs(), 3)
    dim = 8
    rng = SplitMix64(seed ^ 0xCD)
    vectors = [np.eye(dim)[0], np.full(dim, dim**-0.5)]
    for i in range(10):
        vectors.append(random_unit_vector(dim, rng, complex_=(i % 2 == 1)))
    ok = True
    worst = 0.0
    for h in vectors:
        rep = relate_verify(tower, h)
        worst = max(worst, rep.isometry_defect, rep.intertwine_defect)
        ok = ok and rep.passed
    return CriterionResult(
        13,
        "weighted space model",
        ok,
        {"vectors": len(vectors), "worst_defect": worst},
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [fn(seed=seed) for fn in ALL_CRITERIA]
