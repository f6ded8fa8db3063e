"""Cylinder towers, the averaged pushforward, and its invariant measure."""

from fractions import Fraction

import pytest

from pvmk.errors import (
    InputParseError,
    LevelOutOfRange,
    OverlappingBranches,
    TowerTooLarge,
)
from pvmk.metric_core import audit_space
from pvmk.ifs import (
    build_tower,
    contraction_ratio_scalar,
    dyadic_ifs,
    hutchinson_fixed,
    hutchinson_step,
    make_ifs,
    triadic_ifs,
)
from pvmk.transport import ProbMeasure, kantorovich

F = Fraction


def test_dyadic_level2_representatives(dyadic_tower):
    assert dyadic_tower.level(2).reps == (F(0), F(1, 4), F(1, 2), F(3, 4))
    assert dyadic_tower.level(2).space.point_ids == ("00", "01", "10", "11")


def test_depth_zero_tower():
    tower = build_tower(dyadic_ifs(), 0)
    assert tower.level(0).words == ((),)
    assert tower.level(0).reps == (F(0),)


def test_triadic_level1_representatives():
    tower = build_tower(triadic_ifs(), 1)
    assert tower.level(1).reps == (F(0), F(3, 8), F(3, 4))


def test_coherence_invariant(dyadic_tower):
    ifs = dyadic_tower.ifs
    for k in range(1, dyadic_tower.depth + 1):
        level = dyadic_tower.level(k)
        prev = dyadic_tower.level(k - 1)
        for (word, rep) in zip(level.words, level.reps):
            parent = prev.words.index(word[1:])
            assert rep == ifs.apply(word[0], prev.reps[parent])


def test_cell_counts_and_child_bijection(dyadic_tower):
    n = dyadic_tower.ifs.n_branches
    for k in range(dyadic_tower.depth + 1):
        assert len(dyadic_tower.level(k).words) == n**k
    words2 = set(dyadic_tower.level(2).words)
    children = {(i,) + a for i in range(n) for a in dyadic_tower.level(1).words}
    assert children == words2


def test_branch_scaling_identity(dyadic_tower):
    # d_{k+1}(i a, i b) = r_i d_k(a, b) for coherent representatives
    for k in range(dyadic_tower.depth):
        lo = dyadic_tower.level(k)
        hi = dyadic_tower.level(k + 1)
        for i in range(dyadic_tower.ifs.n_branches):
            r = dyadic_tower.ifs.branches[i][0]
            for a in range(len(lo.words)):
                for b in range(len(lo.words)):
                    ia = hi.words.index((i,) + lo.words[a])
                    ib = hi.words.index((i,) + lo.words[b])
                    assert hi.space.dist[ia][ib] == r * lo.space.dist[a][b]


def test_interior_overlap_rejected():
    with pytest.raises(OverlappingBranches):
        make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 4))], 0)


def test_duplicate_cell_start_rejected():
    with pytest.raises(OverlappingBranches):
        make_ifs([(F(1, 4), 0), (F(1, 2), 0)], 0)


def test_abutting_cells_accepted():
    make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 2))], 0)


def test_bad_branch_parameters_rejected():
    with pytest.raises(InputParseError):
        make_ifs([(F(3, 2), 0), (F(1, 4), F(1, 2))], 0)
    with pytest.raises(InputParseError):
        make_ifs([(F(1, 2), F(3, 4)), (F(1, 8), 0)], 0)  # image exceeds 1
    with pytest.raises(InputParseError):
        make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 2))], 1)  # base point outside [0,1)


def test_tower_cap():
    with pytest.raises(TowerTooLarge):
        build_tower(dyadic_ifs(), 13)


def test_hutchinson_step_uniform_to_uniform(dyadic_tower):
    out = hutchinson_step(dyadic_tower, 1, ProbMeasure.uniform(2))
    assert out.weights == ProbMeasure.uniform(4).weights


def test_hutchinson_step_dirac_splits(dyadic_tower):
    out = hutchinson_step(dyadic_tower, 1, ProbMeasure.dirac(2, 0))
    # mass 1/N on each cell (i, a)
    by_id = dict(zip(dyadic_tower.level(2).space.point_ids, out.weights))
    assert by_id == {"00": F(1, 2), "01": F(0), "10": F(1, 2), "11": F(0)}


def test_hutchinson_step_worked_pair(dyadic_tower):
    mu = hutchinson_step(dyadic_tower, 1, ProbMeasure.dirac(2, 0))
    nu = hutchinson_step(dyadic_tower, 1, ProbMeasure.dirac(2, 1))
    reps = dyadic_tower.level(2).reps
    mu_support = {reps[i] for i, w in enumerate(mu.weights) if w != 0}
    nu_support = {reps[i] for i, w in enumerate(nu.weights) if w != 0}
    assert mu_support == {F(0), F(1, 2)}
    assert nu_support == {F(1, 4), F(3, 4)}


def test_hutchinson_step_level_range(dyadic_tower):
    with pytest.raises(LevelOutOfRange):
        hutchinson_step(dyadic_tower, 3, ProbMeasure.uniform(8))


def test_hutchinson_fixed_certificates():
    tower = build_tower(dyadic_ifs(), 3)
    measure, cert = hutchinson_fixed(tower)
    assert measure.weights == tuple([F(1, 8)] * 8)
    assert cert["invariant"]
    tower3 = build_tower(triadic_ifs(), 2)
    measure3, cert3 = hutchinson_fixed(tower3)
    assert measure3.weights == tuple([F(1, 9)] * 9)
    assert cert3["invariant"]
    m1, c1 = hutchinson_fixed(tower, 1)
    assert m1.weights == (F(1, 2), F(1, 2)) and c1["invariant"]


def test_contraction_ratio_dirac_pair_is_tight(dyadic_tower):
    mu = ProbMeasure.dirac(2, 0)
    nu = ProbMeasure.dirac(2, 1)
    h1 = kantorovich(dyadic_tower.level(1).space, mu, nu).value
    h2 = kantorovich(
        dyadic_tower.level(2).space,
        hutchinson_step(dyadic_tower, 1, mu),
        hutchinson_step(dyadic_tower, 1, nu),
    ).value
    assert h1 == F(1, 2)
    assert h2 == F(1, 4)
    assert h2 / h1 == F(1, 2)


def test_contraction_ratio_sweep(dyadic_tower):
    report = contraction_ratio_scalar(dyadic_tower, 1, 25, seed=2)
    assert report.passed
    assert report.max_ratio is not None
    assert report.max_ratio <= F(1, 2)


def test_pushforward_decay_toward_uniform(dyadic_tower):
    # the uniform measure is the fixed tower measure: distance to it decays
    # by the contraction factor per step, from any start
    from pvmk.rng import SplitMix64
    from pvmk.sampling import random_rational_measure

    rng = SplitMix64(43)
    r = dyadic_tower.contraction
    for _ in range(5):
        nu = random_rational_measure(2, rng)
        prev = kantorovich(
            dyadic_tower.level(1).space, nu, ProbMeasure.uniform(2)
        ).value
        for k in range(1, 3):
            nu = hutchinson_step(dyadic_tower, k, nu)
            cells = len(dyadic_tower.level(k + 1).words)
            cur = kantorovich(
                dyadic_tower.level(k + 1).space, nu, ProbMeasure.uniform(cells)
            ).value
            assert cur <= r * prev
            prev = cur


def test_symbolic_metric_tower():
    ifs = make_ifs(
        [(F(1, 2), 0), (F(1, 2), F(1, 2))], 0, theta=F(1, 3)
    )
    tower = build_tower(ifs, 2)
    assert tower.contraction == F(1, 3)
    space = tower.level(2).space
    words = tower.level(2).words
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            if i == j:
                assert space.dist[i][j] == 0
            else:
                lcp = 0
                for x, y in zip(a, b):
                    if x != y:
                        break
                    lcp += 1
                assert space.dist[i][j] == F(1, 3) ** lcp
    report = contraction_ratio_scalar(tower, 1, 10, seed=4)
    assert report.passed


@pytest.mark.parametrize(
    "ifs, depth",
    [
        (dyadic_ifs(), 6),
        (triadic_ifs(), 3),
        (make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 2))], 0, theta=F(1, 3)), 6),
    ],
    ids=["dyadic", "triadic", "theta-1/3"],
)
def test_tower_levels_pass_full_metric_audit(ifs, depth):
    # build_tower skips the triangle scan; the full audit must agree.
    tower = build_tower(ifs, depth)
    assert len(tower.level(depth).words) <= 64
    for level in tower.levels:
        assert audit_space(level.space.dist, level.space.point_ids) == []
