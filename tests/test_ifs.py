"""Cylinder towers, the averaged pushforward, and its invariant measure."""

import math
from fractions import Fraction

import pytest

import pvmk.ifs
from pvmk.errors import (
    InputParseError,
    LevelOutOfRange,
    OverlappingBranches,
    TowerTooLarge,
)
from pvmk.metric_core import audit_space, validate_space
from pvmk.ifs import (
    TowerLevel,
    _level_distance,
    build_tower,
    contraction_ratio_scalar,
    dyadic_ifs,
    hutchinson_fixed,
    hutchinson_step,
    make_ifs,
    triadic_ifs,
)
from pvmk.rng import SplitMix64
from pvmk.sampling import random_rational_measure
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


def test_more_than_ten_branches_rejected():
    # one-digit symbols keep ids distinct; with 11 branches (10, 1, 0) and
    # (1, 0, 10) would share the id "1010"
    ten = [(F(1, 10), F(k, 10)) for k in range(10)]
    ids = build_tower(make_ifs(ten, 0), 3).level(3).space.point_ids
    assert len(set(ids)) == len(ids) == 1000
    assert ids[:3] == ("000", "001", "002") and ids[-1] == "999"
    with pytest.raises(InputParseError, match="at most 10 branches"):
        make_ifs([(F(1, 11), F(k, 11)) for k in range(11)], 0)


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
    # Tower levels are never validated; the full audit and a validated
    # rebuild of every table must agree with them.
    tower = build_tower(ifs, depth)
    assert len(tower.level(depth).words) <= 64
    for level in tower.levels:
        space = level.space
        assert audit_space(space.dist, space.point_ids) == []
        again = validate_space(space.dist, space.point_ids)
        assert again.dist == space.dist
        assert again.point_ids == space.point_ids
        assert again.diam == space.diam
        assert again == space


def _level_table(words, reps, theta):
    """The whole-table formula tower levels used before they read one
    distance at a time; the oracle for ``_level_distance``."""
    if theta is None:
        return tuple(tuple(abs(x - y) for y in reps) for x in reps)
    k = len(words[0])
    powers = [theta**t for t in range(k)] + [F(0)]

    def lcp(a, b):
        n = 0
        for x, y in zip(a, b):
            if x != y:
                break
            n += 1
        return n

    return tuple(tuple(powers[lcp(a, b)] for b in words) for a in words)


@pytest.mark.parametrize(
    "ifs, depth",
    [
        (dyadic_ifs(), 5),
        (triadic_ifs(), 5),
        (make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 2))], 0, theta=F(1, 3)), 5),
    ],
    ids=["dyadic", "triadic", "theta-1/3"],
)
def test_level_distances_match_the_table_formula(ifs, depth):
    # every pair distance read through d, with no table built, and then
    # the table built from them, equal the whole-table formula on the
    # eagerly built representatives; a level's distances read its parent's
    # representatives, not its own, and a theta level reads none
    tower = build_tower(ifs, depth)
    for level, reps in zip(tower.levels, _eager_reps(ifs, depth)):
        space = level.space
        oracle = _level_table(level.words, reps, ifs.theta)
        points = range(space.n)
        assert all(space.d(i, j) == oracle[i][j] for i in points for j in points)
        assert "dist" not in vars(space)
        assert space.dist == oracle
        assert "reps" not in vars(level)
    built = ["reps" in vars(level) for level in tower.levels]
    assert built == [ifs.theta is None and k < depth for k in range(depth + 1)]


def _eager_reps(ifs, depth):
    """Every level's representatives by the loop ``build_tower`` ran before
    they were built on first read; the oracle for ``TowerLevel.reps``."""
    levels = [(ifs.base_point,)]
    for _ in range(depth):
        levels.append(tuple(ifs.apply(i, x) for i in range(ifs.n_branches) for x in levels[-1]))
    return levels


def _random_base_systems(seed):
    rng = SplitMix64(seed)
    half, quarter = F(1, 2), F(1, 4)
    for _ in range(3):
        base = F(rng.randint(0, 63), 64)
        yield make_ifs([(half, 0), (half, half)], base), 6
        yield make_ifs([(quarter, 0), (quarter, F(3, 8)), (quarter, F(3, 4))], base), 4
        yield make_ifs([(half, 0), (half, half)], base, theta=F(1, 3)), 6


def test_representatives_equal_the_eager_loop():
    # read deepest level first, then in shuffled order: each level builds
    # its representatives from its parent's, whichever is read first
    rng = SplitMix64(5)
    for ifs, depth in _random_base_systems(71):
        oracle = _eager_reps(ifs, depth)
        tower = build_tower(ifs, depth)
        assert not any("reps" in vars(level) for level in tower.levels)
        assert tower.level(depth).reps == oracle[depth]
        assert all("reps" in vars(level) for level in tower.levels)
        fresh = build_tower(ifs, depth)
        for k in rng.distinct_indices(depth + 1, depth + 1):
            assert fresh.level(k).reps == oracle[k]


def test_hutchinson_step_equals_the_validated_measure():
    # the pushforward is built unvalidated; the validating constructor
    # accepts its weights and gives the same measure at every level
    rng = SplitMix64(9)
    for ifs, depth in _random_base_systems(72):
        tower = build_tower(ifs, depth)
        n = ifs.n_branches
        for k in range(depth):
            nu = random_rational_measure(tower.dim(k), rng)
            pushed = hutchinson_step(tower, k, nu)
            assert pushed == ProbMeasure.from_values(pushed.weights)
            assert pushed.weights == tuple(w / n for _ in range(n) for w in nu.weights)


def test_hutchinson_reaches_the_cell_cap():
    tower = build_tower(dyadic_ifs(), 12)
    measure, cert = hutchinson_fixed(tower)
    assert cert == {"invariant": True, "level": 12, "cells": 4096}
    assert measure.weights == (F(1, 4096),) * 4096
    # Neither step reads a distance table, so none was built.
    assert not any("space" in vars(level) for level in tower.levels)


# Coprime, non-dyadic ratios and offsets: every level's Q L is a product of
# unrelated primes, so a wrong scale or a dropped offset term shows.
AWKWARD = [
    ([(F(2, 7), 0), (F(3, 11), F(5, 13))], 5),
    ([(F(2, 7), F(1, 17)), (F(3, 11), F(5, 13)), (F(1, 6), F(4, 5))], 4),
]


def test_integer_distances_match_the_fraction_table_on_awkward_systems():
    # every pair read through d, then the built table, equal the Fraction
    # formula on the eagerly built representatives, each distance a
    # Fraction in lowest terms; every level clears the same branches
    rng = SplitMix64(73)
    for branches, depth in AWKWARD:
        for _ in range(3):
            ifs = make_ifs(branches, F(rng.randint(0, 1008), 1009))
            tower = build_tower(ifs, depth)
            q = math.lcm(*(x.denominator for branch in ifs.branches for x in branch))
            cleared = (q, tuple((int(q * r), int(q * b)) for r, b in ifs.branches))
            assert all(level.int_branches == cleared for level in tower.levels)
            for level, reps in zip(tower.levels, _eager_reps(ifs, depth)):
                space = level.space
                oracle = _level_table(level.words, reps, None)
                points = range(space.n)
                read = tuple(tuple(space.d(i, j) for j in points) for i in points)
                assert read == oracle
                assert all(
                    type(x) is F and x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
                    for row in read
                    for x in row
                )
                assert space.dist == oracle


def test_level_distance_is_a_fraction_in_lowest_terms():
    ifs = make_ifs(AWKWARD[0][0], F(3, 5))
    tower = build_tower(ifs, 3)
    level = tower.level(3)
    for i in range(8):
        for j in range(8):
            x = _level_distance(level.parent, level.words, None, i, j)
            assert type(x) is F and x == abs(level.reps[i] - level.reps[j])
            assert math.gcd(x.numerator, x.denominator) == 1


def test_a_level_built_by_hand_reads_its_distances():
    # a child level made from its words and parent alone, as the shuffled
    # levels of the cuntz and fixed-point tests are, derives the cleared
    # branches from its parent and reads the same distances
    ifs = make_ifs(AWKWARD[1][0], F(2, 9))
    tower = build_tower(ifs, 3)
    for k in (1, 2, 3):
        built = tower.level(k)
        level = TowerLevel(ifs, built.words, built.parent)
        points = range(level.space.n)
        assert [[level.space.d(i, j) for j in points] for i in points] == [
            [abs(built.reps[i] - built.reps[j]) for j in points] for i in points
        ]


def word_id(word) -> str:
    """A word's id by the join every level ran for each of its words
    before ids were built from the parent's; the oracle for
    ``TowerLevel.point_ids``."""
    return "".join(str(s) for s in word)


THETA_IFS = make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 2))], 0, theta=F(1, 3))
TEN_BRANCHES = make_ifs([(F(1, 20), F(k, 10)) for k in range(10)], 0)


@pytest.mark.parametrize(
    "ifs, depth",
    [(dyadic_ifs(), 6), (triadic_ifs(), 6), (THETA_IFS, 6), (TEN_BRANCHES, 2)],
    ids=["dyadic", "triadic", "theta-1/3", "ten-branches"],
)
def test_point_ids_are_the_joined_words(ifs, depth):
    # ids built from the parent's equal the joined words at every level,
    # read deepest first, and the level's space carries them
    tower = build_tower(ifs, depth)
    for level in reversed(tower.levels):
        assert level.point_ids == tuple(word_id(w) for w in level.words)
        assert "space" not in vars(level)
        assert level.space.point_ids is level.point_ids


def _no_average(tower, k, nu):
    """A pushforward that forgets the 1/N factor."""
    return ProbMeasure(nu.weights * tower.n_branches)


def _moved_mass(tower, k, nu):
    """The true pushforward with cell 1's mass moved onto cell 0."""
    w = list(hutchinson_step(tower, k, nu).weights)
    w[0], w[1] = w[0] + w[1], F(0)
    return ProbMeasure(tuple(w))


def _one_cell_short(tower, k, nu):
    """The true pushforward without its last cell: every weight is still
    1/cells, so only the count shows it."""
    return ProbMeasure(hutchinson_step(tower, k, nu).weights[:-1])


@pytest.mark.parametrize("wrong", [_no_average, _moved_mass, _one_cell_short])
def test_invariance_certificate_fails_on_a_wrong_pushforward(monkeypatch, wrong):
    # the certificate is computed from the pushforward, so a wrong one fails it
    for tower in (build_tower(dyadic_ifs(), 4), build_tower(triadic_ifs(), 3)):
        monkeypatch.setattr(pvmk.ifs, "hutchinson_step", wrong)
        _measure, cert = hutchinson_fixed(tower)
        monkeypatch.undo()
        assert cert["invariant"] is False
        assert hutchinson_fixed(tower)[1]["invariant"] is True
