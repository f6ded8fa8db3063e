"""Contraction steps, iteration traces, and fixed-point verification."""

from fractions import Fraction

import numpy as np
import pytest

from pvmk.cuntz import (
    cylinder_projection,
    multiplication_pvm,
    prefix_atoms,
)
from pvmk.errors import LevelOutOfRange, MismatchedMeasures
from pvmk import cuntz, fixed_point, linalg, ovm
from pvmk.fixed_point import (
    RelateReport,
    _cylinder_identities,
    _verify_prefixes,
    contraction_ratio_rho,
    phi_iterate,
    phi_step,
    relate_verify,
    swapped_diagonal_pvm,
    verify_fixed_point,
)
from pvmk.ifs import CylinderTower, TowerLevel, build_tower, dyadic_ifs, make_ifs, triadic_ifs
from pvmk.linalg import gram_rank, max_abs
from pvmk.metric_core import lip1_vertices
from pvmk.ovm import OperatorValuedMeasure, diagonal_pvm, measure_of, scalar_measure, validate_ovm
from pvmk.rho import rho_assignments, rho_exact
from pvmk.rng import SplitMix64
from pvmk.sampling import (
    random_diagonal_pvm_pair,
    random_povm,
    random_pvm,
    random_truth_conjugate_pvm,
    random_unit_vector,
)
from oracles import s_matrix

F = Fraction


def test_base_case_any_level0_seed(dyadic_ct):
    # one step from level 0's one measure gives the depth-1 cylinder projections
    stepped = phi_step(dyadic_ct, 1, multiplication_pvm(dyadic_ct, 0))
    for j in range(2):
        expect = cylinder_projection(dyadic_ct, (j,), 1)
        assert np.array_equal(stepped.mats[j], expect)


def test_phi_step_preserves_diagonal_truth(dyadic_ct):
    truth1 = multiplication_pvm(dyadic_ct, 1)
    stepped = phi_step(dyadic_ct, 2, truth1)
    truth2 = multiplication_pvm(dyadic_ct, 2)
    for a, b in zip(stepped.mats, truth2.mats):
        assert np.array_equal(a, b)


def test_phi_step_swapped_diagonal_frozen(dyadic_ct):
    # cell (i, c) receives the projection onto basis vector (i, 1-c)
    swapped = swapped_diagonal_pvm(dyadic_ct, 1)
    stepped = phi_step(dyadic_ct, 2, swapped)
    words = dyadic_ct.level(2).words
    for idx, (i, c) in enumerate(words):
        expect = np.zeros((4, 4), dtype=np.int64)
        target = words.index((i, 1 - c))
        expect[target, target] = 1
        assert np.array_equal(stepped.mats[idx], expect)


@pytest.mark.parametrize("ifs, depth", [(dyadic_ifs(), 6), (triadic_ifs(), 4)], ids=["dyadic", "triadic"])
def test_assignment_steps_equal_the_diagonal_pvm_route(ifs, depth):
    # phi_step wraps the stepped assignment as it is; diagonal_pvm copies and
    # range-checks the same entries
    ct = build_tower(ifs, depth)
    rng = SplitMix64(29)
    for k in range(1, depth + 1):
        prev = ct.level(k - 1).space
        random_seed = diagonal_pvm(prev, [rng.randint(0, prev.n - 1) for _ in range(ct.dim(k - 1))])
        for E in (multiplication_pvm(ct, k - 1), swapped_diagonal_pvm(ct, k - 1), random_seed):
            got = phi_step(ct, k, E)
            offsets = np.arange(ct.n_branches)[:, None] * ct.dim(k - 1)
            want = diagonal_pvm(ct.level(k).space, (offsets + E.assignment).ravel())
            assert got.space == want.space and got.kind == want.kind and got.dense is None
            assert got.assignment.dtype == want.assignment.dtype
            assert np.array_equal(got.assignment, want.assignment)
            assert not got.assignment.flags.writeable
            assert got.mats.dtype == want.mats.dtype and np.array_equal(got.mats, want.mats)


def test_phi_step_agrees_with_explicit_isometry_products(dyadic_ct):
    # block placement equals the literal S E S^T computation
    rng = SplitMix64(3)
    E = random_truth_conjugate_pvm(dyadic_ct.level(1).space, rng)
    stepped = phi_step(dyadic_ct, 2, E)
    words = dyadic_ct.level(2).words
    prev_words = dyadic_ct.level(1).words
    for idx, word in enumerate(words):
        i, c = word[0], word[1:]
        s = s_matrix(dyadic_ct, i, 2).astype(float)
        expect = s @ np.asarray(E.mats[prev_words.index(c)], dtype=float) @ s.T
        assert max_abs(np.asarray(stepped.mats[idx], dtype=float) - expect) < 1e-14


THETA_IFS = make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 2))], 0, theta=F(1, 3))


@pytest.mark.parametrize(
    "ifs, depth",
    [(dyadic_ifs(), 4), (triadic_ifs(), 3), (THETA_IFS, 4)],
    ids=["dyadic-4", "triadic-3", "theta-4"],
)
def test_unvalidated_measures_pass_validate_ovm(ifs, depth):
    # diagonal measures and phi_step outputs skip validation by theorem;
    # validate_ovm checks every axiom independently on every level
    ct = build_tower(ifs, depth)
    rng = SplitMix64(23)
    for k in range(depth + 1):
        measures = [multiplication_pvm(ct, k), swapped_diagonal_pvm(ct, k)]
        if k:
            prev = ct.level(k - 1).space
            seeds = [
                multiplication_pvm(ct, k - 1),
                random_truth_conjugate_pvm(prev, rng),
                random_povm(prev, ct.dim(k - 1), rng),
            ]
            measures += [phi_step(ct, k, seed) for seed in seeds]
        for E in measures:
            again = validate_ovm(ct.level(k).space, E.mats, E.kind, tol=1e-9)
            assert again.kind == E.kind and again.dim == ct.dim(k)


def test_phi_step_kind_preservation_povm(dyadic_ct):
    rng = SplitMix64(5)
    seed = random_povm(dyadic_ct.level(1).space, 2, rng)
    stepped = phi_step(dyadic_ct, 2, seed)
    assert stepped.kind == "positive"


def test_phi_step_level_bounds(dyadic_ct):
    with pytest.raises(LevelOutOfRange):
        phi_step(dyadic_ct, 4, multiplication_pvm(dyadic_ct, 3))
    with pytest.raises(MismatchedMeasures):
        phi_step(dyadic_ct, 2, multiplication_pvm(dyadic_ct, 2))


def test_phi_iterate_swapped_trace(dyadic_ct):
    trace = phi_iterate(dyadic_ct, swapped_diagonal_pvm(dyadic_ct, 1), 2)
    rhos = [rec.rho_to_truth for rec in trace.records]
    assert rhos == [0.5, 0.25, 0.125]
    ratios = [rec.ratio for rec in trace.records[1:]]
    assert ratios == [0.5, 0.5]
    assert trace.prefix_depth_verified == 2


def test_phi_iterate_truth_stays_fixed(dyadic_ct):
    trace = phi_iterate(dyadic_ct, multiplication_pvm(dyadic_ct, 1), 2)
    assert all(rec.rho_to_truth == 0.0 for rec in trace.records)


def test_phi_iterate_povm_seed(dyadic_ct):
    space1 = dyadic_ct.level(1).space
    seed = validate_ovm(space1, [np.eye(2) / 2, np.eye(2) / 2], "positive")
    trace = phi_iterate(dyadic_ct, seed, 2, seed_desc="half identity")
    assert trace.final.kind == "positive"
    # depth-1 cylinders already exact after one step
    assert trace.prefix_depth_verified >= 1
    level3 = dyadic_ct.level(3)
    for j in range(2):
        got = measure_of(trace.final, prefix_atoms(dyadic_ct, (j,), 3))
        assert max_abs(got - cylinder_projection(dyadic_ct, (j,), 3)) < 1e-12


def test_phi_iterate_depth_guard(dyadic_ct):
    with pytest.raises(LevelOutOfRange):
        phi_iterate(dyadic_ct, swapped_diagonal_pvm(dyadic_ct, 1), 5)


def test_phi_iterate_rejects_a_seed_of_another_size():
    # level 4 has 16 atoms, more than rho is computed on, so with no step
    # taken only the seed check sees a 17-dimensional seed
    ct = build_tower(dyadic_ifs(), 4)
    seed = diagonal_pvm(ct.level(4).space, [j % 16 for j in range(17)])
    with pytest.raises(MismatchedMeasures):
        phi_iterate(ct, seed, 0)


def test_verify_fixed_point_small_cases():
    for ifs, depth in ((dyadic_ifs(), 3), (triadic_ifs(), 2)):
        ct = build_tower(ifs, depth)
        rep = verify_fixed_point(ct)
        assert rep.passed
        n = ifs.n_branches
        assert rep.words_checked == sum(n**k for k in range(depth + 1))


def test_verify_fixed_point_catches_tampering(dyadic_ct2):
    truth = multiplication_pvm(dyadic_ct2, 2)
    mats = [np.array(m) for m in truth.mats]
    # swap two atoms: still a valid measure, no longer the fixed point
    mats[0], mats[1] = mats[1], mats[0]
    candidate = validate_ovm(truth.space, mats, "projection")
    rep = verify_fixed_point(dyadic_ct2, candidate)
    assert not rep.passed
    assert rep.offending_words  # names the broken cylinders


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_verify_fixed_point_rejects_a_candidate_of_another_size(dim):
    ct = build_tower(dyadic_ifs(), 1)
    candidate = diagonal_pvm(ct.level(1).space, [j % 2 for j in range(dim)])
    with pytest.raises(MismatchedMeasures):
        verify_fixed_point(ct, candidate)


def test_verify_fixed_point_rejects_a_candidate_on_another_level(dyadic_ct):
    with pytest.raises(MismatchedMeasures):
        verify_fixed_point(dyadic_ct, multiplication_pvm(dyadic_ct, 2))


def _dense_cylinder_identities(ct, E, level, depth):
    """Reference: each cylinder summed over its atom ids and compared with
    the dense cylinder projection."""
    exact = E.is_exact
    for t in range(depth + 1):
        for word in ct.level(t).words:
            lhs = measure_of(E, prefix_atoms(ct, word, level))
            defect = max_abs(lhs - cylinder_projection(ct, word, level))
            yield t, word, (defect == 0) if exact else (defect <= 1e-10)


def _per_word(ct, identities):
    """(t, word, holds) per word from the per-level output of _cylinder_identities."""
    return [
        (t, word, bool(h))
        for t, holds in identities
        for word, h in zip(ct.level(t).words, holds, strict=True)
    ]


def _off_block_candidate(truth, a, b, row, col, x):
    """truth with x added at (row, col) and (col, row) of atom a and taken
    from atom b: a cylinder holding both atoms still sums to its projection."""
    atoms = np.array(truth.mats, dtype=np.result_type(truth.mats, x))
    for atom, sign in ((a, 1), (b, -1)):
        atoms[atom, row, col] += sign * x
        atoms[atom, col, row] += sign * x
    return OperatorValuedMeasure(truth.space, atoms, "positive")


@pytest.mark.parametrize("ifs, depth", [(dyadic_ifs(), 6), (triadic_ifs(), 4)], ids=["dyadic", "triadic"])
def test_cylinder_blocks_match_the_dense_route(ifs, depth, monkeypatch):
    ct = build_tower(ifs, depth)
    n = ifs.n_branches
    for K in range(1, depth + 1):
        truth = multiplication_pvm(ct, K)
        d = ct.dim(K)
        seed = random_povm(ct.level(1).space, n, SplitMix64(K))
        candidates = [
            truth,
            swapped_diagonal_pvm(ct, K),
            phi_iterate(ct, seed, K - 1).final,
            _off_block_candidate(truth, 0, 1, 0, d - 1, 1),
            _off_block_candidate(truth, d - 1, d - 2, d - 1, 0, 1e-9),
            _off_block_candidate(truth, d - 1, d - 2, d - 1, 0, 1e-11),
        ]
        verdicts = []
        for E in candidates:
            got = _per_word(ct, _cylinder_identities(ct, E, K, K))
            assert got == list(_dense_cylinder_identities(ct, E, K, K))
            with monkeypatch.context() as m:  # three words' block sums at a time
                m.setattr(ovm, "BLOCK_ENTRIES", 3 * d * d)
                assert _per_word(ct, _cylinder_identities(ct, E, K, K)) == got
            verdicts.append([holds for _t, _word, holds in got])
        # the whole space holds both perturbed atoms, so only smaller
        # cylinders can see the off-block entries
        for holds in verdicts[3:5]:
            assert holds[0] and not all(holds)
        assert all(verdicts[5])


def _assignment_mutants(E):
    """Two atoms swapped (adjacent ones, and the first and last), and one
    basis index sent into the neighbouring atom's block."""
    a = E.assignment
    d = len(a)
    mutants = []
    for x, y in ((a[0], a[1 % d]), (a[0], a[d - 1])):
        mutants.append(np.where(a == x, y, np.where(a == y, x, a)))
    moved = a.copy()
    moved[d // 2 - 1] = (a[d // 2 - 1] + 1) % d
    mutants.append(moved)
    return [diagonal_pvm(E.space, m) for m in mutants]


@pytest.mark.parametrize("ifs, depth", [(dyadic_ifs(), 6), (triadic_ifs(), 4)], ids=["dyadic", "triadic"])
def test_assignment_route_matches_a_dense_copy(ifs, depth):
    # the assignment checks against the dense checks on a dense copy of the
    # same measure, and both against the per-word dense oracle
    for K in range(1, depth + 1):
        ct = build_tower(ifs, K)
        truth = multiplication_pvm(ct, K)
        measures = [truth, swapped_diagonal_pvm(ct, K)]
        for start in range(1, K):
            chain = swapped_diagonal_pvm(ct, start)
            for k in range(start + 1, K + 1):
                chain = phi_step(ct, k, chain)
            measures.append(chain)
        mutants = _assignment_mutants(truth)
        for E in measures + mutants:
            assert E.assignment is not None
            dense = OperatorValuedMeasure(E.space, E.mats.copy(), E.kind)
            assert dense.assignment is None
            got = _per_word(ct, _cylinder_identities(ct, E, K, K))
            assert got == _per_word(ct, _cylinder_identities(ct, dense, K, K))
            assert got == list(_dense_cylinder_identities(ct, E, K, K))
            report = verify_fixed_point(ct, E)
            assert report == verify_fixed_point(ct, dense)
            assert _verify_prefixes(ct, E, K, K) == _verify_prefixes(ct, dense, K, K)
            if any(E is m for m in mutants):
                assert report.offending_words and not report.passed
        # swapped chains agree with the truth on every cylinder up to the steps taken
        for start, chain in enumerate(measures[2:], start=1):
            assert _verify_prefixes(ct, chain, K, K) >= K - start


def _dense_relate_verify(ct, h):
    """Reference: relate_verify with a dense float cylinder projection per word."""
    K = ct.depth
    h = np.asarray(h, dtype=np.complex128)
    dim = ct.dim(K)
    masses = np.abs(h) ** 2
    positive = [a for a in range(dim) if masses[a] > 1e-26]
    v = np.zeros((dim, len(positive)), dtype=np.complex128)
    for col, a in enumerate(positive):
        v[a, col] = h[a]
    w = masses[positive]
    gram = v.conj().T @ v
    isometry_defect = max_abs(gram - np.diag(w))
    intertwine_defect = 0.0
    span_vecs = []
    for t in range(K + 1):
        for word in ct.level(t).words:
            proj = cylinder_projection(ct, word, K).astype(np.float64)
            conj = (v.conj().T @ (proj @ v)) / w[None, :]
            indicator = np.diag([float(proj[a, a]) for a in positive])
            intertwine_defect = max(intertwine_defect, max_abs(conj - indicator))
            span_vecs.append(proj @ h)
    return RelateReport(
        positive_atoms=len(positive),
        isometry_defect=float(isometry_defect),
        intertwine_defect=float(intertwine_defect),
        range_rank=gram_rank([v[:, c] for c in range(v.shape[1])]),
        span_rank=gram_rank(span_vecs),
    )


@pytest.mark.parametrize(
    "ifs, depth",
    [(dyadic_ifs(), 5), (triadic_ifs(), 3), (THETA_IFS, 4), (dyadic_ifs(), 6)],
    ids=["dyadic", "triadic", "theta", "dyadic-d6"],
)
def test_relate_verify_matches_the_dense_route(ifs, depth):
    # the counts and verdicts agree; the counting route's defects are exact
    # zeros, where the dense route's carry rounding noise from complex h
    rng = SplitMix64(23)
    for K in range(1, depth + 1):
        ct = build_tower(ifs, K)
        dim = ct.dim(K)
        panel = [np.eye(dim)[dim - 1], np.full(dim, dim**-0.5)]
        for i in range(6):
            h = random_unit_vector(dim, rng, complex_=i % 2 == 1)
            if i >= 2:
                h[:: 2 + i % 2] = 0
            if i >= 4:
                h[-1] = 1e-14  # mass below the positive-atom cutoff
            panel.append(h / np.sqrt(np.vdot(h, h).real))
        for h in panel:
            got, dense = relate_verify(ct, h), _dense_relate_verify(ct, h)
            counts = (got.positive_atoms, got.range_rank, got.span_rank, got.passed)
            assert counts == (dense.positive_atoms, dense.range_rank, dense.span_rank, dense.passed)
            assert got.passed
            assert got.isometry_defect == got.intertwine_defect == 0.0
            assert dense.isometry_defect <= 1e-15 and dense.intertwine_defect <= 1e-15


def _relate_mutants(d):
    """Wrong truths, as assignments: the swapped truth, the first and last
    atoms swapped, the last atom in every slot, and the last atom moved
    into the first block."""
    basis = np.arange(d)
    return {
        "swapped": basis[::-1],
        "two-swapped": np.where(basis == 0, d - 1, np.where(basis == d - 1, 0, basis)),
        "last-everywhere": np.full(d, d - 1),
        "last-in-first-block": np.where(basis == 0, d - 1, basis),
    }


def _patch_truth(monkeypatch, assignment):
    def mutant(tower, k):
        return diagonal_pvm(tower.level(k).space, assignment)

    monkeypatch.setattr(fixed_point, "multiplication_pvm", mutant)


@pytest.mark.parametrize(
    "mutant, defect, ranks_differ",
    [
        ("swapped", 1.0, False),
        ("two-swapped", 1.0, False),
        ("last-everywhere", 0.875, True),
        ("last-in-first-block", 0.5, True),
    ],
    ids=["swapped", "two-swapped", "last-everywhere", "last-in-first-block"],
)
def test_relate_verify_fails_every_mutant_truth(monkeypatch, mutant, defect, ranks_differ):
    ct = build_tower(dyadic_ifs(), 3)
    _patch_truth(monkeypatch, _relate_mutants(8)[mutant])
    rep = relate_verify(ct, np.full(8, 8**-0.5))
    assert not rep.passed
    assert rep.intertwine_defect == pytest.approx(defect, abs=1e-12)
    assert (rep.range_rank != rep.span_rank) == ranks_differ
    assert rep.isometry_defect == 0.0


@pytest.mark.parametrize(
    "ifs, depth",
    [(dyadic_ifs(), 5), (triadic_ifs(), 3), (THETA_IFS, 4)],
    ids=["dyadic", "triadic", "theta"],
)
def test_relate_verify_mutants_fail_on_full_support_vectors(monkeypatch, ifs, depth):
    ct = build_tower(ifs, depth)
    d = ct.dim(depth)
    rng = SplitMix64(31)
    vectors = [np.full(d, d**-0.5)] + [random_unit_vector(d, rng, complex_=c) for c in (False, True)]
    for name, assignment in _relate_mutants(d).items():
        _patch_truth(monkeypatch, assignment)
        for h in vectors:
            assert not relate_verify(ct, h).passed, name


def test_relate_verify_counts_a_small_positive_atom():
    # mass 1e-12 / 7 is above the 1e-26 cutoff: all eight atoms count, and
    # all eight level-3 span vectors are nonzero
    h = np.array([1e-6] + [1.0] * 7)
    rep = relate_verify(build_tower(dyadic_ifs(), 3), h / np.linalg.norm(h))
    assert (rep.positive_atoms, rep.range_rank, rep.span_rank) == (8, 8, 8)
    assert rep.passed


def test_relate_verify_at_depth_zero():
    rep = relate_verify(build_tower(dyadic_ifs(), 0), np.array([1.0]))
    assert rep == RelateReport(
        positive_atoms=1, isometry_defect=0.0, intertwine_defect=0.0, range_rank=1, span_rank=1
    )


def test_relate_verify_reads_no_word_block(monkeypatch):
    # nor runs any float linear algebra: no Gram rank, no eigen-solve
    def refuse(*args, **kwargs):
        raise AssertionError("relate_verify read a word block or ran linear algebra")

    monkeypatch.setattr(cuntz, "_word_block", refuse)
    monkeypatch.setattr(fixed_point, "_word_block", refuse, raising=False)
    monkeypatch.setattr(linalg, "gram_rank", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rng = SplitMix64(5)
    for depth in (7, 12):
        ct = build_tower(dyadic_ifs(), depth)
        d = 2**depth
        for h in (np.full(d, d**-0.5), random_unit_vector(d, rng, complex_=True)):
            rep = relate_verify(ct, h)
            assert rep.passed and rep.positive_atoms == rep.range_rank == rep.span_rank == d


@pytest.mark.parametrize("t", [1, 2, 3])
def test_relate_verify_reads_each_levels_word_list(t):
    # with level t's words shuffled, the prefixes looked up in its list no
    # longer match the blocks, and the model fails; the block formula alone
    # would not see it
    ct = build_tower(dyadic_ifs(), 4)
    words = ct.level(t).words
    order = SplitMix64(t).distinct_indices(len(words), len(words))
    level = TowerLevel(ct.ifs, tuple(words[j] for j in order), ct.level(t - 1))
    moved = CylinderTower(ct.ifs, 4, ct.levels[:t] + (level,) + ct.levels[t + 1 :])
    h = np.full(16, 0.25)
    assert relate_verify(ct, h).passed
    rep = relate_verify(moved, h)
    assert not rep.passed and rep.intertwine_defect == 1.0


def test_contraction_ratio_rho_sweep(dyadic_ct):
    rep = contraction_ratio_rho(dyadic_ct, 2, 10, seed=7, kind="projection")
    assert rep.pairs_tested > 0
    assert rep.passed
    assert rep.tight_pair_ratio == F(1, 2)
    rep2 = contraction_ratio_rho(dyadic_ct, 2, 6, seed=9, kind="positive")
    assert rep2.passed


def test_relate_verify_basis_vector(dyadic_ct):
    rep = relate_verify(dyadic_ct, np.eye(8)[2])
    assert rep.positive_atoms == 1
    assert rep.isometry_defect == 0.0
    assert rep.intertwine_defect == 0.0
    assert rep.range_rank == rep.span_rank == 1


def test_relate_verify_uniform_superposition(dyadic_ct):
    h = np.full(8, 8**-0.5)
    rep = relate_verify(dyadic_ct, h)
    assert rep.positive_atoms == 8
    assert rep.passed
    assert rep.range_rank == rep.span_rank == 8


def test_relate_verify_random_vectors(dyadic_ct):
    rng = SplitMix64(11)
    for i in range(4):
        h = random_unit_vector(8, rng, complex_=(i % 2 == 0))
        rep = relate_verify(dyadic_ct, h)
        assert rep.passed


def test_relate_verify_requires_unit_vector(dyadic_ct):
    with pytest.raises(Exception):
        relate_verify(dyadic_ct, np.full(8, 1.0))


def _scalar_pushforward_defect(ct, k, E, h) -> float:
    """Compatibility of the step with scalar measures on one vector.

    The stepped measure's diagonal weight on cell (i, c) must equal the
    source measure's weight on cell c against the branch-pulled vector
    S_i^* h.
    """
    stepped = phi_step(ct, k, E)
    h = np.asarray(h, dtype=np.complex128)
    lhs = scalar_measure(stepped, h, h).real
    d_prev = ct.dim(k - 1)
    rhs = np.empty_like(lhs)
    for i in range(ct.n_branches):
        pulled = s_matrix(ct, i, k).astype(np.float64).T @ h
        part = scalar_measure(E, pulled, pulled).real
        rhs[i * d_prev : (i + 1) * d_prev] = part
    return float(np.abs(lhs - rhs).max())


def test_scalar_pushforward_identity(dyadic_ct):
    rng = SplitMix64(13)
    E = random_truth_conjugate_pvm(dyadic_ct.level(1).space, rng)
    h = random_unit_vector(4, rng)
    assert _scalar_pushforward_defect(dyadic_ct, 2, E, h) < 1e-12


def test_cauchy_proxy_along_trace(dyadic_ct):
    # successive iterates form a geometric Cauchy sequence; final validates
    rng = SplitMix64(17)
    seed = random_truth_conjugate_pvm(dyadic_ct.level(1).space, rng)
    trace = phi_iterate(dyadic_ct, seed, 2)
    rhos = [rec.rho_to_truth for rec in trace.records]
    bound = trace.contraction_bound
    for t in range(1, len(rhos)):
        assert rhos[t] <= bound * rhos[t - 1] + 1e-8
    assert trace.final.kind == "projection"


# One step from level k - 1 to level k, for every level k whose cells the
# vertex enumeration reaches: up to 8 atoms, and the 9-atom triadic line
# level, whose 256 vertices come in closed form.
EQUALITY_CASES = [
    ("dyadic", dyadic_ifs(), 3),
    ("theta-1/3", THETA_IFS, 3),
    ("triadic", triadic_ifs(), 2),
    ("ratios-1/3-1/2", make_ifs([(F(1, 3), 0), (F(1, 2), F(1, 2))], 0), 3),
]


@pytest.mark.parametrize(
    "ifs, depth", [case[1:] for case in EQUALITY_CASES], ids=[case[0] for case in EQUALITY_CASES]
)
def test_contraction_is_an_equality_on_diagonal_pvms(ifs, depth):
    # rho(Phi E, Phi F) == r rho(E, F) in Fractions, r the largest branch
    # ratio or theta (the block argument in the fixed_point docstring)
    ct = build_tower(ifs, depth)
    rng = SplitMix64(97)
    r = ct.contraction
    nonzero = 0
    for k in range(1, depth + 1):
        prev = ct.level(k - 1).space
        nxt = ct.level(k).space
        verts_prev = lip1_vertices(prev)
        verts_next = lip1_vertices(nxt)
        for _ in range(20):
            E, G, _, _ = random_diagonal_pvm_pair(prev, ct.dim(k - 1), rng)
            before = rho_exact(prev, E, G, verts_prev).exact
            after = rho_exact(nxt, phi_step(ct, k, E), phi_step(ct, k, G), verts_next).exact
            assert type(after) is Fraction and after == r * before
            nonzero += before != 0
    assert nonzero >= 10 * (depth - 1)  # level 0 has one atom, so rho is 0 there


@pytest.mark.parametrize(
    "ifs, depth", [case[1:] for case in EQUALITY_CASES], ids=[case[0] for case in EQUALITY_CASES]
)
def test_rho_assignments_matches_the_vertex_route_on_tower_levels(ifs, depth):
    # random pairs, truth against the swapped seed, and phi_step chains of
    # both, on every level the vertex route reaches
    ct = build_tower(ifs, depth)
    rng = SplitMix64(101)
    chain = [multiplication_pvm(ct, 0)]
    for k in range(depth + 1):
        space = ct.level(k).space
        verts = lip1_vertices(space)
        truth = multiplication_pvm(ct, k)
        pairs = [random_diagonal_pvm_pair(space, ct.dim(k), rng)[:2] for _ in range(10)]
        pairs.append((swapped_diagonal_pvm(ct, k), truth))
        if k:
            chain = [phi_step(ct, k, E) for E in chain + [swapped_diagonal_pvm(ct, k - 1)]]
        pairs += [(E, truth) for E in chain] + list(zip(chain, chain[1:]))
        for E, G in pairs:
            assert rho_assignments(E, G) == rho_exact(space, E, G, verts).exact


@pytest.mark.parametrize("depth", range(1, 9))
def test_contraction_is_an_equality_on_assignments_to_depth_8(depth):
    # rho(Phi E, Phi G) == r rho(E, G) in Fractions on levels the vertex
    # route never reaches: depth 8 has 256 atoms
    ct = build_tower(dyadic_ifs(), depth)
    rng = SplitMix64(103 + depth)
    prev = ct.level(depth - 1).space
    r = ct.contraction
    for _ in range(10):
        E, G, _, _ = random_diagonal_pvm_pair(prev, ct.dim(depth - 1), rng)
        after = rho_assignments(phi_step(ct, depth, E), phi_step(ct, depth, G))
        assert after == r * rho_assignments(E, G)
    off = swapped_diagonal_pvm(ct, depth - 1)
    truth = multiplication_pvm(ct, depth - 1)
    before = rho_assignments(off, truth)
    assert before == 1 - F(1, 2 ** (depth - 1))
    assert rho_assignments(phi_step(ct, depth, off), phi_step(ct, depth, truth)) == r * before


def _refuse(*args, **kwargs):
    raise AssertionError("vertex route taken")


def test_phi_iterate_scores_assignments_without_vertices_or_tables(monkeypatch):
    monkeypatch.setattr(fixed_point, "lip1_vertices", _refuse)
    monkeypatch.setattr(fixed_point, "rho_exact", _refuse)
    ct = build_tower(dyadic_ifs(), 5)
    swapped = phi_iterate(ct, swapped_diagonal_pvm(ct, 1), 4)
    assert [(r.level, r.rho_to_truth, r.ratio) for r in swapped.records] == [
        (1, 0.5, None),
        (2, 0.25, 0.5),
        (3, 0.125, 0.5),
        (4, None, None),
        (5, None, None),
    ]
    truth = phi_iterate(ct, multiplication_pvm(ct, 1), 4)
    assert [(r.level, r.rho_to_truth, r.ratio) for r in truth.records] == [
        (1, 0.0, None),
        (2, 0.0, None),
        (3, 0.0, None),
        (4, None, None),
        (5, None, None),
    ]
    assert swapped.prefix_depth_verified == truth.prefix_depth_verified == 4
    assert not any(
        "space" in vars(level) and "dist" in vars(level.space) for level in ct.levels
    )
    # a dense seed still goes through the vertex route
    dense = random_pvm(ct.level(1).space, 2, SplitMix64(7))
    with pytest.raises(AssertionError, match="vertex route taken"):
        phi_iterate(ct, dense, 4)
