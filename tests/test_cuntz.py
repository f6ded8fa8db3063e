"""Exact level isometries, their relations, and cylinder projections."""

import numpy as np
import pytest

from pvmk.cuntz import (
    _word_block,
    branch_maps,
    build_cuntz_tower,
    cuntz_verify,
    cylinder_projection,
    multiplication_pvm,
    prefix_atoms,
    relation_defects,
)
from pvmk.errors import BranchOutOfRange, LevelOutOfRange, WordTooLong
from pvmk.ifs import CylinderTower, TowerLevel, build_tower, dyadic_ifs, triadic_ifs
from pvmk.ovm import measure_of
from pvmk.rng import SplitMix64
from test_ifs import word_id


def dense_isometries(maps, rows: int) -> list:
    """The 0/1 matrices M_i with M_i[maps[i, a], a] = 1, one per row of maps."""
    cols = maps.shape[1]
    mats = np.zeros((len(maps), rows, cols), dtype=np.int64)
    for i, row in enumerate(maps):
        mats[i, row, np.arange(cols)] = 1
    return list(mats)


def s_matrix(ct, i: int, k: int) -> np.ndarray:
    """The dense 0/1 matrix of S_i from level k-1 into level k, scattered
    from the package's branch map."""
    return dense_isometries(branch_maps(ct, k), ct.dim(k))[i]


def dense_relation_defects(mats) -> tuple[int, int]:
    """Oracle: max abs entries of sum_i M_i M_i^T - id and of
    M_i^T M_j - delta_ij id, from the integer matrix products."""
    rows, cols = mats[0].shape
    total = sum(m @ m.T for m in mats)
    sum_defect = int(np.abs(total - np.eye(rows, dtype=np.int64)).max())
    ortho_defect = 0
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            target = np.eye(cols, dtype=np.int64) if i == j else 0
            ortho_defect = max(ortho_defect, int(np.abs(mi.T @ mj - target).max()))
    return sum_defect, ortho_defect


TOWER_LEVELS = [
    (ifs, k)
    for ifs, depth in ((dyadic_ifs(), 6), (triadic_ifs(), 4))
    for k in range(1, depth + 1)
]
TOWER_IDS = [f"N{ifs.n_branches}-k{k}" for ifs, k in TOWER_LEVELS]


def test_cuntz_verify_builds_no_distance_table():
    tower = build_tower(dyadic_ifs(), 8)
    assert all(cuntz_verify(tower, k).passed for k in range(1, 9))
    assert not any("space" in vars(level) for level in tower.levels)


def test_the_cuntz_tower_is_the_cylinder_tower():
    tower = build_tower(triadic_ifs(), 3)
    assert build_cuntz_tower(tower) is tower
    assert tower.n_branches == 3
    assert [tower.dim(k) for k in range(4)] == [1, 3, 9, 27]
    with pytest.raises(LevelOutOfRange):
        tower.dim(4)


def test_s_matrices_level1_frozen(dyadic_ct):
    assert s_matrix(dyadic_ct, 0, 1).tolist() == [[1], [0]]
    assert s_matrix(dyadic_ct, 1, 1).tolist() == [[0], [1]]


def test_s_matrix_level2_block_structure(dyadic_ct):
    # branch 0 at level 2: identity block stacked over zeros
    m = s_matrix(dyadic_ct, 0, 2)
    assert m.tolist() == [[1, 0], [0, 1], [0, 0], [0, 0]]


def test_s_matrix_maps_words(dyadic_ct):
    for k in (1, 2, 3):
        prev_words = dyadic_ct.level(k - 1).words
        words = dyadic_ct.level(k).words
        for i in range(2):
            m = s_matrix(dyadic_ct, i, k)
            for col, a in enumerate(prev_words):
                row = words.index((i,) + a)
                assert m[row, col] == 1
                assert m[:, col].sum() == 1


def test_columns_orthonormal(dyadic_ct, triadic_ct):
    for ct in (dyadic_ct, triadic_ct):
        for k in range(1, ct.depth + 1):
            for i in range(ct.n_branches):
                m = s_matrix(ct, i, k)
                eye = np.eye(m.shape[1], dtype=np.int64)
                assert np.array_equal(m.T @ m, eye)


def test_isometry_preserves_norm(dyadic_ct):
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        v = rng.standard_normal(dyadic_ct.dim(k - 1))
        for i in range(2):
            m = s_matrix(dyadic_ct, i, k)
            assert abs(np.linalg.norm(m @ v) - np.linalg.norm(v)) < 1e-12


def test_cuntz_relations_exact():
    ct2 = build_tower(dyadic_ifs(), 4)
    for k in range(1, 5):
        rep = cuntz_verify(ct2, k)
        assert rep.sum_defect == 0 and rep.ortho_defect == 0
    ct3 = build_tower(triadic_ifs(), 3)
    for k in range(1, 4):
        rep = cuntz_verify(ct3, k)
        assert rep.sum_defect == 0 and rep.ortho_defect == 0


def test_bit_flip_negative_control(dyadic_ct):
    # the dense oracle sees a flipped matrix bit
    mats = [s_matrix(dyadic_ct, i, 1) for i in range(2)]
    mats[0][0, 0] ^= 1
    sum_defect, ortho_defect = dense_relation_defects(mats)
    assert sum_defect > 0 or ortho_defect > 0


def test_redirected_index_negative_control(dyadic_ct):
    # the route cuntz-verify runs sees one redirected index, as the oracle does
    for k in range(1, 4):
        maps = branch_maps(dyadic_ct, k)
        maps[0, 0] = maps[1, 0]
        rows = dyadic_ct.dim(k)
        assert relation_defects(maps, rows) == (1, 1)
        assert dense_relation_defects(dense_isometries(maps, rows)) == (1, 1)


@pytest.mark.parametrize("ifs, k", TOWER_LEVELS, ids=TOWER_IDS)
def test_branch_maps_and_counting_defects_match_the_dense_route(ifs, k):
    # S_i lands on its one-symbol word block, and the counts equal the
    # matrix-product defects
    ct = build_tower(ifs, k)
    maps = branch_maps(ct, k)
    assert maps.shape == (ct.n_branches, ct.dim(k - 1))
    for i in range(ct.n_branches):
        block = _word_block(ct, (i,), k)
        assert maps[i].tolist() == list(range(block.start, block.start + ct.dim(k - 1)))
    mats = [s_matrix(ct, i, k) for i in range(ct.n_branches)]
    assert relation_defects(maps, ct.dim(k)) == dense_relation_defects(mats) == (0, 0)


@pytest.mark.parametrize("ifs, k", TOWER_LEVELS, ids=TOWER_IDS)
def test_branch_maps_read_the_word_list(ifs, k):
    # with level k's words shuffled, S_i follows each word (i,) + a to its
    # listed position, which the index formula would not give
    ct = build_tower(ifs, k)
    words = list(ct.level(k).words)
    shuffled = [words[j] for j in SplitMix64(k).distinct_indices(len(words), len(words))]
    level = TowerLevel(ct.ifs, tuple(shuffled), ct.level(k - 1))
    moved = CylinderTower(ct.ifs, k, ct.levels[:k] + (level,))
    maps = branch_maps(moved, k)
    prev = ct.level(k - 1).words
    for i in range(ct.n_branches):
        assert maps[i].tolist() == [shuffled.index((i,) + a) for a in prev]
    assert relation_defects(maps, ct.dim(k)) == (0, 0)


def tuple_route_branch_maps(ct, k) -> np.ndarray:
    """S_i's columns by the route ``branch_maps`` took before each level
    cached its word codes: the words (i,) + a built as tuples, turned into
    arrays, and looked up in the level's word list by base-N code."""
    n, prev, words = ct.n_branches, ct.level(k - 1).words, ct.level(k).words
    rows = np.array([(i,) + a for i in range(n) for a in prev], dtype=np.int64)
    listed = np.array(words, dtype=np.int64).reshape(len(words), rows.shape[1])
    powers = n ** np.arange(rows.shape[1])
    codes = listed @ powers
    order = np.argsort(codes)
    return order[np.searchsorted(codes[order], rows @ powers)].reshape(n, len(prev))


@pytest.mark.parametrize("ifs, k", TOWER_LEVELS, ids=TOWER_IDS)
def test_branch_maps_equal_the_tuple_route(ifs, k):
    # on the built tower; with level k's words shuffled as in
    # test_branch_maps_read_the_word_list; and with levels k - 1 and k both
    # shuffled, so that the columns follow a shuffled parent
    ct = build_tower(ifs, k)

    def shuffled(level, parent, rng):
        order = rng.distinct_indices(len(level.words), len(level.words))
        return TowerLevel(ct.ifs, tuple(level.words[j] for j in order), parent)

    child = shuffled(ct.level(k), ct.level(k - 1), SplitMix64(k))
    rng = SplitMix64(100 + k)
    parent = shuffled(ct.level(k - 1), ct.level(k - 2) if k >= 2 else None, rng)
    for tower in (
        ct,
        CylinderTower(ct.ifs, k, ct.levels[:k] + (child,)),
        CylinderTower(ct.ifs, k, ct.levels[: k - 1] + (parent, shuffled(child, parent, rng))),
    ):
        maps = branch_maps(tower, k)
        assert np.array_equal(maps, tuple_route_branch_maps(tower, k))
        assert relation_defects(maps, ct.dim(k)) == (0, 0)


def test_counting_defects_equal_the_dense_oracle_on_random_maps():
    # permutations (the relations hold), permutations with one index
    # redirected, and uniform maps, which are mostly non-injective,
    # overlapping or not covering
    rng = SplitMix64(41)
    seen = {"holds": 0, "non_injective": 0, "overlapping": 0, "not_covering": 0}
    for trial in range(400):
        n, cols = rng.randint(1, 4), rng.randint(1, 5)
        if trial % 4 >= 2:
            rows = rng.randint(1, n * cols + 3)
            maps = np.array([[rng.randint(0, rows - 1) for _ in range(cols)] for _ in range(n)])
        else:
            rows = n * cols
            maps = np.array(rng.distinct_indices(rows, rows)).reshape(n, cols)
            if trial % 4 == 1:
                maps[rng.randint(0, n - 1), rng.randint(0, cols - 1)] = rng.randint(0, rows - 1)
        defects = relation_defects(maps, rows)
        assert defects == dense_relation_defects(dense_isometries(maps, rows))
        seen["holds"] += defects == (0, 0)
        seen["non_injective"] += any(len(set(row)) < cols for row in maps.tolist())
        seen["overlapping"] += any(
            set(maps[i].tolist()) & set(maps[j].tolist())
            for i in range(n) for j in range(i + 1, n)
        )
        seen["not_covering"] += len(set(maps.ravel().tolist())) < rows
    assert 400 - seen["holds"] >= 200
    assert min(seen.values()) >= 40


def test_level_and_branch_bounds(dyadic_ct):
    with pytest.raises(LevelOutOfRange):
        branch_maps(dyadic_ct, 4)
    with pytest.raises(LevelOutOfRange):
        branch_maps(dyadic_ct, 0)
    with pytest.raises(LevelOutOfRange):
        cuntz_verify(dyadic_ct, 0)
    with pytest.raises(BranchOutOfRange):
        cylinder_projection(dyadic_ct, (0, 2), 3)
    with pytest.raises(BranchOutOfRange):
        prefix_atoms(dyadic_ct, (2,), 3)


def test_cylinder_projection_examples(dyadic_ct2):
    # full-length word: rank-one on its own basis vector
    p = cylinder_projection(dyadic_ct2, (0, 1), 2)
    expect = np.zeros((4, 4), dtype=np.int64)
    expect[1, 1] = 1
    assert np.array_equal(p, expect)
    # empty word: identity
    assert np.array_equal(
        cylinder_projection(dyadic_ct2, (), 2), np.eye(4, dtype=np.int64)
    )
    # one-symbol prefix: block diagonal
    assert np.diag(cylinder_projection(dyadic_ct2, (0,), 2)).tolist() == [1, 1, 0, 0]


def test_cylinder_projection_rank_and_support(triadic_ct):
    n = 3
    for j in (0, 1, 2):
        for word in triadic_ct.level(j).words:
            p = cylinder_projection(triadic_ct, word, 2)
            assert int(np.trace(p)) == n ** (2 - j)
            assert np.array_equal(p @ p, p)


@pytest.mark.parametrize("ifs", [dyadic_ifs(), triadic_ifs()], ids=["dyadic", "triadic"])
def test_cylinders_match_isometry_products(ifs):
    # reference route: the literal product S_w S_w^T of s_matrix factors,
    # and the atoms whose words start with w
    ct = build_tower(ifs, 3)
    for ambient in range(4):
        atoms = ct.level(ambient).words
        for j in range(ambient + 1):
            for word in ct.level(j).words:
                s = np.eye(ct.dim(ambient - j), dtype=np.int64)
                for t, symbol in enumerate(reversed(word)):
                    s = s_matrix(ct, symbol, ambient - j + t + 1) @ s
                assert np.array_equal(cylinder_projection(ct, word, ambient), s @ s.T)
                expect = [word_id(w) for w in atoms if w[:j] == word]
                assert prefix_atoms(ct, word, ambient) == expect


def test_word_too_long(dyadic_ct2):
    with pytest.raises(WordTooLong):
        cylinder_projection(dyadic_ct2, (0, 1, 0), 2)


def test_ambient_level_outside_the_tower(dyadic_ct2):
    # the level is wrong, not the word
    with pytest.raises(LevelOutOfRange):
        _word_block(dyadic_ct2, (), 3)
    with pytest.raises(LevelOutOfRange):
        cylinder_projection(dyadic_ct2, (), 3)
    with pytest.raises(LevelOutOfRange):
        prefix_atoms(dyadic_ct2, (), -1)


def test_projection_nesting(dyadic_ct):
    # P_j(a) = sum over children of P_{j+1}(a i)
    for j in (0, 1, 2):
        for word in dyadic_ct.level(j).words:
            parent = cylinder_projection(dyadic_ct, word, 3)
            children = sum(
                cylinder_projection(dyadic_ct, word + (i,), 3) for i in range(2)
            )
            assert np.array_equal(parent, children)


def test_equal_length_projections_orthogonal_and_complete(dyadic_ct):
    for j in (1, 2, 3):
        words = dyadic_ct.level(j).words
        projs = [cylinder_projection(dyadic_ct, w, 3) for w in words]
        total = sum(projs)
        assert np.array_equal(total, np.eye(8, dtype=np.int64))
        for a in range(len(words)):
            for b in range(a + 1, len(words)):
                assert np.abs(projs[a] @ projs[b]).max() == 0


def test_multiplication_pvm_axioms_and_atoms(dyadic_ct2):
    pvm = multiplication_pvm(dyadic_ct2, 1)
    assert [m.tolist() for m in pvm.mats] == [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    full = multiplication_pvm(dyadic_ct2, 2)
    assert full.kind == "projection" and full.is_exact
    total = sum(full.mats)
    assert np.array_equal(total, np.eye(4, dtype=np.int64))


def test_coarse_graining_matches_projections(dyadic_ct2):
    full = multiplication_pvm(dyadic_ct2, 2)
    coarse0 = measure_of(full, prefix_atoms(dyadic_ct2, (0,), 2))
    coarse1 = measure_of(full, prefix_atoms(dyadic_ct2, (1,), 2))
    assert np.diag(coarse0).tolist() == [1, 1, 0, 0]
    assert np.diag(coarse1).tolist() == [0, 0, 1, 1]
    assert np.array_equal(coarse0, cylinder_projection(dyadic_ct2, (0,), 2))
