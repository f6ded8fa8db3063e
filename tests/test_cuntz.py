"""Exact level isometries, their relations, and cylinder projections."""

import numpy as np
import pytest

from pvmk.cuntz import (
    build_cuntz_tower,
    cuntz_verify,
    cylinder_projection,
    multiplication_pvm,
    prefix_atoms,
    relation_defects,
    s_matrix,
)
from pvmk.errors import BranchOutOfRange, LevelOutOfRange, WordTooLong
from pvmk.ifs import build_tower, dyadic_ifs, triadic_ifs
from pvmk.ovm import measure_of


def test_s_matrices_level1_frozen(dyadic_ct):
    assert s_matrix(dyadic_ct, 0, 1).matrix.tolist() == [[1], [0]]
    assert s_matrix(dyadic_ct, 1, 1).matrix.tolist() == [[0], [1]]


def test_s_matrix_level2_block_structure(dyadic_ct):
    # branch 0 at level 2: identity block stacked over zeros
    m = s_matrix(dyadic_ct, 0, 2).matrix
    assert m.tolist() == [[1, 0], [0, 1], [0, 0], [0, 0]]


def test_s_matrix_maps_words(dyadic_ct):
    tower = dyadic_ct.tower
    for k in (1, 2, 3):
        prev_words = tower.level(k - 1).words
        words = tower.level(k).words
        for i in range(2):
            m = s_matrix(dyadic_ct, i, k).matrix
            for col, a in enumerate(prev_words):
                row = words.index((i,) + a)
                assert m[row, col] == 1
                assert m[:, col].sum() == 1


def test_columns_orthonormal(dyadic_ct, triadic_ct):
    for ct in (dyadic_ct, triadic_ct):
        for k in range(1, ct.depth + 1):
            for i in range(ct.n_branches):
                m = s_matrix(ct, i, k).matrix
                eye = np.eye(m.shape[1], dtype=np.int64)
                assert np.array_equal(m.T @ m, eye)


def test_isometry_preserves_norm(dyadic_ct):
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        v = rng.standard_normal(dyadic_ct.dim(k - 1))
        for i in range(2):
            m = s_matrix(dyadic_ct, i, k).matrix
            assert abs(np.linalg.norm(m @ v) - np.linalg.norm(v)) < 1e-12


def test_cuntz_relations_exact():
    ct2 = build_cuntz_tower(build_tower(dyadic_ifs(), 4))
    for k in range(1, 5):
        rep = cuntz_verify(ct2, k)
        assert rep.sum_defect == 0 and rep.ortho_defect == 0
    ct3 = build_cuntz_tower(build_tower(triadic_ifs(), 3))
    for k in range(1, 4):
        rep = cuntz_verify(ct3, k)
        assert rep.sum_defect == 0 and rep.ortho_defect == 0


def test_bit_flip_negative_control(dyadic_ct):
    mats = [np.array(s_matrix(dyadic_ct, i, 1).matrix) for i in range(2)]
    mats[0] = mats[0].copy()
    mats[0][0, 0] ^= 1
    sum_defect, ortho_defect = relation_defects(mats)
    assert sum_defect > 0 or ortho_defect > 0


def test_level_and_branch_bounds(dyadic_ct):
    with pytest.raises(LevelOutOfRange):
        s_matrix(dyadic_ct, 0, 4)
    with pytest.raises(BranchOutOfRange):
        s_matrix(dyadic_ct, 2, 1)
    with pytest.raises(LevelOutOfRange):
        cuntz_verify(dyadic_ct, 0)


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
        for word in triadic_ct.tower.level(j).words:
            p = cylinder_projection(triadic_ct, word, 2)
            assert int(np.trace(p)) == n ** (2 - j)
            assert np.array_equal(p @ p, p)


def test_word_too_long(dyadic_ct2):
    with pytest.raises(WordTooLong):
        cylinder_projection(dyadic_ct2, (0, 1, 0), 2)


def test_projection_nesting(dyadic_ct):
    # P_j(a) = sum over children of P_{j+1}(a i)
    for j in (0, 1, 2):
        for word in dyadic_ct.tower.level(j).words:
            parent = cylinder_projection(dyadic_ct, word, 3)
            children = sum(
                cylinder_projection(dyadic_ct, word + (i,), 3) for i in range(2)
            )
            assert np.array_equal(parent, children)


def test_equal_length_projections_orthogonal_and_complete(dyadic_ct):
    for j in (1, 2, 3):
        words = dyadic_ct.tower.level(j).words
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
