"""Frames compare by value: a measure, a vertex set or a tower step is
accepted on any space with the same point ids and distance table, whatever
object holds them, and refused on a table that differs in one distance.

Tower measures, cylinder ids and frame checks read only point ids, and a
distance read computes that one distance, so a tower level builds its
distance table only when the table itself is read."""

import gc
import weakref
from fractions import Fraction

import pytest

from pvmk.cuntz import multiplication_pvm, prefix_atoms
from pvmk.errors import MismatchedMeasures, StaleVertexSet
from pvmk.fixed_point import phi_iterate, phi_step, swapped_diagonal_pvm, verify_fixed_point
from pvmk.ifs import build_tower, dyadic_ifs
from pvmk.metric_core import lip1_vertices, validate_space
from pvmk.ovm import atom_difference_norms, diagonal_pvm
from pvmk.rho import rho_exact
from pvmk.transport import ProbMeasure, kantorovich_dual_oracle

F = Fraction


MU = ProbMeasure.from_values([F(1, 2), F(1, 2), 0, 0])
NU = ProbMeasure.from_values([0, 0, F(1, 4), F(3, 4)])


def test_value_equal_copy_is_the_same_frame(dyadic_ct):
    ct = dyadic_ct
    space = ct.level(2).space  # points 0, 1/4, 1/2, 3/4
    copy = validate_space(space.dist, space.point_ids)
    assert copy is not space
    assert copy == space
    verts = lip1_vertices(space)
    truth = multiplication_pvm(ct, 2)
    swapped = swapped_diagonal_pvm(ct, 2)
    on_copy = diagonal_pvm(copy, range(4))
    assert on_copy.same_frame(truth)
    expected = rho_exact(space, swapped, truth, verts).exact
    assert rho_exact(copy, swapped, truth, verts).exact == expected
    assert rho_exact(space, swapped, on_copy, lip1_vertices(copy)).exact == expected
    assert kantorovich_dual_oracle(copy, MU, NU, verts) == kantorovich_dual_oracle(
        space, MU, NU, verts
    )
    for a, b in zip(phi_step(ct, 3, on_copy).mats, phi_step(ct, 3, truth).mats):
        assert (a == b).all()
    assert atom_difference_norms(on_copy, truth).max() == 0


def test_one_changed_distance_is_another_frame(dyadic_ct):
    ct = dyadic_ct
    space = ct.level(2).space  # points 0, 1/4, 1/2, 3/4
    table = [list(row) for row in space.dist]
    table[0][3] = table[3][0] = F(5, 8)  # was 3/4; still a metric
    changed = validate_space(table, space.point_ids)
    assert changed != space
    verts = lip1_vertices(space)
    truth = multiplication_pvm(ct, 2)
    swapped = swapped_diagonal_pvm(ct, 2)
    on_changed = diagonal_pvm(changed, range(4))
    assert not on_changed.same_frame(truth)
    with pytest.raises(MismatchedMeasures):
        rho_exact(changed, swapped, truth, lip1_vertices(changed))
    with pytest.raises(MismatchedMeasures):
        rho_exact(space, swapped, on_changed, verts)
    with pytest.raises(StaleVertexSet):
        rho_exact(space, swapped, truth, lip1_vertices(changed))
    with pytest.raises(StaleVertexSet):
        kantorovich_dual_oracle(space, MU, NU, lip1_vertices(changed))
    with pytest.raises(MismatchedMeasures):
        phi_step(ct, 3, on_changed)
    with pytest.raises(MismatchedMeasures):
        atom_difference_norms(on_changed, truth)
    with pytest.raises(MismatchedMeasures):
        phi_iterate(ct, on_changed, 1)


def test_renamed_points_are_another_frame(dyadic_ct):
    ct = dyadic_ct
    space = ct.level(2).space  # points 0, 1/4, 1/2, 3/4
    renamed = validate_space(space.dist, ["a", "b", "c", "d"])
    assert renamed != space
    with pytest.raises(MismatchedMeasures):
        phi_step(ct, 3, diagonal_pvm(renamed, range(4)))


def test_phi_iterate_builds_no_table_below_the_seed():
    seed = swapped_diagonal_pvm(build_tower(dyadic_ifs(), 4), 4)
    ct = build_tower(dyadic_ifs(), 6)
    trace = phi_iterate(ct, seed, 2)
    assert [rec.level for rec in trace.records] == [4, 5, 6]
    assert trace.prefix_depth_verified == 2
    for k in range(4):
        assert "space" not in vars(ct.level(k))


def _levels_with_tables(ct):
    """Levels of more than 8 cells whose distance table has been built."""
    return [
        k
        for k, level in enumerate(ct.levels)
        if len(level.words) > 8 and "dist" in vars(level.space)
    ]


def test_verify_fixed_point_builds_no_table_at_depth_8():
    ct = build_tower(dyadic_ifs(), 8)
    report = verify_fixed_point(ct)
    assert report.passed and report.words_checked == 2**9 - 1
    assert _levels_with_tables(ct) == []


def test_phi_iterate_builds_no_table_from_a_level_5_seed_to_depth_8():
    ct = build_tower(dyadic_ifs(), 8)
    trace = phi_iterate(ct, swapped_diagonal_pvm(ct, 5), 3)
    assert [rec.level for rec in trace.records] == [5, 6, 7, 8]
    assert [rec.rho_to_truth for rec in trace.records] == [None] * 4
    assert trace.prefix_depth_verified == 3
    assert _levels_with_tables(ct) == []


def test_tower_measures_and_frame_checks_read_no_table():
    ct = build_tower(dyadic_ifs(), 5)
    truth = multiplication_pvm(ct, 4)
    swapped = swapped_diagonal_pvm(ct, 4)
    assert truth.same_frame(swapped)
    stepped = phi_step(ct, 5, swapped)
    assert stepped.same_frame(multiplication_pvm(ct, 5))
    assert prefix_atoms(ct, (1, 0), 5) == [f"10{i:03b}" for i in range(8)]
    assert _levels_with_tables(ct) == []
    # reading a distance builds no table; reading the table builds it once
    space = ct.level(5).space
    assert space.d(0, 1) == F(1, 32)
    assert _levels_with_tables(ct) == []
    assert space.dist is space.dist
    assert _levels_with_tables(ct) == [5]
    assert space.d(0, 1) is space.dist[0][1]


def test_a_level_is_freed_without_the_cycle_collector():
    # the function that builds the table holds the level's data, not the
    # level, so dropping the tower frees its levels by reference counting
    gc.disable()
    try:
        tower = build_tower(dyadic_ifs(), 3)
        space = tower.level(3).space
        level = weakref.ref(tower.level(3))
        del tower
        assert level() is None
        assert space.d(0, 1) == F(1, 8)
    finally:
        gc.enable()
