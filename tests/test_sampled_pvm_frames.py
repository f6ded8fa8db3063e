"""Sampled PVMs stored as a unitary frame U and an assignment: the U* U
certificate against the defects validate_ovm measures on the built atoms,
and every step, score, cylinder check and integral of the frame form
against a dense copy of the same atoms."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pvmk import ovm
from pvmk.cli import run
from pvmk.cuntz import multiplication_pvm
from pvmk.errors import FrameTooLarge, MismatchedMeasures, NotUnitary, StackTooLarge
from pvmk.fixed_point import (
    _cylinder_identities,
    _verify_prefixes,
    phi_iterate,
    phi_step,
    verify_fixed_point,
)
from pvmk.ifs import build_tower, dyadic_ifs, triadic_ifs
from pvmk.ovm import (
    OperatorValuedMeasure,
    check_frame_size,
    frame_defect_bounds,
    frame_pvm,
    integrate,
    rho_assignments,
    scalar_measure,
    validate_ovm,
)
from pvmk.rng import SplitMix64
from pvmk.sampling import (
    random_metric_space,
    random_orthogonal,
    random_pvm,
    random_truth_conjugate_pvm,
    random_unitary,
)
from oracles import measured_defects


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dense_copy(E):
    return OperatorValuedMeasure(E.space, E.mats.copy(), E.kind)


def _panel():
    rng = SplitMix64(2024)
    for t in range(40):
        n, d = rng.randint(1, 8), rng.randint(1, 8)
        yield random_pvm(random_metric_space(n, rng), d, rng, complex_=t % 2 == 1)


def test_the_certificate_bounds_every_defect_of_the_built_atoms():
    for E in _panel():
        assert E.frame is not None and E.dense is None and not E.is_exact
        n = E.space.n
        validate_ovm(E.space, E.mats, "projection")
        bounds = frame_defect_bounds(E.frame, E.assignment)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for check, defect in measured_defects(E.mats, pairs).items():
            assert defect <= bounds[check] <= ovm.DEFAULT_TOL


def test_the_dyadic_depth_8_seed_is_certified_without_a_stack():
    tower = build_tower(dyadic_ifs(), 8)
    E = random_pvm(tower.level(8).space, tower.dim(8), SplitMix64(0))
    assert "mats" not in vars(E)
    validate_ovm(E.space, E.mats, "projection")
    bounds = frame_defect_bounds(E.frame, E.assignment)
    rng = SplitMix64(8)
    pairs = [tuple(rng.distinct_indices(256, 2)) for _ in range(200)]
    for check, defect in measured_defects(E.mats, pairs).items():
        assert defect <= bounds[check] <= ovm.DEFAULT_TOL


def _bad_frames(u):
    scaled = u.copy()
    scaled[:, 1] *= 1 + 1e-6
    twice = u.copy()
    twice[:, 2] = twice[:, 0]
    nan = u.copy()
    nan[3, 1] = np.nan
    return {"scaled column": scaled, "equal columns": twice, "NaN entry": nan}


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_a_frame_that_is_not_unitary_is_refused(complex_):
    rng = SplitMix64(5)
    space = random_metric_space(3, rng)
    u = random_unitary(5, rng) if complex_ else random_orthogonal(5, rng)
    assignment = [0, 2, 1, 2, 0]
    frame_pvm(space, u, assignment)
    for bad in _bad_frames(u).values():
        with pytest.raises(NotUnitary):
            frame_pvm(space, bad, assignment)
    with pytest.raises(MismatchedMeasures, match="names no atom"):
        frame_pvm(space, u, [0, 3, 1, 2, 0])
    with pytest.raises(MismatchedMeasures, match="frame must be square"):
        frame_pvm(space, u[:, :4], assignment)


def test_a_frame_too_large_to_certify_is_refused_before_it_is_drawn(capsys):
    # the bounds' own rounding terms pass 1e-10 from d = 670 on
    check_frame_size(669)
    with pytest.raises(FrameTooLarge, match="a 670 x 670 frame cannot be certified"):
        check_frame_size(670)
    rng = SplitMix64(1)
    with pytest.raises(FrameTooLarge):
        random_pvm(random_metric_space(2, SplitMix64(0)), 670, rng)
    assert rng._state == SplitMix64(1)._state
    with pytest.raises(FrameTooLarge):
        frame_pvm(random_metric_space(2, SplitMix64(0)), np.eye(670), np.zeros(670, dtype=int))
    ifs = Path(__file__).resolve().parents[1] / "sample_inputs" / "dyadic_ifs.json"
    argv = ["phi-iterate", "--ifs", str(ifs), "--depth", "10", "--steps", "0", "--seed-kind", "random-pvm"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: a 1024 x 1024 frame cannot be certified")
    assert captured.err.count("\n") == 1


def test_truth_conjugates_are_frames_with_the_outer_product_atoms():
    # column j's atom was np.outer(u[:, j], u[:, j]); the frame forms
    # u[:, [j]] @ u[:, [j]].T, the same bits
    for seed in range(40):
        space = random_metric_space(1 + seed % 8, SplitMix64(seed))
        E = random_truth_conjugate_pvm(space, SplitMix64(seed))
        u = random_orthogonal(space.n, SplitMix64(seed))
        assert E.dense is None and E.assignment.tolist() == list(range(space.n))
        assert bitwise_equal(E.mats, np.array([np.outer(u[:, j], u[:, j]) for j in range(space.n)]))


def test_the_frame_and_assignment_are_copies_and_read_only():
    rng = SplitMix64(6)
    space = random_metric_space(2, rng)
    u = random_orthogonal(3, rng)
    assignment = [1, 0, 1]
    E = frame_pvm(space, u, assignment)
    u[0, 0] = 7.0
    assignment[0] = 0
    assert E.frame[0, 0] != 7.0 and E.assignment.tolist() == [1, 0, 1]
    assert not E.frame.flags.writeable and not E.assignment.flags.writeable
    assert not E.mats.flags.writeable


def _chains(ct, depth, seed):
    """A random_pvm seed at every level below depth, as a frame and as a
    dense copy of its atoms, stepped side by side to the top."""
    rng = SplitMix64(seed)
    for s in range(depth):
        E = random_pvm(ct.level(s).space, ct.dim(s), rng, complex_=s % 2 == 1)
        yield s, E, dense_copy(E)


@pytest.mark.parametrize("ifs, depth", [(dyadic_ifs(), 6), (triadic_ifs(), 4)], ids=["dyadic", "triadic"])
def test_stepped_frames_are_the_dense_placement(ifs, depth):
    ct = build_tower(ifs, depth)
    for s, E, D in _chains(ct, depth, 31):
        for k in range(s + 1, depth + 1):
            E, D = phi_step(ct, k, E), phi_step(ct, k, D)
            assert E.frame is not None and E.dense is None and len(E.assignment) == ct.dim(k)
            assert bitwise_equal(E.mats, D.mats)
            assert _verify_prefixes(ct, E, k, k) == _verify_prefixes(ct, D, k, k)
            assert [holds.tolist() for _, holds in _cylinder_identities(ct, E, k, k)] == [
                holds.tolist() for _, holds in _cylinder_identities(ct, D, k, k)
            ]


@pytest.mark.parametrize("ifs, depth", [(dyadic_ifs(), 6), (triadic_ifs(), 4)], ids=["dyadic", "triadic"])
def test_phi_iterate_on_a_frame_seed_is_the_dense_run(ifs, depth):
    ct = build_tower(ifs, depth)
    for s, E, D in _chains(ct, depth, 37):
        frame_run, dense_run = phi_iterate(ct, E, depth - s), phi_iterate(ct, D, depth - s)
        assert frame_run.records == dense_run.records
        assert frame_run.prefix_depth_verified == dense_run.prefix_depth_verified == depth - s
        assert frame_run.final.frame is not None


def test_a_cylinder_check_reads_no_atoms_when_it_covers_whole_copies(monkeypatch):
    ct = build_tower(dyadic_ifs(), 6)
    E = random_pvm(ct.level(2).space, 4, SplitMix64(3))
    for k in range(3, 7):
        E = phi_step(ct, k, E)
    monkeypatch.setattr(ovm, "_frame_stack", _refuse)
    assert _verify_prefixes(ct, E, 6, 4) == 4
    with pytest.raises(AssertionError, match="stack built"):
        _verify_prefixes(ct, E, 6, 5)


def test_a_frame_that_does_not_sum_to_the_identity_fails_its_cylinders():
    # built past frame_pvm: copies of U U* != I fail every cylinder of
    # whole copies, as the dense copy's sums do, for a float U and for an
    # exact one, whose sum is checked exactly
    ct = build_tower(dyadic_ifs(), 4)
    sheared = np.eye(4, dtype=np.int64)
    sheared[0, 1] = 1
    for u in (random_orthogonal(4, SplitMix64(9)) * (1 + 1e-8), sheared):
        E = OperatorValuedMeasure(ct.level(2).space, None, "projection", np.arange(4), u)
        for k in (3, 4):
            E = phi_step(ct, k, E)
        D = dense_copy(E)
        assert E.is_exact == D.is_exact == (u.dtype == np.int64)
        verdicts = [holds.tolist() for _, holds in _cylinder_identities(ct, E, 4, 4)]
        assert verdicts == [holds.tolist() for _, holds in _cylinder_identities(ct, D, 4, 4)]
        assert not any(verdicts[0]) and _verify_prefixes(ct, E, 4, 2) == 0


def test_verify_fixed_point_compares_a_frame_candidate_by_its_atoms():
    # the candidate has the truth's assignment but a turned frame
    ct = build_tower(dyadic_ifs(), 3)
    space = ct.level(3).space
    truth = multiplication_pvm(ct, 3)
    turned = frame_pvm(space, random_orthogonal(8, SplitMix64(4)), truth.assignment)
    report = verify_fixed_point(ct, turned)
    assert report == verify_fixed_point(ct, dense_copy(turned))
    assert not report.rederived_match and not report.passed
    identity = frame_pvm(space, np.eye(8), truth.assignment)
    assert verify_fixed_point(ct, identity).passed


def test_integrals_of_a_frame_are_the_dense_copys():
    rng = SplitMix64(12)
    for E in list(_panel())[:12]:
        D = dense_copy(E)
        n, d = E.space.n, E.dim
        psi = rng.gausses(2 * n * 3).view(np.complex128).reshape(3, n)
        assert bitwise_equal(integrate(psi, E), integrate(psi, D))
        exact = [k - 1 for k in range(n)]
        assert bitwise_equal(integrate(exact, E), integrate(exact, D))
        g, h = (rng.gausses(2 * d).view(np.complex128) for _ in range(2))
        assert bitwise_equal(scalar_measure(E, g, h), scalar_measure(D, g, h))


def test_rho_assignments_refuses_a_frame():
    ct = build_tower(dyadic_ifs(), 2)
    truth = multiplication_pvm(ct, 2)
    E = frame_pvm(truth.space, np.eye(4), truth.assignment)
    for pair in ((E, truth), (truth, E)):
        with pytest.raises(MismatchedMeasures, match="0/1 diagonal"):
            rho_assignments(*pair)


def test_reading_the_atoms_of_a_large_frame_is_refused(monkeypatch):
    tower = build_tower(dyadic_ifs(), 6)
    E = random_pvm(tower.level(6).space, tower.dim(6), SplitMix64(0))
    monkeypatch.setattr(ovm, "STACK_BYTES_BUDGET", 1 << 20)
    with pytest.raises(StackTooLarge) as refused:
        E.mats
    assert str(refused.value) == "an atom stack of shape (64, 64, 64) needs 2097152 bytes, budget is 1048576"


def test_frame_stack_peak_stays_under_its_stated_factor():
    # beside its check_stack_budget call, _frame_stack states a peak of 1
    # stack plus one atom's columns and their d_s x d_s product: a frame of
    # d_s = 64 on the dyadic level 6 (64 atoms, 2 MiB, and a 32 KiB product)
    # and one of d_s = 8 stepped to it, in 8 copies (complex, 4 MiB)
    ct = build_tower(dyadic_ifs(), 6)
    stepped = random_pvm(ct.level(3).space, 8, SplitMix64(6), complex_=True)
    for k in range(4, 7):
        stepped = phi_step(ct, k, stepped)
    for E, d_s in ((random_pvm(ct.level(6).space, 64, SplitMix64(6)), 64), (stepped, 8)):
        stack = 64 * 64 * 64 * E.frame.itemsize
        tracemalloc.start()
        try:
            E.mats
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert E.mats.nbytes == stack
        assert stack <= peak <= stack + 2 * d_s * d_s * E.frame.itemsize + 16 * 1024


def _refuse(*args):
    raise AssertionError("stack built")


def test_a_depth_12_random_pvm_run_builds_no_stack_above_8_atoms(capsys, monkeypatch):
    for name in ("_frame_stack", "_tiled_stack"):
        real = getattr(ovm, name)
        monkeypatch.setattr(ovm, name, lambda n, *rest, real=real: _refuse() if n > 8 else real(n, *rest))
    ifs = Path(__file__).resolve().parents[1] / "sample_inputs" / "dyadic_ifs.json"
    argv = ["phi-iterate", "--ifs", str(ifs), "--depth", "12", "--steps", "9", "--seed-kind", "random-pvm"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert '"prefix_depth_verified":9' in captured.out
