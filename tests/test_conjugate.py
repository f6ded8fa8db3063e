"""Unitary conjugates of frame PVMs, certified from the frame and u*u:
every bound against the defect validate_ovm measures on the same atoms,
and the certified route against the validate_ovm route, bit for bit, on
frames, perturbed conjugators and mutants the certificate cannot clear."""

import numpy as np
import pytest

from pvmk import ovm
from pvmk.fixed_point import phi_step, swapped_diagonal_pvm
from pvmk.ifs import build_tower, dyadic_ifs
from pvmk.linalg import spectral_norm
from pvmk.ovm import CONJUGATE_TOL, OperatorValuedMeasure, conjugate, diagonal_pvm
from pvmk.rng import SplitMix64
from pvmk.sampling import (
    random_metric_space,
    random_orthogonal,
    random_povm,
    random_pvm,
    random_truth_conjugate_pvm,
    random_unitary,
)
from oracles import measured_defects, strict_space, validated_conjugate


def _frames(rng):
    """Frame PVMs: random real and complex ones of d = 2..8, a truth
    conjugate, a diagonal PVM, and stepped frames of 2 and 4 copies."""
    frames = []
    for d in range(2, 9):
        for complex_ in (False, True):
            frames.append(random_pvm(random_metric_space(rng.randint(1, 8), rng), d, rng, complex_=complex_))
    space = random_metric_space(5, rng)
    frames += [random_truth_conjugate_pvm(space, rng), diagonal_pvm(space, [4, 0, 0, 2, 1, 3])]
    ct = build_tower(dyadic_ifs(), 3)
    seed = random_pvm(ct.level(1).space, 2, rng, complex_=True)
    two = phi_step(ct, 2, seed)
    frames += [two, phi_step(ct, 3, two), phi_step(ct, 3, swapped_diagonal_pvm(ct, 2))]
    return frames


def _perturbed(u, gap, rng):
    """u with its columns scaled so that u*u - I is diagonal with entries
    up to ``gap`` in size, the first of them ``gap``."""
    x = np.array([1.0] + [rng.uniform(-1.0, 1.0) for _ in range(len(u) - 1)])
    return u * np.sqrt(1 + gap * x)


def _conjugators(d, rng):
    us = [random_unitary(d, rng), random_orthogonal(d, rng)]
    return us + [_perturbed(u, gap, rng) for u in us for gap in (1e-12, 1e-11, 5e-11, 9e-11)]


def _panel():
    rng = SplitMix64(34)
    return [(F, u) for F in _frames(rng) for u in _conjugators(F.dim, rng)]


PANEL = _panel()


def _gram_defect(u):
    return np.linalg.norm(u.conj().T @ u - np.eye(len(u)))


def _outcome(route, F, u):
    """What a conjugate route gives: the error it raises, type and text, or
    the measure's kind, form and atom bits."""
    try:
        G = route(F, u)
    except Exception as error:
        return type(error), str(error)
    return G.kind, G.dense is not None, G.mats.flags.writeable, G.mats.dtype, G.mats.shape, G.mats.tobytes()


def test_the_panel_spans_the_stated_conjugators():
    assert len(PANEL) == 19 * 10
    gaps = [spectral_norm(u.conj().T @ u - np.eye(len(u))) for _, u in PANEL]
    assert max(gaps) < 1e-10 and sum(g > 8e-11 for g in gaps) == 2 * 19
    assert {F.dim for F, _ in PANEL} >= set(range(2, 9)) and any(F.is_diagonal for F, _ in PANEL)
    assert any(len(F.frame) < F.dim for F, _ in PANEL)


def test_every_certified_bound_is_at_least_the_measured_defect():
    for F, u in PANEL:
        bounds = ovm._conjugate_bounds(F, _gram_defect(u))
        mats = conjugate(F, u).mats
        n = F.space.n
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for check, defect in measured_defects(mats, pairs).items():
            assert defect <= bounds[check] <= CONJUGATE_TOL, (check, F.dim)


def test_the_certified_route_is_the_validate_ovm_route_on_the_panel():
    for F, u in PANEL:
        assert _outcome(conjugate, F, u) == _outcome(validated_conjugate, F, u)


def _mutants():
    """Frame forms the certificate cannot clear: frames off unitarity by
    1e-3 and by a NaN, built without ``frame_pvm``; and a 128-dimensional
    frame whose conjugator is within 1e-10 of unitary in norm but not in
    Frobenius norm, which the validate_ovm route accepts."""
    rng = SplitMix64(35)
    space = random_metric_space(4, rng)
    E = random_pvm(space, 6, rng, complex_=True)
    wide = OperatorValuedMeasure(space, None, "projection", E.assignment, E.frame * (1 + 1e-3))
    nan = E.frame.copy()
    nan[2, 3] = np.nan
    broken = OperatorValuedMeasure(space, None, "projection", E.assignment, nan)
    u = random_unitary(6, rng)
    big = random_pvm(space, 128, rng)
    v = random_unitary(128, rng) * np.sqrt(1 + 0.95e-10)
    return [(wide, u), (broken, u), (big, v)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mutants_the_certificate_cannot_clear_take_the_validate_ovm_route():
    outcomes = []
    for F, u in _mutants():
        bounds = ovm._conjugate_bounds(F, _gram_defect(u))
        assert not all(b <= CONJUGATE_TOL for b in bounds.values())
        outcomes.append(_outcome(conjugate, F, u))
        assert outcomes[-1] == _outcome(validated_conjugate, F, u)
    assert [o[0] for o in outcomes] == [ovm.NotIdempotent, ovm.NotHermitian, "projection"]


def _counting(monkeypatch):
    calls = []
    real = ovm.validate_ovm
    monkeypatch.setattr(ovm, "validate_ovm", lambda *args, **kw: calls.append(args[2]) or real(*args, **kw))
    return calls


def test_operator_rho_conjugates_never_reach_validate_ovm(monkeypatch):
    # the benchmark's conjugated pair: complex PVMs of d = 3 on strict 5-7
    # point spaces; a dense POVM on the same spaces is always validated
    rng = SplitMix64(36)
    cases = []
    for n in (5, 6, 7, 7):
        space = strict_space(n, rng)
        cases.append((random_pvm(space, 3, rng, complex_=True), random_povm(space, 4, rng)))
        cases[-1] += (random_unitary(3, rng), random_unitary(4, rng))
    calls = _counting(monkeypatch)
    for pvm, _, u, _ in cases:
        conjugate(pvm, u)
    assert calls == []
    for _, povm, _, v in cases:
        assert conjugate(povm, v).kind == "positive"
    assert calls == ["positive"] * len(cases)
