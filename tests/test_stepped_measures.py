"""Stepped measures: every contraction step stores I_N (x) E without
building it.  Dense chains of random POVM and PVM seeds, and a seed whose
atoms do not sum to I, give bit for bit the atoms of the dense placement,
and the cylinder checks of a dense copy; a deep POVM run builds no stack
above 8 atoms."""

import json
from pathlib import Path

import numpy as np
import pytest

from pvmk import ovm, sampling
from pvmk.cli import run
from pvmk.cuntz import multiplication_pvm
from pvmk.fixed_point import _cylinder_identities, _verify_prefixes, phi_step, verify_fixed_point
from pvmk.ifs import build_tower, dyadic_ifs, triadic_ifs
from pvmk.ovm import OperatorValuedMeasure
from pvmk.rng import SplitMix64
from pvmk.sampling import random_povm, random_pvm
from oracles import placed_step


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dense_copy(E):
    return OperatorValuedMeasure(E.space, E.mats.copy(), E.kind)


def _seeds(ct, s, rng):
    """Dense seeds at level s: a random POVM, the atoms of a random PVM,
    and the truth with atom 0 shifted by 1e-6 I.  The shifted atoms sum to
    1.000001 I, and of the truth's blocks inside a copy only those holding
    atom 0 fail, so the seed's verdicts differ from block to block."""
    space, d = ct.level(s).space, ct.dim(s)
    shifted = multiplication_pvm(ct, s).mats + 1e-6 * (np.arange(d) == 0)[:, None, None] * np.eye(d)
    return {
        "random-povm": random_povm(space, d, rng),
        "random-pvm": dense_copy(random_pvm(space, d, rng)),
        "shifted": OperatorValuedMeasure(space, shifted, "positive"),
    }


def _per_word(ct, identities):
    return [(t, word, bool(h)) for t, holds in identities for word, h in zip(ct.level(t).words, holds, strict=True)]


@pytest.mark.parametrize("ifs, depth", [(dyadic_ifs(), 6), (triadic_ifs(), 4)], ids=["dyadic", "triadic"])
def test_stepped_dense_chains_are_the_dense_placement(ifs, depth):
    rng = SplitMix64(30)
    chains = failing = 0
    for K in range(1, depth + 1):
        ct = build_tower(ifs, K)
        for s in range(K):
            for kind, E in _seeds(ct, s, rng).items():
                placed = E
                for k in range(s + 1, K + 1):
                    E, placed = phi_step(ct, k, E), placed_step(ct, k, placed)
                    assert E.dense is not None and "mats" not in vars(E)
                    assert E.dim == placed.dim
                assert bitwise_equal(E.mats, placed.mats), (kind, K, s)
                assert not E.mats.flags.writeable
                D = dense_copy(E)
                got = _per_word(ct, _cylinder_identities(ct, E, K, K))
                assert got == _per_word(ct, _cylinder_identities(ct, D, K, K)), (kind, K, s)
                report = verify_fixed_point(ct, E)
                assert report == verify_fixed_point(ct, D)
                prefixes = _verify_prefixes(ct, E, K, K)
                assert prefixes == _verify_prefixes(ct, D, K, K)
                chains += 1
                failing += bool(report.offending_words)
                if kind == "shifted":
                    # the whole space is a block of whole copies
                    assert not report.passed and not got[0][2]
                else:
                    assert prefixes >= K - s
    assert chains == 3 * depth * (depth + 1) // 2
    # every chain from a level above 0 fails its atoms, as do all shifted ones
    assert failing == chains - 2 * depth


def test_a_stepped_seed_is_checked_once_per_walk(monkeypatch):
    # a dyadic level-3 POVM stepped to level 9: the seed's own sum is formed
    # once for the six whole-copy widths, and the tiled stack is never built
    ct = build_tower(dyadic_ifs(), 9)
    E = random_povm(ct.level(3).space, 8, SplitMix64(4))
    for k in range(4, 10):
        E = phi_step(ct, k, E)
    calls = []
    real = ovm._block_holds
    monkeypatch.setattr(ovm, "_block_holds", lambda stack, w, exact: calls.append((len(stack), w)) or real(stack, w, exact))
    monkeypatch.setattr(ovm, "_tiled_stack", lambda *args: pytest.fail("stack built"))
    assert _verify_prefixes(ct, E, 9, 6) == 6
    assert calls == [(8, 8)]
    assert [h.size for _, h in _cylinder_identities(ct, E, 9, 9)] == [2**t for t in range(10)]
    assert calls[1:] == [(8, 8), (8, 4), (8, 2), (8, 1)]


def _refuse(*args):
    raise AssertionError("stack built")


def test_a_depth_12_random_povm_run_builds_no_stack_above_8_atoms(capsys, monkeypatch):
    for module, name in ((ovm, "_frame_stack"), (ovm, "_tiled_stack"), (sampling, "check_stack_budget")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda n, *rest, real=real: _refuse() if n > 8 else real(n, *rest))
    ifs = Path(__file__).resolve().parents[1] / "sample_inputs" / "dyadic_ifs.json"
    argv = ["phi-iterate", "--ifs", str(ifs), "--depth", "12", "--steps", "9", "--seed-kind", "random-povm"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "pass" and report["results"]["prefix_depth_verified"] == 9

