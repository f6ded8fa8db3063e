"""The pruned first maximum of a stack's spectral norms, and the float tail
of rho's vertex and grid routes built on it, against the full route."""

from fractions import Fraction

import numpy as np
import pytest

from pvmk import linalg, rho
from pvmk.linalg import max_spectral_norm, spectral_norms_stack
from pvmk.metric_core import lip1_vertices, validate_space
from pvmk.ovm import conjugate, validate_ovm
from pvmk.rho import _difference_stack, rho_exact, rho_lower_grid
from pvmk.rng import SplitMix64
from pvmk.sampling import random_povm, random_pvm, random_unitary
from oracles import complex_differences, full_route_rho, strict_space

F = Fraction


def _exact_povm(space, rng, sign):
    """A positive measure with exact non-diagonal 2x2 atoms: atoms 2b and
    2b + 1 are w_b [[1, s/2], [s/2, 1]] with s = -sign and sign, so each
    pair sums to 2 w_b I, and the weights are scaled to sum to 1/2."""
    weights = [F(rng.randint(1, 4)) for _ in range(space.n // 2)]
    total = 2 * sum(weights)
    mats = [np.zeros((2, 2), dtype=object) + F(0)] * space.n
    for b, w in enumerate(weights):
        for s, a in ((-sign, 2 * b), (sign, 2 * b + 1)):
            mats[a] = np.array([[w, s * w / 2], [s * w / 2, w]], dtype=object) / total
    return validate_ovm(space, mats, "positive")


def _panel():
    """Operator-rho-shaped pairs on strict 5-7 point spaces, plus exact and
    mixed pairs, which also leave the float tail real."""
    rng = SplitMix64(101)
    cases = []
    for n in (5, 6, 7):
        for t in range(2):
            space = strict_space(n, rng)
            e, f = (random_pvm(space, 3, rng, complex_=True) for _ in range(2))
            u = random_unitary(3, rng)
            pairs = {
                "real-pvm": (random_pvm(space, 6, rng), random_pvm(space, 6, rng)),
                "complex-pvm": (e, f),
                "povm": (random_povm(space, 4, rng), random_povm(space, 4, rng)),
                "conjugated": (conjugate(e, u), conjugate(f, u)),
            }
            cases += [(f"n{n}-{t}-{name}", space, pair) for name, pair in pairs.items()]
        g, h = _exact_povm(space, rng, 1), _exact_povm(space, rng, -1)
        cases.append((f"n{n}-exact-povm", space, (g, h)))
        p = random_povm(space, 2, rng)
        cases.append((f"n{n}-exact-float", space, (g, p)))
        cases.append((f"n{n}-equal", space, (p, p)))
    one = validate_space([[0]])
    cases.append(("one-point", one, (random_povm(one, 3, rng), random_povm(one, 3, rng))))
    return cases


PANEL = _panel()
IDS = [case[0] for case in PANEL]


def _tails(monkeypatch, space, e, f):
    """Run rho_exact and rho_lower_grid on both orders of the pair, and
    return (phis, E, F, result, witness) for every float tail they ran."""
    seen = []
    best_float = rho._best_float

    def recording(phis, deltas, witness, method):
        res = best_float(phis, deltas, witness, method)
        seen.append((phis, res, witness))
        return res

    monkeypatch.setattr(rho, "_best_float", recording)
    verts = lip1_vertices(space)
    tails = []
    for a, b in ((e, f), (f, e)):
        for run in (lambda: rho_exact(space, a, b, verts), lambda: rho_lower_grid(space, a, b, 48, seed=space.n)):
            before = len(seen)
            res = run()
            if len(seen) > before:
                phis, tail, witness = seen[-1]
                assert tail is res
                tails.append((phis, a, b, res, witness))
    return tails


def _objective(phis, e, f):
    deltas = _difference_stack(e, f)[0]
    if linalg.is_exact_dtype(deltas.dtype):
        deltas = deltas.astype(np.float64)
    return linalg._hermitian_stack(np.tensordot(phis, deltas, axes=(1, 0)))


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("space, pair", [case[1:] for case in PANEL], ids=IDS)
def test_float_tails_match_the_full_route(monkeypatch, space, pair):
    tails = _tails(monkeypatch, space, *pair)
    assert len(tails) == 4
    for phis, e, f, res, witness in tails:
        i, value, vec = full_route_rho(phis, e, f)
        assert _bits(res.value) == _bits(value)
        assert res.witness_phi == witness(i)
        assert res.witness_vector.dtype == vec.dtype and _bits(res.witness_vector) == _bits(vec)


@pytest.mark.parametrize("space, pair", [case[1:] for case in PANEL], ids=IDS)
def test_real_differences_are_the_complex_ones_real_parts(space, pair):
    e, f = pair
    deltas = _difference_stack(e, f)[0]
    if np.iscomplexobj(deltas):
        return
    cdeltas = complex_differences(e, f)
    real = deltas.astype(np.float64)
    assert not cdeltas.imag.any()
    assert _bits(real) == _bits(np.ascontiguousarray(cdeltas.real))
    # The real and the complex product sum the same terms, but through
    # different BLAS kernels, whose summation order may differ: they agree
    # to a few ulps of the sum of the terms' moduli.
    phis = lip1_vertices(space).half_floats
    gap = np.abs(np.tensordot(phis, real, axes=(1, 0)) - np.tensordot(phis, cdeltas, axes=(1, 0)).real)
    scale = np.tensordot(np.abs(phis), np.abs(real), axes=(1, 0))
    assert (gap <= 4 * len(phis[0]) * np.finfo(float).eps * scale).all()


def _panel_stacks(monkeypatch):
    stacks = []
    for _, space, pair in PANEL:
        for phis, e, f, _, _ in _tails(monkeypatch, space, *pair):
            stacks.append(_objective(phis, e, f))
    return stacks


def test_bounds_hold_on_every_row_of_the_panel(monkeypatch):
    for stack in _panel_stacks(monkeypatch):
        for scale in (1.0, 1e-150, 1e150):
            scaled = stack * scale
            bound = linalg._norm_bounds(scaled) * (1 + linalg.NORM_BOUND_SLACK)
            assert (bound >= spectral_norms_stack(scaled)).all()


def _full(stack):
    norms = spectral_norms_stack(stack)
    i = int(np.argmax(norms))
    return i, norms[i]


def _assert_first_max(stack):
    i, value = max_spectral_norm(stack)
    j, expected = _full(stack)
    assert i == j and type(value) is float and _bits(value) == _bits(expected)


def test_scaled_panel_stacks_keep_the_first_maximum(monkeypatch):
    for stack in _panel_stacks(monkeypatch):
        for scale in (1e-150, 1e150):
            _assert_first_max(stack * scale)


def test_far_fewer_rows_are_solved_than_the_stacks_hold(monkeypatch):
    stacks = _panel_stacks(monkeypatch)
    solved = []
    norms = linalg._norms
    monkeypatch.setattr(linalg, "_norms", lambda stack: solved.append(len(stack)) or norms(stack))
    for stack in stacks:
        max_spectral_norm(stack)
    # The equal pairs give all-zero stacks, and those stop after one chunk too.
    assert len(solved) < 2 * len(stacks)
    assert sum(solved) * 8 < sum(len(stack) for stack in stacks)


def test_an_all_zero_stack_is_row_zero_after_one_chunk(monkeypatch):
    solved = []
    norms = linalg._norms
    monkeypatch.setattr(linalg, "_norms", lambda stack: solved.append(len(stack)) or norms(stack))
    for dtype in (np.float64, np.complex128):
        assert max_spectral_norm(np.zeros((50, 3, 3), dtype=dtype)) == (0, 0.0)
    assert solved == [linalg.NORM_BOUND_FIRST_CHUNK] * 2


def test_tied_norms_keep_the_first_index():
    # Every norm is 3 exactly (diagonal matrices are solved exactly), but
    # the later rows have larger bounds and are solved first.
    rows = [np.diag([3.0, 0.0, 0.0]), np.diag([-3.0, 1.0, 0.0]), np.diag([3.0, 2.9, -2.9])]
    for stack in (np.array(rows), np.array(rows[::-1]), np.array([rows[2]] * 9 + rows)):
        _assert_first_max(stack)
    assert max_spectral_norm(np.array(rows)) == (0, 3.0)
    complex_rows = np.array(rows, dtype=np.complex128)
    complex_rows[1, 0, 1], complex_rows[1, 1, 0] = 1e-300j, -1e-300j
    _assert_first_max(complex_rows)


def test_unbounded_rows_are_solved():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 4, 4))
    a = a + a.transpose(0, 2, 1)
    # f2 overflows, f2 underflows to 0 and to a subnormal, a zero row: the
    # bound of the first three is inf
    odd = np.concatenate([a[:2] * 1e200, a[2:4] * 1e-170, a[4:6] * 1e-158, 0 * a[6:7], a[7:]])
    bound = linalg._norm_bounds(odd)
    assert np.isinf(bound[:6]).all() and bound[6] == 0.0 and np.isfinite(bound[7:]).all()
    _assert_first_max(odd)
    _assert_first_max(np.concatenate([a[7:], a[:2] * 1e-170]))
    # past the largest bounded order every row is solved
    big = rng.standard_normal((6, 17, 17)) + 1j * rng.standard_normal((6, 17, 17))
    big = big + big.conj().transpose(0, 2, 1)
    assert np.isinf(linalg._norm_bounds(big)).all()
    _assert_first_max(big)


def test_the_lower_triangle_is_what_is_bounded():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((30, 5, 5)) + 1j * rng.standard_normal((30, 5, 5))
    lower = np.tril(a)
    herm = lower + np.tril(a, -1).conj().transpose(0, 2, 1)
    herm[:, range(5), range(5)] = herm[:, range(5), range(5)].real
    # the upper triangle and the diagonal's imaginary part are not read
    assert _bits(linalg._norm_bounds(a)) == _bits(linalg._norm_bounds(herm))
    assert _bits(spectral_norms_stack(a)) == _bits(spectral_norms_stack(herm))
    _assert_first_max(a)
