"""validate_ovm's whole-stack checks against the per-atom and pairwise loop
they replaced; the block-drawn samplers against per-draw references; and
conjugate against its per-atom products."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import pvmk.ovm as ovm_module
import pvmk.sampling as sampling_module
from pvmk import linalg
from pvmk.errors import (
    CrossProductNonzero,
    NotHermitian,
    NotIdempotent,
    NotPSD,
    NotUnitary,
    SumNotIdentity,
)
from pvmk.ifs import build_tower, dyadic_ifs
from pvmk.metric_core import validate_space
from pvmk.ovm import DEFAULT_TOL, conjugate, diagonal_pvm, validate_ovm
from pvmk.rng import SplitMix64
from pvmk.sampling import (
    random_metric_space,
    random_orthogonal,
    random_povm,
    random_pvm,
    random_unitary,
)

F = Fraction


# ---------------------------------------------------------------- the oracle


def loop_check(space, mats, kind, tol=DEFAULT_TOL):
    """The check validate_ovm replaced, one atom and one pair at a time:
    the error it raises first, or None."""
    mats = [np.asarray(m) for m in mats]
    floats = [m.dtype for m in mats if not linalg.is_exact_matrix(m)]
    dtype = np.result_type(np.float64, *floats) if floats else None
    stack = np.stack(mats, dtype=dtype, casting="unsafe")
    exact = not floats
    ids = space.point_ids

    def fails(x):
        return (x != 0) if exact else (x > tol)

    for aid, m in zip(ids, stack):
        c = m if m.dtype == object else linalg.to_complex(m)
        h = linalg.max_abs(c - c.conj().T)
        if fails(h):
            return NotHermitian(aid, h)
    if kind == "projection":
        for aid, m in zip(ids, stack):
            defect = linalg.max_abs(np.dot(m, m) - m)
            if fails(defect):
                return NotIdempotent(aid, defect)
        for i in range(len(stack)):
            for j in range(i + 1, len(stack)):
                defect = linalg.max_abs(np.dot(stack[i], stack[j]))
                if fails(defect):
                    return CrossProductNonzero(ids[i], ids[j], defect)
    else:
        for aid, m in zip(ids, stack):
            c = linalg.to_complex(m)[None]
            min_eig = float(np.linalg.eigvalsh(c if c.imag.any() else c.real)[0, 0])
            if min_eig < -tol:
                return NotPSD(aid, min_eig)
    dim = stack.shape[1]
    eye = np.eye(dim, dtype=np.int64) if exact else np.eye(dim)
    defect = linalg.max_abs(stack.sum(axis=0) - eye)
    if fails(defect):
        return SumNotIdentity(defect)
    return None


def same_verdict(space, mats, kind, tol=DEFAULT_TOL):
    """Assert validate_ovm raises what the loop raises (type, message, atom
    ids and defect), or passes where it passes; return the loop's error."""
    want = loop_check(space, mats, kind, tol)
    if want is None:
        E = validate_ovm(space, mats, kind, tol)
        assert np.array_equal(E.mats, np.array([np.asarray(m) for m in mats], dtype=E.mats.dtype))
        return None
    with pytest.raises(type(want)) as got:
        validate_ovm(space, mats, kind, tol)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)
    assert vars(got.value) == vars(want)
    return want


def space_of(n, seed=0):
    return random_metric_space(n, SplitMix64(seed))


def pair_defects(mats):
    return {
        (i, j): linalg.max_abs(np.dot(mats[i], mats[j]))
        for i in range(len(mats))
        for j in range(len(mats))
        if i != j
    }


# ---------------------------------------------------------------- random panel


def _random_measure(rng, kind, complex_):
    n, d = rng.randint(1, 8), rng.randint(1, 8)
    space = random_metric_space(n, rng)
    if kind == "projection":
        mats = np.array(random_pvm(space, d, rng, complex_).mats)
    else:
        mats = np.array(random_povm(space, d, rng).mats)
        if complex_:
            u = random_unitary(d, rng)
            mats = u @ mats @ u.conj().T
            mats = (mats + mats.conj().transpose(0, 2, 1)) / 2
    return space, mats


def _mutant(rng, mats):
    """One atom moved by a random amount: a non-Hermitian or a Hermitian
    push, or a rotation, of size 1e-13 up to 1e-3."""
    mats = mats.copy()
    n, d = mats.shape[:2]
    a = rng.randint(0, n - 1)
    size = [1e-13, 3e-11, 1e-10, 2e-10, 1e-8, 1e-3][rng.randint(0, 5)]
    push = rng.gausses(d * d).reshape(d, d) * size
    how = rng.randint(0, 2)
    if how == 0:
        mats[a] = mats[a] + push
    elif how == 1:
        mats[a] = mats[a] + (push + push.T) / 2
    else:
        rot = random_orthogonal(d, rng)
        step = np.eye(d) + size * (rot - rot.T)
        q, r = np.linalg.qr(step)
        q = q * np.sign(np.diag(r))[None, :]
        mats[a] = q @ mats[a] @ q.conj().T
    return mats


@pytest.mark.parametrize("kind", ["projection", "positive"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_random_measures_and_their_mutants_match_the_loop(kind, complex_):
    rng = SplitMix64(2501 + 2 * complex_ + (kind == "positive"))
    verdicts = set()
    for _ in range(60):
        space, mats = _random_measure(rng, kind, complex_)
        assert same_verdict(space, mats, kind) is None
        for _ in range(3):
            err = same_verdict(space, _mutant(rng, mats), kind)
            verdicts.add(type(err).__name__)
    assert len(verdicts) >= 3, verdicts


@pytest.mark.parametrize("entries", [1, 20, 1 << 16])
def test_blocks_of_any_size_give_the_loop_verdicts(monkeypatch, entries):
    monkeypatch.setattr(ovm_module, "BLOCK_ENTRIES", entries)
    rng = SplitMix64(77)
    for trial in range(40):
        kind = ["projection", "positive"][trial % 2]
        space, mats = _random_measure(rng, kind, bool(trial % 3))
        same_verdict(space, mats, kind)
        same_verdict(space, _mutant(rng, mats), kind)


# ---------------------------------------------------------------- named cases


def test_rank_zero_atoms():
    space = space_of(3)
    zero = np.zeros((2, 2))
    assert same_verdict(space, [np.diag([1.0, 0.0]), zero, np.diag([0.0, 1.0])], "projection") is None
    exact = [np.diag([1, 0]), np.zeros((2, 2), dtype=np.int64), np.diag([0, 1])]
    assert same_verdict(space, exact, "projection") is None
    assert same_verdict(space, [zero, zero, np.eye(2)], "positive") is None


def _rotated_pair(target):
    """Atoms e(t) e(t)^T, e2 e2^T and e3 e3^T with e(t) = (cos t, sin t, 0)
    turned so that the loop's first cross product, cos t sin t, is target."""
    t = np.arcsin(2 * target) / 2
    v = np.array([np.cos(t), np.sin(t), 0.0])
    return [np.outer(v, v), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]


@pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3], ids=["under", "over"])
def test_an_atom_rotated_just_under_or_over_the_tolerance(side):
    space = space_of(3)
    mats = _rotated_pair(DEFAULT_TOL * side)
    first = linalg.max_abs(np.dot(mats[0], mats[1]))
    assert (first > DEFAULT_TOL) == (side > 1)
    err = same_verdict(space, mats, "projection")
    assert isinstance(err, CrossProductNonzero) == (side > 1)


def test_two_overlapping_atoms():
    space = space_of(4)
    p = np.diag([1.0, 0.0, 0.0])
    mats = [np.diag([0.0, 1.0, 0.0]), p, np.diag([0.0, 0.0, 1.0]), p]
    err = same_verdict(space, mats, "projection")
    assert isinstance(err, CrossProductNonzero) and err.atoms == space.point_ids[1::2]
    exact = [np.asarray(m, dtype=np.int64) for m in mats]
    err = same_verdict(space, exact, "projection")
    assert isinstance(err, CrossProductNonzero) and err.atoms == space.point_ids[1::2]


def test_more_frame_vectors_than_the_dimension_clear_no_pair():
    stack = np.array([np.eye(2), np.eye(2)])
    err = same_verdict(space_of(2), stack, "projection")
    assert isinstance(err, CrossProductNonzero)


HALF = np.array([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], dtype=object)


@pytest.mark.parametrize(
    "mats, error",
    [
        ([np.diag([1, 0]), np.diag([1, 0])], CrossProductNonzero),
        ([HALF, np.array([[F(1), 0], [0, 0]], dtype=object)], CrossProductNonzero),
        ([np.diag([1, 0]), np.zeros((2, 2), dtype=np.int64)], SumNotIdentity),
        ([HALF, np.zeros((2, 2), dtype=object)], SumNotIdentity),
    ],
    ids=["int-cross", "fraction-cross", "int-no-cross", "fraction-no-cross"],
)
def test_exact_atoms_whose_sum_is_wrong(mats, error):
    assert isinstance(same_verdict(space_of(2), mats, "projection"), error)


def test_exact_cross_products_are_found_past_the_first_pair():
    space = space_of(4)
    e = [np.diag(row) for row in np.eye(3, dtype=np.int64)]
    mats = [e[0], e[1], e[2], e[1]]  # atoms 1 and 3 overlap; 0 and 2 are clean
    err = same_verdict(space, mats, "projection")
    assert isinstance(err, CrossProductNonzero) and err.atoms == (space.point_ids[1], space.point_ids[3])
    stack = np.array(mats)
    pairs = ovm_module._unsettled_pairs(stack, True, stack.sum(axis=0), 1, DEFAULT_TOL)
    assert pairs == [(1, 3)]


def test_exact_atoms_summing_to_the_identity_compute_no_product():
    stack = np.array(diagonal_pvm(space_of(3), [2, 0, 1, 0]).mats)
    assert ovm_module._unsettled_pairs(stack, True, stack.sum(axis=0), 0, DEFAULT_TOL) == []


@pytest.mark.parametrize(
    "mats, kind, error",
    [
        ([np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, -1.0], [0.0, 1.0]])], "positive", NotHermitian),
        ([np.array([[F(1, 2), F(1, 3)], [0, F(1, 2)]], dtype=object), HALF], "projection", NotHermitian),
        ([np.eye(2), np.array([[0.0, 1e-9j], [-1e-9j, 0.0]])], "projection", NotIdempotent),
        ([np.diag([2.0, 1.5]), np.diag([-1.0, -0.5])], "positive", NotPSD),
        ([np.diag([2, 0]), np.diag([-1, 1])], "positive", NotPSD),
        ([np.diag([0.5, 0.5]), np.diag([0.5, 0.25])], "positive", SumNotIdentity),
    ],
    ids=["float-hermitian", "exact-hermitian", "complex-idempotent", "float-psd", "exact-psd", "sum"],
)
def test_non_hermitian_non_idempotent_and_non_psd_atoms(mats, kind, error):
    assert isinstance(same_verdict(space_of(2), mats, kind), error)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["projection", "positive"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_nan_or_infinite_atom_is_not_hermitian(kind, bad):
    # every float test is "not within tol", which a NaN defect fails
    space = space_of(2)
    with pytest.raises(NotHermitian) as err:
        validate_ovm(space, [np.diag([1.0, bad]), np.diag([0.0, 1.0])], kind)
    assert err.value.atom == space.point_ids[0]
    off = np.array([[0.0, bad], [bad, 1.0]])
    with pytest.raises(NotHermitian):
        validate_ovm(space, [np.diag([1.0, 0.0]), off], kind)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
def test_a_nan_or_infinite_conjugator_is_not_unitary(bad):
    E = diagonal_pvm(space_of(2), [0, 1])
    u = np.eye(2)
    u[1, 1] = bad
    with pytest.raises(NotUnitary):
        conjugate(E, u)


def test_frame_bounds_hold_for_every_pair():
    # the bound holds for any float atoms, Hermitian and idempotent or not,
    # and clears every atom of a measure as sampled
    rng = SplitMix64(404)
    for trial in range(80):
        space, mats = _random_measure(rng, "projection", bool(trial % 2))
        mutated = trial % 4 == 3
        if mutated:
            mats = _mutant(rng, mats)
        m, bound = ovm_module._frame_bounds(mats)
        for (i, j), defect in pair_defects(mats).items():
            assert defect <= bound(m[i], m[j]) <= bound(m[i], m.max()), (trial, i, j)
        assert mutated or (bound(m, m.max()) <= DEFAULT_TOL).all(), trial


def test_float_pairs_are_cleared_by_their_own_bound():
    # Hermitian noise of 2e-12 an entry on one atom of a 64 x 64 PVM that
    # still passes: no atom is cleared against the largest distance m, but
    # most pairs are cleared by the bound of their own two atoms
    space = validate_space([[abs(i - j) for j in range(64)] for i in range(64)])
    mats = np.array(random_pvm(space, 64, SplitMix64(0)).mats)
    noise = SplitMix64(9).gausses(64 * 64).reshape(64, 64)
    mats[5] += 2e-12 * (noise + noise.T) / np.sqrt(2)
    m, bound = ovm_module._frame_bounds(mats)
    assert not (bound(m, m.max()) <= DEFAULT_TOL).any()
    pairs = ovm_module._unsettled_pairs(mats, False, mats.sum(axis=0), 0.0, DEFAULT_TOL)
    assert 0 < len(pairs) < 64 * 63 / 2 / 10
    assert same_verdict(space, mats, "projection") is None


@pytest.mark.parametrize("n", [1, 3, 40])
def test_a_float_projection_check_makes_one_eigendecomposition(monkeypatch, n):
    solves = []

    def counted(name):
        real = getattr(np.linalg, name)
        return lambda *args, **kwargs: solves.append(name) or real(*args, **kwargs)

    rng = SplitMix64(n)
    space = space_of(n)
    mats = np.array(random_pvm(space, 6, rng, complex_=True).mats)
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    validate_ovm(space, mats, "projection")
    assert solves == ["eigh"]


def test_the_dyadic_depth_8_seed_leaves_no_pair_unsettled(monkeypatch):
    # the phi-iterate --depth 8 --steps 0 --seed-kind random-pvm seed:
    # 256 atoms of 256 x 256
    unsettled = []
    real = ovm_module._unsettled_pairs

    def recorded(*args):
        unsettled.append(real(*args))
        return unsettled[-1]

    monkeypatch.setattr(ovm_module, "_unsettled_pairs", recorded)
    tower = build_tower(dyadic_ifs(), 8)
    E = random_pvm(tower.level(8).space, tower.dim(8), SplitMix64(0))
    assert E.mats.shape == (256, 256, 256)
    validate_ovm(E.space, E.mats, "projection")
    assert unsettled == [[]]


def test_no_temporary_grows_with_the_number_of_pairs():
    # 64 atoms of 16 x 16: a (pairs, d, d) product would take 32 times
    # the stack's 131 kB.
    space = validate_space([[abs(i - j) for j in range(64)] for i in range(64)])
    E = random_pvm(space, 16, SplitMix64(5))
    mats = np.array(E.mats)
    tracemalloc.start()
    validate_ovm(space, mats, "projection")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * mats.nbytes


# ---------------------------------------------------------------- samplers


def loop_orthogonal(dim, rng):
    g = np.array([[rng.gauss() for _ in range(dim)] for _ in range(dim)])
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def loop_unitary(dim, rng):
    g = np.array([[complex(rng.gauss(), rng.gauss()) for _ in range(dim)] for _ in range(dim)])
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return q * (diag / np.abs(diag)).conj()[None, :]


def loop_pvm_atoms(n, dim, rng, complex_):
    assignment = [rng.randint(0, n - 1) for _ in range(dim)]
    u = loop_unitary(dim, rng) if complex_ else loop_orthogonal(dim, rng)
    mats = []
    for atom in range(n):
        block = u[:, [j for j, a in enumerate(assignment) if a == atom]]
        mats.append(block @ block.conj().T)
    return mats


def loop_povm_atoms(n, dim, rng, min_eigenvalue):
    while True:
        parts = []
        for _ in range(n):
            g = np.array([[rng.gauss() for _ in range(dim)] for _ in range(dim)])
            parts.append(g.T @ g)
        total = sum(parts)
        if min_eigenvalue(total) > 1e-6:
            break
    inv_sqrt = linalg.sym_matrix_function(total, lambda w: 1.0 / np.sqrt(w))
    mats = [inv_sqrt @ p @ inv_sqrt for p in parts]
    return [(m + m.T) / 2 for m in mats]


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 9])
def test_block_drawn_orthogonal_and_unitary_are_the_per_draw_matrices(dim):
    for draw, loop in ((random_orthogonal, loop_orthogonal), (random_unitary, loop_unitary)):
        block, scalar = SplitMix64(dim), SplitMix64(dim)
        for _ in range(3):
            assert bitwise_equal(draw(dim, block), loop(dim, scalar))
        assert block._state == scalar._state


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_random_pvm_atoms_are_the_per_atom_products(complex_):
    for n, dim in [(1, 3), (3, 2), (5, 6), (7, 4)]:
        space = space_of(n)
        block, scalar = SplitMix64(n * dim), SplitMix64(n * dim)
        E = random_pvm(space, dim, block, complex_)
        assert bitwise_equal(E.mats, np.array(loop_pvm_atoms(n, dim, scalar, complex_)))
        assert block._state == scalar._state


@pytest.mark.parametrize("rejects", [0, 1, 3])
def test_random_povm_is_the_per_draw_splitting_retries_included(monkeypatch, rejects):
    # The first ``rejects`` attempts are refused, as a nearly singular sum
    # would be, so both sides must draw the same fresh block each time.
    real = linalg.min_eigenvalue

    def refusing(counter):
        def min_eigenvalue(total):
            counter.append(1)
            return 0.0 if len(counter) <= rejects else real(total)
        return min_eigenvalue

    for n, dim in [(1, 1), (2, 3), (7, 4)]:
        space = space_of(n)
        block, scalar = SplitMix64(dim + n), SplitMix64(dim + n)
        want = loop_povm_atoms(n, dim, scalar, refusing([]))
        monkeypatch.setattr(sampling_module.linalg, "min_eigenvalue", refusing([]))
        E = random_povm(space, dim, block)
        monkeypatch.undo()
        assert bitwise_equal(E.mats, np.array(want))
        assert block._state == scalar._state


# ---------------------------------------------------------------- conjugate


def test_conjugate_atoms_are_the_per_atom_products():
    rng = SplitMix64(12)
    space = space_of(4)
    measures = [
        random_pvm(space, 4, rng, complex_=True),
        random_pvm(space, 5, rng),
        random_povm(space, 3, rng),
        diagonal_pvm(space, [3, 1, 1, 0]),
    ]
    for E in measures:
        u = random_unitary(E.dim, rng)
        want = [u @ linalg.to_complex(m) @ u.conj().T for m in E.mats]
        want = np.array([(m + m.conj().T) / 2 for m in want])
        assert bitwise_equal(conjugate(E, u).mats, want)
