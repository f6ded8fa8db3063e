"""Eigensolver checks against known spectra and generator reproducibility."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pvmk.linalg import (
    eigendecomposition,
    gram_rank,
    max_abs,
    min_eigenvalue,
    spectral_norm,
    spectral_norms_stack,
    sym_matrix_function,
    to_complex,
    top_eigenpair,
)
from pvmk.rng import SplitMix64
from pvmk.sampling import random_orthogonal, random_unitary


def test_splitmix64_reference_stream():
    # first outputs for seed 0, fixed by the published mixing constants
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_determinism_and_ranges():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    rng = SplitMix64(7)
    for _ in range(100):
        assert 0.0 <= rng.uniform() < 1.0
        assert 2 <= rng.randint(2, 7) <= 7
    idx = rng.distinct_indices(10, 4)
    assert len(set(idx)) == 4


def _random_symmetric(rng, n):
    m = np.array([[rng.gauss() for _ in range(n)] for _ in range(n)])
    return (m + m.T) / 2


def _random_hermitian(rng, n):
    m = np.array(
        [[complex(rng.gauss(), rng.gauss()) for _ in range(n)] for _ in range(n)]
    )
    return (m + m.conj().T) / 2


def _known_spectrum(u, lams):
    m = u @ np.diag(lams) @ u.conj().T
    return (m + m.conj().T) / 2


# The next two tests date from the cyclic Jacobi solver; they keep checking that
# the wrappers in pvmk.linalg (ordering, real and complex paths, eigenvectors)
# agree with a direct numpy.linalg.eigvalsh call.
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
def test_jacobi_matches_lapack_real(seed, n):
    rng = SplitMix64(seed)
    m = _random_symmetric(rng, n)
    w, vecs = eigendecomposition(m)
    ref = np.linalg.eigvalsh(m)
    assert np.abs(np.sort(w) - ref).max() < 1e-10
    for i in range(n):
        assert np.abs(m @ vecs[:, i] - w[i] * vecs[:, i]).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=5))
def test_jacobi_matches_lapack_complex(seed, n):
    rng = SplitMix64(seed)
    m = _random_hermitian(rng, n)
    assert abs(spectral_norm(m) - np.abs(np.linalg.eigvalsh(m)).max()) < 1e-10
    assert abs(min_eigenvalue(m) - np.linalg.eigvalsh(m).min()) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6),
)
def test_eigendecomposition_recovers_known_spectrum(seed, quarters):
    rng = SplitMix64(seed)
    lams = np.array(sorted(quarters), dtype=np.float64) / 4
    n = len(lams)
    for u in (random_orthogonal(n, rng), random_unitary(n, rng)):
        m = _known_spectrum(u, lams)
        w, vecs = eigendecomposition(m)
        assert np.abs(w - lams).max() < 1e-10
        assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() < 1e-10
        assert np.abs(m @ vecs - vecs * w[None, :]).max() < 1e-9
        assert abs(spectral_norm(m) - np.abs(lams).max()) < 1e-10
        assert abs(min_eigenvalue(m) - lams[0]) < 1e-10
        top, v = top_eigenpair(m)
        assert abs(abs(top) - np.abs(lams).max()) < 1e-10
        assert np.abs(m @ v - top * v).max() < 1e-9


def test_gram_rank_complex_vectors():
    u = random_unitary(4, SplitMix64(21))
    a, b, c = u[:, 0], u[:, 1], u[:, 2]
    assert gram_rank([a, b, (1 + 2j) * a - 1j * b, c]) == 3
    assert gram_rank([a, 1j * a]) == 1
    assert gram_rank([u[:, i] for i in range(4)]) == 4


def test_complex_eigenvectors_from_embedding():
    rng = SplitMix64(5)
    m = _random_hermitian(rng, 4)
    w, vecs = eigendecomposition(m)
    for i in range(4):
        v = vecs[:, i]
        assert abs(np.vdot(v, v).real - 1.0) < 1e-12
        assert np.abs(m @ v - w[i] * v).max() < 1e-9


def test_spectral_norms_stack_batches():
    rng = SplitMix64(9)
    mats = [_random_symmetric(rng, 5) for _ in range(7)]
    batch = spectral_norms_stack(mats)
    singles = [np.abs(np.linalg.eigvalsh(m)).max() for m in mats]
    assert np.abs(batch - np.array(singles)).max() < 1e-10


def test_sym_matrix_function_inverse_sqrt():
    rng = SplitMix64(17)
    g = np.array([[rng.gauss() for _ in range(4)] for _ in range(4)])
    s = g.T @ g + np.eye(4)
    inv_sqrt = sym_matrix_function(s, lambda w: 1.0 / np.sqrt(w))
    assert max_abs(inv_sqrt @ s @ inv_sqrt - np.eye(4)) < 1e-9


def test_gram_rank():
    e = np.eye(5)
    assert gram_rank([e[0], e[1], e[0] + e[1]]) == 2
    assert gram_rank([e[i] for i in range(5)]) == 5
    cplx = [e[0] + 1j * e[1], e[2].astype(complex)]
    assert gram_rank(cplx) == 2


def test_exact_object_matrix_helpers():
    from fractions import Fraction

    m = np.array([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], dtype=object)
    assert max_abs(m) == Fraction(1, 2)
    assert np.allclose(to_complex(m), np.diag([0.5, 1 / 3]))


def test_spectral_norm_rejects_nothing_small():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(np.array([[2.0]])) == 2.0
