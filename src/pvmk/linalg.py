"""Dense Hermitian helpers on LAPACK via numpy.

Spectra come from numpy's ``eigvalsh``/``eigh`` (LAPACK's Hermitian
divide-and-conquer drivers), applied to whole stacks of matrices at once;
complex Hermitian matrices are solved natively, real ones in real
arithmetic.  Results are reproducible run to run on one machine; other
BLAS/LAPACK builds may differ in the last bits.  ``max_spectral_norm``
finds the first largest norm of a stack while solving only the rows that a
trace-power bound cannot rule out.

Matrices with dtype ``object`` hold exact entries (ints / Fractions); the
helpers here convert them to floats only where a spectral quantity is
genuinely needed.
"""

from __future__ import annotations

import functools

import numpy as np


def is_exact_dtype(dtype) -> bool:
    """Object (exact entries) or integer."""
    return dtype.kind in "Oiu"


def is_exact_matrix(a) -> bool:
    return is_exact_dtype(np.asarray(a).dtype)


def to_complex(a) -> np.ndarray:
    a = np.asarray(a)
    if a.dtype == object:
        flat = np.array([complex(x) for x in a.ravel()], dtype=np.complex128)
        return flat.reshape(a.shape)
    return np.asarray(a, dtype=np.complex128)


def max_abs(a):
    """Largest entry modulus: exact (a Fraction or int) for an object array,
    so that an exact defect too small for a float does not read as 0."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if a.dtype == object:
        return max(abs(x) for x in a.ravel())
    return float(np.abs(a).max())


def _hermitian_stack(mats) -> np.ndarray:
    """Stack of Hermitian matrices: complex128, or float64 when all are real."""
    stack = np.asarray(mats)
    if stack.dtype.kind in "biuf":
        return stack.astype(np.float64, copy=False)
    stack = to_complex(stack)
    return stack if stack.imag.any() else stack.real


def _norms(stack: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(stack)).max(axis=1, initial=0.0)


def spectral_norms_stack(mats) -> np.ndarray:
    """Operator norms of a sequence of Hermitian matrices (one batched solve)."""
    return _norms(_hermitian_stack(mats))


# max_spectral_norm bounds each row by its 2^NORM_BOUND_SQUARINGS-th power,
# scales each bound by 1 + NORM_BOUND_SLACK, and eigen-solves the rows in
# descending bound order, NORM_BOUND_FIRST_CHUNK rows first, then chunks of
# twice the size.  Rows of a larger order than NORM_BOUND_MAX_ORDER (twice
# the dimension for complex rows) are not bounded, only solved.
NORM_BOUND_SQUARINGS = 5
NORM_BOUND_SLACK = 1e-9
NORM_BOUND_FIRST_CHUNK = 4
NORM_BOUND_MAX_ORDER = 32


def _norm_bounds(stack: np.ndarray) -> np.ndarray:
    """An upper bound on ||H||, before the slack, for every row of a float
    stack: H is the Hermitian matrix that ``eigvalsh`` reads, the row's
    lower triangle with a real diagonal.

    For Hermitian X and p = 2^s, ||X||^(2p) <= tr(X^(2p)) = ||X^p||_F^2.
    A complex row is bounded through its real embedding [[Re H, -Im H],
    [Im H, Re H]], a real symmetric matrix of order k = 2d with the
    spectrum of H, each eigenvalue twice, so the sum of squares is halved;
    a real row has k = d.  X is the embedding times 2^-e, with e read from
    the computed f2 = ||X||_F^2 2^(2e), so ||X||_F lies in [1/2, 1] up to
    rounding and no power leaves the float range.  Then s squarings, each a float
    product B_(j+1) = fl(B_j B_j), the sum t of the squares of B_s, halved
    for a complex row, and s + 1 square roots of t; the bound is 2^e times
    that root.  An all-zero row is bounded by 0.  A row whose f2 is not
    finite, or below 2^-1000 but not 0, or whose order exceeds
    ``NORM_BOUND_MAX_ORDER``, is bounded by inf, so it is always solved.

    Why ``NORM_BOUND_SLACK`` covers the rounding, for k <= 32.  Let
    lam = ||X||, P_j = X^(2^j) and a_j = ||B_j - P_j||_F / lam^(2^j).
    Scaling by 2^-e is exact, so a_0 = 0.  With eps = 2^-52 and
    c = (k + 2) eps, a float sum of k products errs by at most c times
    the sum of their moduli, so ||fl(B B) - B B||_F <= c ||B||_F^2; with
    ||P_j|| = lam^(2^j), ||P_j||_F <= sqrt(k) lam^(2^j) and
    B_j^2 - P_j^2 = B_j (B_j - P_j) + (B_j - P_j) P_j,

        a_(j+1) <= (sqrt(k) + 1 + a_j) a_j + c (sqrt(k) + a_j)^2,

    which gives a_5 < 6e-10 at k = 32.  lam^p <= ||P_s||_F / sqrt(m),
    m the multiplicity (1 or 2), so lam <= (||B_s||_F^2 / m)^(1/(2p))
    (1 - a_s)^(-1/p): the squarings cost a factor below 1 + 2e-11.  The
    sum of k^2 squares errs by a factor within 1 +- (k^2 + 2) eps, below
    1 + 1e-14 after the 2p-th root, and each square root is correctly
    rounded, 1 + 3 * 2^-53 for all of them and the slack's product.
    Entries and products that underflow in X and its powers err by at
    most 2^-1074 each, while lam >= 1/(2 sqrt(k)) keeps every power's
    norm above 2^-120: a relative 2^-900.  Last, ``eigvalsh`` (LAPACK's
    Hermitian drivers) is backward stable: its eigenvalues are exact for
    H + E with ||E|| <= q(k) eps ||H||, q a modest function of the order
    (LAPACK Users' Guide, 3rd ed., section 4.7), so by Weyl's inequality
    the computed norm is at most ||H|| (1 + q(k) eps).  The slack of
    1e-9 leaves 9.7e-10 for that term, q(k) up to 4 * 10^6 at k <= 32.
    """
    rows, d = stack.shape[:2]
    lo, hi = _strict_lower(d)
    h = stack.copy()
    h[:, hi, lo] = stack[:, lo, hi].conj() if h.dtype.kind == "c" else stack[:, lo, hi]
    multiplicity = 1.0
    if h.dtype.kind == "c":
        h.imag[:, range(d), range(d)] = 0.0
        re, im = h.real, h.imag
        h = np.concatenate([np.concatenate([re, -im], axis=2), np.concatenate([im, re], axis=2)], axis=1)
        multiplicity = 2.0
    if h.shape[1] > NORM_BOUND_MAX_ORDER:
        return np.full(rows, np.inf)
    f2 = np.einsum("nij,nij->n", h, h)
    e = (np.frexp(f2)[1] + 1) >> 1
    x = np.ldexp(h, -e[:, None, None])
    odd = ~((f2 >= 2.0**-1000) & (f2 < np.inf))
    if odd.any():
        x[odd] = 0.0
    for _ in range(NORM_BOUND_SQUARINGS):
        x = x @ x
    t = np.einsum("nij,nij->n", x, x) / multiplicity
    for _ in range(NORM_BOUND_SQUARINGS + 1):
        t = np.sqrt(t)
    bound = np.ldexp(t, e)
    if odd.any():
        bound[odd] = np.inf
        zero = odd & (f2 == 0.0)
        zero[zero] = ~h[zero].any(axis=(1, 2))
        bound[zero] = 0.0
    return bound


@functools.cache
def _strict_lower(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict lower triangle of order d,
    built once per order and read-only, as every call shares them.
    Rebuilding them in every ``_norm_bounds`` call cost operator-rho 3.5%
    of its ops_per_s, in 10 of 10 paired runs (``BENCH_27.json``)."""
    rows, cols = np.tril_indices(d, -1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def max_spectral_norm(mats) -> tuple[int, float]:
    """(i, norms[i]) for norms = ``spectral_norms_stack(mats)`` and i its
    first maximum, bit for bit, for a non-empty stack of finite matrices.

    Only the rows that could hold the first maximum are eigen-solved, in
    descending order of their bound b (``_norm_bounds`` times 1 +
    ``NORM_BOUND_SLACK``, which is at least the row's computed norm) and
    in doubling chunks, each solved as ``spectral_norms_stack`` solves the
    whole stack (same dtype, one LAPACK call per matrix).  Solving stops
    at the first row that cannot displace the best row i found so far:
    b < norms[i], or b == norms[i] with a larger index.  The rows after it
    have no larger bound and, on a tie, larger indices.
    """
    stack = _hermitian_stack(mats)
    bound = _norm_bounds(stack) * (1.0 + NORM_BOUND_SLACK)
    order = np.argsort(-bound, kind="stable")
    best_i, best = 0, -1.0
    lo, size = 0, NORM_BOUND_FIRST_CHUNK
    while lo < len(order):
        j = order[lo]
        if bound[j] < best or (bound[j] == best and j > best_i):
            break
        rows = np.sort(order[lo : lo + size])
        norms = _norms(stack[rows])
        k = int(np.argmax(norms))
        if norms[k] > best or (norms[k] == best and rows[k] < best_i):
            best_i, best = int(rows[k]), float(norms[k])
        lo, size = lo + size, 2 * size
    return best_i, best


def spectral_norm(mat) -> float:
    """Operator norm of a Hermitian matrix (largest absolute eigenvalue)."""
    return float(spectral_norms_stack([mat])[0])


def eigendecomposition(mat) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and matching unit eigenvectors (columns).

    ``mat`` must be Hermitian, or a stack of Hermitian matrices, solved in
    one batched call; the eigenvectors are real when every matrix is real.
    """
    return np.linalg.eigh(_hermitian_stack(mat))


def top_eigenpair(mat) -> tuple[float, np.ndarray]:
    """(eigenvalue of largest magnitude, its unit eigenvector)."""
    w, vecs = eigendecomposition(mat)
    i = int(np.argmax(np.abs(w)))
    return float(w[i]), vecs[:, i]


def min_eigenvalues(mats) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix of a stack, in at most
    two batched solves: the real matrices in real arithmetic and the rest
    in complex, so each value is bit for bit ``min_eigenvalue`` of its
    matrix alone."""
    stack = _hermitian_stack(mats)
    if stack.dtype.kind == "f":
        return np.linalg.eigvalsh(stack)[:, 0]
    real = ~stack.imag.any(axis=(1, 2))
    out = np.empty(len(stack))
    for part, group in ((real, stack.real), (~real, stack)):
        if part.any():
            out[part] = np.linalg.eigvalsh(group[part])[:, 0]
    return out


def min_eigenvalue(mat) -> float:
    return float(min_eigenvalues([mat])[0])


def sym_matrix_function(mat: np.ndarray, fn) -> np.ndarray:
    """fn applied to the spectrum of a real symmetric matrix."""
    w, vecs = eigendecomposition(np.asarray(mat, dtype=np.float64))
    return (vecs * fn(w)[None, :]) @ vecs.T


def gram_rank(vectors) -> int:
    """Rank of the span of the given vectors via their Gram spectrum:
    eigenvalues above 1e-10 of the largest, and above 1e-12, count."""
    cols = np.stack([to_complex(np.asarray(v)).ravel() for v in vectors], axis=1)
    w = np.linalg.eigvalsh(cols.conj().T @ cols)
    cutoff = max(w.max(initial=0.0) * 1e-10, 1e-12)
    return int((w > cutoff).sum())
