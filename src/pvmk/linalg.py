"""Dense Hermitian helpers on LAPACK via numpy.

Spectra come from numpy's ``eigvalsh``/``eigh`` (LAPACK's Hermitian
divide-and-conquer drivers), applied to whole stacks of matrices at once;
complex Hermitian matrices are solved natively, real ones in real
arithmetic.  Results are reproducible run to run on one machine; other
BLAS/LAPACK builds may differ in the last bits.

Matrices with dtype ``object`` hold exact entries (ints / Fractions); the
helpers here convert them to floats only where a spectral quantity is
genuinely needed.
"""

from __future__ import annotations

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


def spectral_norms_stack(mats) -> np.ndarray:
    """Operator norms of a sequence of Hermitian matrices (one batched solve)."""
    eigs = np.linalg.eigvalsh(_hermitian_stack(mats))
    return np.abs(eigs).max(axis=1, initial=0.0)


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
