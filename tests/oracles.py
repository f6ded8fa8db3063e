"""Reference routes shared by several test modules, kept here so that no
test module imports another."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np

from pvmk import ovm
from pvmk.cuntz import branch_maps
from pvmk.errors import MismatchedMeasures, NotUnitary
from pvmk.ifs import make_ifs
from pvmk.linalg import max_abs, spectral_norm, spectral_norms_stack, to_complex, top_eigenpair
from pvmk.metric_core import FiniteMetricSpace, validate_space
from pvmk.ovm import OperatorValuedMeasure

F = Fraction

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_layers() -> dict:
    """The benchmark tracer's ``LAYERS``, module -> wrapped functions.
    ``perfbench/tracer.py`` is read as source, never imported, so the tests
    run without the benchmark harness on the path."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def word_id(word) -> str:
    """A word's id by the join every level ran for each of its words
    before ids were built from the parent's; the oracle for
    ``TowerLevel.point_ids``."""
    return "".join(str(s) for s in word)


def dense_isometries(maps, rows: int) -> list:
    """The 0/1 matrices M_i with M_i[maps[i, a], a] = 1, one per row of maps."""
    cols = maps.shape[1]
    mats = np.zeros((len(maps), rows, cols), dtype=np.int64)
    for i, row in enumerate(maps):
        mats[i, row, np.arange(cols)] = 1
    return list(mats)


def s_matrix(ct, i: int, k: int) -> np.ndarray:
    """The dense 0/1 matrix of S_i from level k-1 into level k, scattered
    from the package's branch map."""
    return dense_isometries(branch_maps(ct, k), ct.dim(k))[i]


def placed_step(tower, k: int, E) -> OperatorValuedMeasure:
    """One contraction step as a dense placement: E's atoms copied onto
    every branch's diagonal block of a fresh (d, d, d) stack at level k."""
    d_prev = E.dim
    d_next = tower.dim(k)
    atoms = np.zeros((d_next, d_next, d_next), dtype=E.mats.dtype)
    for i in range(tower.n_branches):
        block = slice(i * d_prev, (i + 1) * d_prev)
        atoms[block, block, block] = E.mats
    return OperatorValuedMeasure(tower.level(k).space, atoms, E.kind)


def mcshane(space: FiniteMetricSpace, values) -> tuple:
    """1-Lipschitz regularization f(x) = min_y (v(y) + d(x,y)) of raw values."""
    return tuple(
        min(values[y] + space.dist[x][y] for y in range(space.n))
        for x in range(space.n)
    )


def strict_space(n, rng):
    """Every distance in [3/2, 2], so every triangle inequality is strict."""
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = F(rng.randint(12, 16), 8)
    return validate_space(d)


def _float_space(n, rng):
    # distances 1.5 + k/100 as JSON floats, which are exact binary fractions
    # with denominators up to 2^52, mixed with 3/2 + k/15015: the scale of
    # the table passes 2^63, where an int64 table would wrap
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = rng.randint(0, 50)
            d[i][j] = d[j][i] = 1.5 + k / 100 if (i + j) % 2 else F(3, 2) + F(7 * k, 15015)
    return validate_space(d)


_THETA = make_ifs([(F(1, 2), 0), (F(1, 2), F(1, 2))], 0, theta=F(1, 3))


def _loop_lip_constant(values, space, best):
    """Reference for ``lip_constant``: the pairwise ratio loop, started at
    ``best`` (Fraction(0) for rational values, 0.0 for floats)."""
    for i in range(space.n):
        for j in range(i + 1, space.n):
            ratio = abs(values[i] - values[j]) / space.dist[i][j]
            if ratio > best:
                best = ratio
    return best


def complex_differences(e, f):
    """The atomwise differences as rho took them before it kept real ones
    real: exact differences of exact measures and complex differences of
    the rest, negated when the first non-zero entry (its real part) is
    negative, then made complex."""
    if e.is_exact and f.is_exact:
        deltas = e.mats - f.mats
    else:
        deltas = to_complex(e.mats) - to_complex(f.mats)
    nonzero = np.flatnonzero(deltas)
    if nonzero.size and complex(deltas.flat[nonzero[0]]).real < 0:
        deltas = -deltas
    return to_complex(deltas)


def full_route_rho(phis, e, f):
    """Reference for the float tail of rho's vertex and grid routes: every
    row eigen-solved, as the routes ran before they skipped rows by a
    bound; the objective stack is the product of the rows of ``phis`` with
    ``complex_differences``, in real arithmetic (their real parts, which
    are exact) unless a measure is complex.  Returns the first maximum of
    its spectral norms, that norm and the row's top eigenvector."""
    deltas = complex_differences(e, f)
    if not (np.iscomplexobj(e.mats) or np.iscomplexobj(f.mats)):
        deltas = np.ascontiguousarray(deltas.real)
    mats = np.tensordot(phis, deltas, axes=(1, 0))
    norms = spectral_norms_stack(mats)
    i = int(np.argmax(norms))
    return i, float(norms[i]), top_eigenpair(mats[i])[1]


def measured_defects(mats, pairs):
    """The defects validate_ovm measures, computed as it computes them:
    per atom, for the listed pairs, and of the sum."""
    hermitian = ovm._hermitian_defects(mats)
    idempotent = ovm._max_abs_each(mats @ mats - mats)
    pair = max((max_abs(np.dot(mats[i], mats[j])) for i, j in pairs), default=0.0)
    total = max_abs(mats.sum(axis=0) - np.eye(mats.shape[1]))
    return {"hermitian": hermitian.max(), "idempotent": idempotent.max(), "pair": pair, "sum": total}


def validated_conjugate(E, u):
    """``ovm.conjugate`` as it was before frames were certified: the
    symmetrized atoms u E(.) u* checked by ``validate_ovm`` at 1e-9."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (E.dim, E.dim):
        raise MismatchedMeasures("conjugating matrix must match the dimension")
    gap = u.conj().T @ u - np.eye(E.dim)
    defect = spectral_norm(gap) if np.isfinite(gap).all() else max_abs(gap)
    if not defect <= ovm.DEFAULT_TOL:
        raise NotUnitary(f"u*u differs from the identity by {defect}")
    mats = u @ to_complex(E.mats) @ u.conj().T
    return ovm.validate_ovm(E.space, (mats + mats.conj().transpose(0, 2, 1)) / 2, E.kind, tol=1e-9)
