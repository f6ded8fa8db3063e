"""Level Hilbert spaces of the cylinder tower and exact Cuntz isometries.

Level k carries the orthonormal basis of normalized cell indicators, one
per length-k word, so the branch isometry S_i acts as the 0/1 matrix
sending e_a to e_(i a).  The normalization absorbs the sqrt(N) factors of
the L^2 picture, which makes every operator here an integer matrix: the
Cuntz relations, the cylinder projections, and the diagonal fixed-point
measure are all verified with integer arithmetic and no tolerance.

The relations sum_i S_i S_i* = id and S_i* S_j = delta_ij id force the
ambient dimension to be N times itself, so no single finite level can
carry both; the tower realizes them exactly as rectangular level-raising
maps instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchOutOfRange, LevelOutOfRange, WordTooLong
from .ifs import CylinderTower, build_tower, IfsSystem, word_id
from .ovm import OperatorValuedMeasure, PROJECTION, validate_ovm


@dataclass(frozen=True)
class LevelIsometry:
    """The matrix of S_branch from level k-1 into level k (columns orthonormal)."""

    branch: int
    level: int
    matrix: np.ndarray  # (N^k, N^(k-1)) with 0/1 integer entries


@dataclass(frozen=True)
class CuntzTower:
    tower: CylinderTower
    isometries: tuple[tuple[LevelIsometry, ...], ...]  # [k-1][branch]

    @property
    def depth(self) -> int:
        return self.tower.depth

    @property
    def n_branches(self) -> int:
        return self.tower.ifs.n_branches

    def dim(self, k: int) -> int:
        return len(self.tower.level(k).words)


def _isometry_matrix(n_branches: int, i: int, k: int) -> np.ndarray:
    cols = n_branches ** (k - 1)
    rows = n_branches * cols
    m = np.zeros((rows, cols), dtype=np.int64)
    m[np.arange(cols) + i * cols, np.arange(cols)] = 1
    m.setflags(write=False)
    return m


def build_cuntz_tower(source: CylinderTower | IfsSystem, depth: int | None = None) -> CuntzTower:
    if isinstance(source, IfsSystem):
        if depth is None:
            raise LevelOutOfRange("depth is required when building from an IFS")
        tower = build_tower(source, depth)
    else:
        tower = source
    n = tower.ifs.n_branches
    isometries = tuple(
        tuple(
            LevelIsometry(i, k, _isometry_matrix(n, i, k)) for i in range(n)
        )
        for k in range(1, tower.depth + 1)
    )
    return CuntzTower(tower, isometries)


def s_matrix(ct: CuntzTower, i: int, k: int) -> LevelIsometry:
    """The level-raising isometry for branch i into level k."""
    if not 1 <= k <= ct.depth:
        raise LevelOutOfRange(f"level {k} outside 1..{ct.depth}")
    if not 0 <= i < ct.n_branches:
        raise BranchOutOfRange(f"branch {i} outside 0..{ct.n_branches - 1}")
    return ct.isometries[k - 1][i]


def relation_defects(mats) -> tuple[int, int]:
    """(sum defect, orthogonality defect) of candidate isometry matrices.

    sum defect: max abs entry of sum_i M_i M_i^T minus the identity.
    orthogonality defect: max abs entry of M_i^T M_j minus delta_ij id.
    Integer inputs give integer defects; zero means the relations hold
    exactly.
    """
    mats = [np.asarray(m) for m in mats]
    rows, cols = mats[0].shape
    exact = all(np.issubdtype(m.dtype, np.integer) for m in mats)
    cast = int if exact else float
    total = sum(m @ m.T for m in mats)
    sum_defect = cast(np.abs(total - np.eye(rows, dtype=np.int64)).max())
    ortho_defect = cast(0)
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            prod = mi.T @ mj
            target = np.eye(cols, dtype=np.int64) if i == j else 0
            ortho_defect = max(ortho_defect, cast(np.abs(prod - target).max()))
    return sum_defect, ortho_defect


@dataclass(frozen=True)
class CuntzReport:
    level: int
    sum_defect: int
    ortho_defect: int

    @property
    def passed(self) -> bool:
        return self.sum_defect == 0 and self.ortho_defect == 0


def cuntz_verify(ct: CuntzTower, k: int) -> CuntzReport:
    """Exact verification of the Cuntz relations at one level."""
    if not 1 <= k <= ct.depth:
        raise LevelOutOfRange(f"level {k} outside 1..{ct.depth}")
    mats = [s_matrix(ct, i, k).matrix for i in range(ct.n_branches)]
    sum_defect, ortho_defect = relation_defects(mats)
    return CuntzReport(level=k, sum_defect=sum_defect, ortho_defect=ortho_defect)


def compose_word_isometry(ct: CuntzTower, word: tuple[int, ...], ambient: int) -> np.ndarray:
    """S_word as a map from level ambient - len(word) up to level ambient."""
    j = len(word)
    if j > ambient or ambient > ct.depth:
        raise WordTooLong(f"word of length {j} does not fit at ambient level {ambient}")
    out = np.eye(ct.dim(ambient - j), dtype=np.int64)
    for t, symbol in enumerate(reversed(word)):
        out = s_matrix(ct, symbol, ambient - j + t + 1).matrix @ out
    return out


def cylinder_projection(ct: CuntzTower, word: tuple[int, ...], ambient: int) -> np.ndarray:
    """S_word S_word^T at the ambient level: the 0/1 diagonal projection onto
    the cells descending from the word (rank N^(ambient - len(word)))."""
    s = compose_word_isometry(ct, word, ambient)
    return s @ s.T


def multiplication_pvm(ct: CuntzTower, k: int | None = None) -> OperatorValuedMeasure:
    """The diagonal projection valued measure on depth-k cells.

    Atom a carries the rank-one projection onto its own basis vector; the
    value on any coarser cylinder equals the corresponding cylinder
    projection, which is the fixed-point identity checked downstream.
    """
    k = ct.depth if k is None else k
    if not 0 <= k <= ct.depth:
        raise LevelOutOfRange(f"level {k} outside 0..{ct.depth}")
    dim = ct.dim(k)
    mats = []
    for m in range(dim):
        mat = np.zeros((dim, dim), dtype=np.int64)
        mat[m, m] = 1
        mats.append(mat)
    return validate_ovm(ct.tower.level(k).space, mats, PROJECTION)


def prefix_atoms(ct: CuntzTower, word: tuple[int, ...], k: int) -> list[str]:
    """Ids of the depth-k atoms descending from the given word."""
    if len(word) > k or k > ct.depth:
        raise WordTooLong(f"word of length {len(word)} has no descendants at level {k}")
    return [
        word_id(w) for w in ct.tower.level(k).words if w[: len(word)] == word
    ]
