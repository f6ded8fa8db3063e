"""Level Hilbert spaces of the cylinder tower and exact Cuntz isometries.

Level k carries the orthonormal basis of normalized cell indicators, one
per length-k word, so the branch isometry S_i acts as the 0/1 matrix
sending e_a to e_(i a).  The normalization absorbs the sqrt(N) factors of
the L^2 picture, which makes every operator here an integer matrix: the
Cuntz relations, the cylinder projections, and the diagonal fixed-point
measure are all verified with integer arithmetic and no tolerance.

Words are stored first-symbol-major, so the length-j word w has index
idx(w) = sum_t w_t N^(j-1-t) in its level, and its cylinder at level K is
the contiguous block of atoms [idx(w) N^(K-j), (idx(w)+1) N^(K-j)).  The
cylinder projection S_w S_w^* is therefore the 0/1 diagonal projection on
that block, and S_i itself is the identity placed on block i; both are
read from the word index instead of multiplying isometries out.

The relations sum_i S_i S_i* = id and S_i* S_j = delta_ij id force the
ambient dimension to be N times itself, so no single finite level can
carry both; the tower realizes them exactly as rectangular level-raising
maps instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchOutOfRange, LevelOutOfRange, WordTooLong
from .ifs import CylinderTower, build_tower, IfsSystem
from .ovm import OperatorValuedMeasure, diagonal_pvm


@dataclass(frozen=True)
class CuntzTower:
    tower: CylinderTower

    @property
    def depth(self) -> int:
        return self.tower.depth

    @property
    def n_branches(self) -> int:
        return self.tower.ifs.n_branches

    def dim(self, k: int) -> int:
        return len(self.tower.level(k).words)


def build_cuntz_tower(source: CylinderTower | IfsSystem, depth: int | None = None) -> CuntzTower:
    if isinstance(source, IfsSystem):
        if depth is None:
            raise LevelOutOfRange("depth is required when building from an IFS")
        return CuntzTower(build_tower(source, depth))
    return CuntzTower(source)


def s_matrix(ct: CuntzTower, i: int, k: int) -> np.ndarray:
    """The 0/1 matrix of S_i from level k-1 into level k (columns orthonormal):
    the identity on rows [i N^(k-1), (i+1) N^(k-1)), zero elsewhere."""
    if not 1 <= k <= ct.depth:
        raise LevelOutOfRange(f"level {k} outside 1..{ct.depth}")
    cols = ct.dim(k - 1)
    m = np.zeros((ct.dim(k), cols), dtype=np.int64)
    m[_word_block(ct, (i,), k)] = np.eye(cols, dtype=np.int64)
    return m


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
    mats = [s_matrix(ct, i, k) for i in range(ct.n_branches)]
    sum_defect, ortho_defect = relation_defects(mats)
    return CuntzReport(level=k, sum_defect=sum_defect, ortho_defect=ortho_defect)


def _word_block(ct: CuntzTower, word: tuple[int, ...], ambient: int) -> slice:
    """Atom indices of the word's cylinder at the ambient level."""
    if len(word) > ambient or ambient > ct.depth:
        raise WordTooLong(f"word of length {len(word)} does not fit at ambient level {ambient}")
    n = ct.n_branches
    idx = 0
    for symbol in word:
        if not 0 <= symbol < n:
            raise BranchOutOfRange(f"branch {symbol} outside 0..{n - 1}")
        idx = idx * n + symbol
    width = n ** (ambient - len(word))
    return slice(idx * width, (idx + 1) * width)


def cylinder_projection(ct: CuntzTower, word: tuple[int, ...], ambient: int) -> np.ndarray:
    """S_word S_word^T at the ambient level: the 0/1 diagonal projection onto
    the cells descending from the word (rank N^(ambient - len(word)))."""
    block = _word_block(ct, word, ambient)
    diag = np.zeros(ct.dim(ambient), dtype=np.int64)
    diag[block] = 1
    return np.diag(diag)


def multiplication_pvm(ct: CuntzTower, k: int | None = None) -> OperatorValuedMeasure:
    """The diagonal projection valued measure on depth-k cells.

    Atom a carries the rank-one projection onto its own basis vector; the
    value on any coarser cylinder equals the corresponding cylinder
    projection, which is the fixed-point identity checked downstream.
    """
    k = ct.depth if k is None else k
    if not 0 <= k <= ct.depth:
        raise LevelOutOfRange(f"level {k} outside 0..{ct.depth}")
    return diagonal_pvm(ct.tower.level(k).space, range(ct.dim(k)))


def prefix_atoms(ct: CuntzTower, word: tuple[int, ...], k: int) -> list[str]:
    """Ids of the depth-k atoms descending from the given word."""
    block = _word_block(ct, word, k)
    return list(ct.tower.level(k).space.point_ids[block])
