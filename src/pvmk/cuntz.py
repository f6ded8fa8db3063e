"""Level Hilbert spaces of the cylinder tower and exact Cuntz isometries.

Level k carries the orthonormal basis of normalized cell indicators, one
per length-k word, so the branch isometry S_i is the index map e_a ->
e_(i a) from level k-1 into level k.  The normalization absorbs the
sqrt(N) factors of the L^2 picture, so every operator here is a 0/1
matrix and everything is checked exactly, with no tolerance.

The Cuntz relations on index maps come down to counting.  S_i S_i^* is
the diagonal projection onto the range of S_i, so sum_i S_i S_i^* = id
says that every level-k index is hit exactly once by some S_i, and
S_i^* S_j = delta_ij id says that no index is hit twice.  One bincount of
the branch maps per level checks both (:func:`relation_defects` gives the
argument that the counts equal the dense matrix defects).

Words are stored first-symbol-major, so the length-j word w has index
idx(w) = sum_t w_t N^(j-1-t) in its level, and its cylinder at level K is
the contiguous block of atoms [idx(w) N^(K-j), (idx(w)+1) N^(K-j)).  The
cylinder projection S_w S_w^* is therefore the 0/1 diagonal projection on
that block, read from the word index instead of multiplying isometries
out.

The relations sum_i S_i S_i* = id and S_i* S_j = delta_ij id force the
ambient dimension to be N times itself, so no single finite level can
carry both; the tower realizes them exactly as rectangular level-raising
maps instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ovm
from .errors import BranchOutOfRange, LevelOutOfRange, WordTooLong
from .ifs import CylinderTower, TowerLevel


def build_cuntz_tower(tower: CylinderTower) -> CylinderTower:
    """The tower itself: the Cuntz isometries are index maps between its
    levels, so it needs no second type.  Kept only because the benchmark's
    workloads and tracer call it; nothing in the package does."""
    return tower


def word_positions(level: TowerLevel, codes) -> np.ndarray:
    """Position in the level's word list of each word given by its base-N
    code (:class:`ifs.WordCodes`): the position comes from the list's
    order, never from the code."""
    view = level.word_codes
    return view.order[view.sorted.searchsorted(codes)]


def branch_maps(tower: CylinderTower, k: int) -> np.ndarray:
    """S_0, ..., S_(N-1) from level k-1 into level k as an (N, d_(k-1)) array.

    Row i is S_i: column a holds the level-k index of the word (i,) + a,
    where a is the level-(k-1) word at index a.  That word's code is
    i + N code(a), and its index is looked up in the level's word list
    (:func:`word_positions`), not computed from the word index formula.
    """
    if not 1 <= k <= tower.depth:
        raise LevelOutOfRange(f"level {k} outside 1..{tower.depth}")
    n = tower.n_branches
    rows = np.arange(n)[:, None] + n * tower.level(k - 1).word_codes.codes
    return word_positions(tower.level(k), rows)


def relation_defects(maps: np.ndarray, rows: int) -> tuple[int, int]:
    """(sum defect, orthogonality defect) of the 0/1 isometries given by
    function maps from range(cols) into range(rows), one map per row of maps.

    Let M_i be the 0/1 matrix with M_i[sigma_i(a), a] = 1, and hits[r] the
    number of pairs (i, a) with sigma_i(a) = r.  Entry (r, s) of M_i M_i^T
    is the number of a with sigma_i(a) = r = s, so sum_i M_i M_i^T is
    diag(hits), and the max abs entry of it minus the identity is
    max |hits - 1| = max(max hits - 1, 1 - min hits).  Entry (a, b) of
    M_i^T M_j is [sigma_i(a) = sigma_j(b)], which is 1 on the diagonal
    when i = j; it is 1 off the target delta_ij id exactly when two
    distinct pairs (i, a) and (j, b) hit one row.  So the max abs entry
    of M_i^T M_j - delta_ij id over all i, j is 1 when some row is hit
    twice and 0 otherwise.  Both are the dense defects, computed by
    counting; zero means the relations hold exactly.
    """
    hits = np.bincount(np.asarray(maps).ravel(), minlength=rows)
    most, fewest = int(hits.max()), int(hits.min())
    return max(most - 1, 1 - fewest), int(most > 1)


@dataclass(frozen=True)
class CuntzReport:
    level: int
    sum_defect: int
    ortho_defect: int

    @property
    def passed(self) -> bool:
        return self.sum_defect == 0 and self.ortho_defect == 0


def cuntz_verify(tower: CylinderTower, k: int) -> CuntzReport:
    """Exact verification of the Cuntz relations at one level."""
    sum_defect, ortho_defect = relation_defects(branch_maps(tower, k), tower.dim(k))
    return CuntzReport(level=k, sum_defect=sum_defect, ortho_defect=ortho_defect)


def _word_block(tower: CylinderTower, word: tuple[int, ...], ambient: int) -> slice:
    """Atom indices of the word's cylinder at the ambient level."""
    if not 0 <= ambient <= tower.depth:
        raise LevelOutOfRange(f"level {ambient} outside 0..{tower.depth}")
    if len(word) > ambient:
        raise WordTooLong(f"word of length {len(word)} does not fit at ambient level {ambient}")
    n = tower.n_branches
    idx = 0
    for symbol in word:
        if not 0 <= symbol < n:
            raise BranchOutOfRange(f"branch {symbol} outside 0..{n - 1}")
        idx = idx * n + symbol
    width = n ** (ambient - len(word))
    return slice(idx * width, (idx + 1) * width)


def cylinder_projection(tower: CylinderTower, word: tuple[int, ...], ambient: int) -> np.ndarray:
    """S_word S_word^T at the ambient level: the 0/1 diagonal projection onto
    the cells descending from the word (rank N^(ambient - len(word)))."""
    block = _word_block(tower, word, ambient)
    diag = np.zeros(tower.dim(ambient), dtype=np.int64)
    diag[block] = 1
    return np.diag(diag)


def multiplication_pvm(tower: CylinderTower, k: int) -> ovm.OperatorValuedMeasure:
    """The diagonal projection valued measure on depth-k cells.

    Atom a carries the rank-one projection onto its own basis vector; the
    value on any coarser cylinder equals the corresponding cylinder
    projection, which is the fixed-point identity checked downstream.
    """
    return ovm.diagonal_pvm(tower.level(k).space, range(tower.dim(k)))


def prefix_atoms(tower: CylinderTower, word: tuple[int, ...], k: int) -> list[str]:
    """Ids of the depth-k atoms descending from the given word."""
    block = _word_block(tower, word, k)
    return list(tower.level(k).space.point_ids[block])
