"""Exception types shared across the package."""

from __future__ import annotations

import decimal
from fractions import Fraction


class PvmkError(Exception):
    """Base class for all library errors."""


class InputParseError(PvmkError):
    """Malformed input: bad shape, unreadable number, unknown field."""


class InputTooLarge(PvmkError):
    """An input refused before work or storage past a size budget."""


# --- finite metric spaces ---------------------------------------------------

class MetricAxiomError(PvmkError):
    """A distance table violates a metric axiom; carries witness ids."""


class AsymmetricDistance(MetricAxiomError):
    def __init__(self, i: str, j: str):
        super().__init__(f"d({i},{j}) != d({j},{i})")
        self.witness = (i, j)


class NonzeroSelfDistance(MetricAxiomError):
    def __init__(self, i: str):
        super().__init__(f"d({i},{i}) != 0")
        self.witness = (i,)


class ZeroDistanceDistinctPoints(MetricAxiomError):
    def __init__(self, i: str, j: str):
        super().__init__(f"d({i},{j}) = 0 for distinct points")
        self.witness = (i, j)


class TriangleViolation(MetricAxiomError):
    def __init__(self, i: str, k: str, j: str):
        super().__init__(f"d({i},{j}) > d({i},{k}) + d({k},{j})")
        self.witness = (i, k, j)


class SpaceTooLarge(InputTooLarge):
    def __init__(self, rows: int, budget: int):
        super().__init__(f"vertex enumeration would build {rows} rows, budget is {budget}")
        self.rows = rows
        self.budget = budget


# --- transport --------------------------------------------------------------

class StaleVertexSet(PvmkError):
    """Vertex set was generated from a different space."""


# --- iterated function systems ----------------------------------------------

class OverlappingBranches(PvmkError):
    pass


class TowerTooLarge(InputTooLarge):
    def __init__(self, cells: int, cap: int):
        super().__init__(f"level would hold {cells} cells, cap is {cap}")
        self.cells = cells
        self.cap = cap


class LevelOutOfRange(PvmkError):
    pass


class BranchOutOfRange(PvmkError):
    pass


class WordTooLong(PvmkError):
    pass


# --- operator valued measures -------------------------------------------------

class OvmAxiomError(PvmkError):
    """An operator assignment violates a measure axiom.

    ``defect`` is a float for float atoms and the exact value (an int or a
    Fraction) for exact atoms, so a defect below the float range does not
    read 0; messages print an exact defect in scientific notation.
    """


def _defect_text(defect) -> str:
    """A defect for a message: a float as Python prints it; an exact one to
    six significant digits, m.mmmmme<exponent>, by one correctly rounded
    ``decimal`` division, so that 10^-400 prints as 1e-400 and not as 0.0,
    and no numerator or denominator is ever converted to a string."""
    if isinstance(defect, float):
        return str(defect)
    q = abs(Fraction(defect))
    if not q:
        return "0"
    ctx = decimal.Context(prec=6, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    mantissa, exp = f"{ctx.divide(q.numerator, q.denominator):.5e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{int(exp):+03d}"


class NotHermitian(OvmAxiomError):
    def __init__(self, atom: str, defect: float | Fraction):
        super().__init__(f"atom {atom!r}: matrix not Hermitian (defect {_defect_text(defect)})")
        self.atom = atom
        self.defect = defect


class NotIdempotent(OvmAxiomError):
    def __init__(self, atom: str, defect: float | Fraction):
        super().__init__(f"atom {atom!r}: matrix not idempotent (defect {_defect_text(defect)})")
        self.atom = atom
        self.defect = defect


class NotPSD(OvmAxiomError):
    def __init__(self, atom: str, min_eig: float):
        super().__init__(f"atom {atom!r}: min eigenvalue {min_eig} < 0")
        self.atom = atom
        self.min_eig = min_eig


class SumNotIdentity(OvmAxiomError):
    def __init__(self, defect: float | Fraction):
        super().__init__(f"atom matrices do not sum to the identity (defect {_defect_text(defect)})")
        self.defect = defect


class CrossProductNonzero(OvmAxiomError):
    def __init__(self, a: str, b: str, defect: float | Fraction):
        super().__init__(
            f"projections of atoms {a!r}, {b!r} not orthogonal (defect {_defect_text(defect)})"
        )
        self.atoms = (a, b)
        self.defect = defect


class NotUnitary(PvmkError):
    pass


class StackTooLarge(InputTooLarge):
    def __init__(self, shape: tuple[int, int, int], nbytes: int, budget: int):
        n, d, _ = shape
        super().__init__(f"an atom stack of shape ({n}, {d}, {d}) needs {nbytes} bytes, budget is {budget}")
        self.shape = shape
        self.nbytes = nbytes
        self.budget = budget


class FrameTooLarge(InputTooLarge):
    def __init__(self, dim: int, bound: float, tol: float):
        super().__init__(
            f"a {dim} x {dim} frame cannot be certified: the rounding of U*U alone bounds its atoms' "
            f"defects by {bound:.3g}, over the tolerance {tol:g}"
        )
        self.dim = dim
        self.bound = bound


class MismatchedMeasures(PvmkError):
    """An input is not on the given space or dimension: measures on different
    frames, or a weight list, vector, integrand, matrix or assignment whose
    length or shape does not match the space or the Hilbert dimension."""

