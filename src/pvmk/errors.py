"""Exception types shared across the package."""

from __future__ import annotations


class PvmkError(Exception):
    """Base class for all library errors."""


class InputParseError(PvmkError):
    """Malformed input: bad shape, unreadable number, unknown field."""


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


class SpaceTooLarge(PvmkError):
    def __init__(self, n: int, cap: int):
        super().__init__(f"space has {n} points, cap is {cap}")
        self.n = n
        self.cap = cap


# --- transport --------------------------------------------------------------

class DimensionMismatch(PvmkError):
    pass


class StaleVertexSet(PvmkError):
    """Vertex set was generated from a different space."""


# --- iterated function systems ----------------------------------------------

class OverlappingBranches(PvmkError):
    pass


class TowerTooLarge(PvmkError):
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
    """An operator assignment violates a measure axiom."""


class NotHermitian(OvmAxiomError):
    def __init__(self, atom: str, defect: float):
        super().__init__(f"atom {atom!r}: matrix not Hermitian (defect {defect})")
        self.atom = atom
        self.defect = defect


class NotIdempotent(OvmAxiomError):
    def __init__(self, atom: str, defect: float):
        super().__init__(f"atom {atom!r}: matrix not idempotent (defect {defect})")
        self.atom = atom
        self.defect = defect


class NotPSD(OvmAxiomError):
    def __init__(self, atom: str, min_eig: float):
        super().__init__(f"atom {atom!r}: min eigenvalue {min_eig} < 0")
        self.atom = atom
        self.min_eig = min_eig


class SumNotIdentity(OvmAxiomError):
    def __init__(self, defect: float):
        super().__init__(f"atom matrices do not sum to the identity (defect {defect})")
        self.defect = defect


class CrossProductNonzero(OvmAxiomError):
    def __init__(self, a: str, b: str, defect: float):
        super().__init__(f"projections of atoms {a!r}, {b!r} not orthogonal (defect {defect})")
        self.atoms = (a, b)
        self.defect = defect


class NotUnitary(PvmkError):
    pass


class MismatchedMeasures(PvmkError):
    """Operator valued measures live on different spaces or dimensions."""


# --- fixed point machinery ----------------------------------------------------

class KindViolation(PvmkError):
    """An operation failed to preserve the projection/positive kind."""


class ZeroMassEverywhere(PvmkError):
    pass
