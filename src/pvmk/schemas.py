"""JSON document schemas and a deterministic report emitter.

Rationals travel as "p/q" strings, floats are emitted with 17 significant
digits, and object keys are sorted, so a report is byte-identical across
runs with the same inputs and seed.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import ifs, metric_core, ovm, transport
from .errors import InputParseError
from .rationals import as_fraction, rational_str

SCHEMA_VERSION = 1


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc


def _rows(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise InputParseError(f"{what} must be a list of lists")
    return value


def _float(value) -> float:
    try:
        return float(as_fraction(value))
    except OverflowError as exc:
        raise InputParseError(f"number out of float range: {value!r}") from exc


def space_from_obj(obj) -> metric_core.FiniteMetricSpace:
    """{"points": [{"id": str, "coord": [num...]?}...], "dist": [[num|"p/q"...]...]};
    each coordinate must parse as a rational, and none is kept."""
    try:
        points = obj["points"]
        dist = obj["dist"]
        ids = [str(p["id"]) for p in points]
        for p in points:
            for c in p.get("coord", ()):
                as_fraction(c)
    except (KeyError, TypeError) as exc:
        raise InputParseError(f"space document missing or malformed field: {exc!r}") from exc
    return metric_core.validate_space(_rows(dist, "distance table"), ids)


def measure_from_obj(obj, space: metric_core.FiniteMetricSpace) -> transport.ProbMeasure:
    """{"weights": [num|"p/q", ...]}"""
    try:
        weights = obj["weights"]
    except (KeyError, TypeError) as exc:
        raise InputParseError(f"measure document missing field: {exc}") from exc
    if not isinstance(weights, list) or len(weights) != space.n:
        raise InputParseError("measure weights must be a list covering every point")
    return transport.ProbMeasure.from_values(weights)


def _known_keys(obj, keys: tuple[str, ...], what: str) -> None:
    """Reject a key outside ``keys``: a misspelt field must not silently
    fall back to its default."""
    unknown = sorted(set(obj) - set(keys)) if isinstance(obj, dict) else []
    if unknown:
        raise InputParseError(f"{what} has unknown field {', '.join(map(repr, unknown))}")


def ifs_from_obj(obj) -> ifs.IfsSystem:
    """{"N": int, "branches": [{"r": "p/q", "b": "p/q"}...], "base_point": "p/q",
    "symbolic_metric": {"theta": "p/q"}?}; any other key is rejected."""
    _known_keys(obj, ("N", "branches", "base_point", "symbolic_metric"), "ifs document")
    try:
        for br in obj["branches"]:
            _known_keys(br, ("r", "b"), "ifs branch")
        branches = [(br["r"], br["b"]) for br in obj["branches"]]
        base = obj.get("base_point", 0)
        declared = int(obj.get("N", len(branches)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputParseError(f"ifs document missing or malformed field: {exc!r}") from exc
    if declared != len(branches):
        raise InputParseError("declared branch count does not match the branches")
    theta = None
    symbolic = obj.get("symbolic_metric")
    _known_keys(symbolic, ("theta",), "symbolic_metric")
    if symbolic is not None:
        theta = symbolic.get("theta") if isinstance(symbolic, dict) else None
        if theta is None:
            raise InputParseError("symbolic_metric requires a theta")
    return ifs.make_ifs(branches, base, theta)


def _float_matrix(rows) -> np.ndarray:
    return np.array([[_float(x) for x in row] for row in rows])


def _exact_entry(value) -> Fraction:
    _float(value)  # spectral checks run in floats, so the entry must fit one
    return as_fraction(value)


def _square(value, dim: int) -> list:
    rows = _rows(value, "matrix part")
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise InputParseError("matrix has the wrong shape")
    return rows


def _matrix_from_obj(obj, dim: int) -> np.ndarray:
    """Entries in {-1, 0, 1} give an int64 matrix and other integer or "p/q"
    entries an exact object matrix; JSON floats or an im part give a float
    matrix.

    Every operator between 0 and I has entries of modulus at most 1, so
    larger integers are kept as Python ints, whose products cannot wrap
    around the way int64 products do.
    """
    if not isinstance(obj, dict) or obj.get("re") is None:
        raise InputParseError("matrix document requires a re part")
    re = _square(obj["re"], dim)
    im = obj.get("im")
    entries = [x for row in re for x in row]
    if im is None and all(type(x) is int and -1 <= x <= 1 for x in entries):
        return np.array(re, dtype=np.int64)
    if im is None and not any(isinstance(x, float) for x in entries):
        return np.array([[_exact_entry(x) for x in row] for row in re], dtype=object)
    if im is None:
        return _float_matrix(re)
    return _float_matrix(re) + 1j * _float_matrix(_square(im, dim))


def ovm_from_obj(obj, space: metric_core.FiniteMetricSpace) -> ovm.OperatorValuedMeasure:
    """{"kind": "projection"|"positive", "dim": int, "atoms": [{"id": str,
    "matrix": {"re": [[...]], "im": [[...]]?}}...]}"""
    try:
        kind = obj["kind"]
        dim = int(obj["dim"])
        atoms = obj["atoms"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputParseError(f"ovm document missing or malformed field: {exc!r}") from exc
    if dim < 1:
        raise InputParseError("ovm dim must be a positive integer")
    by_id = {}
    try:
        for entry in atoms:
            by_id[str(entry["id"])] = _matrix_from_obj(entry["matrix"], dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"malformed ovm atom: {exc!r}") from exc
    if set(by_id) != set(space.point_ids):
        raise InputParseError("ovm atoms must match the space's point ids")
    mats = [by_id[pid] for pid in space.point_ids]
    return ovm.validate_ovm(space, mats, kind)


def vector_from_obj(obj, dim: int) -> np.ndarray:
    """{"re": [num|"p/q", ...], "im": [num|"p/q", ...]?}"""
    if not isinstance(obj, dict):
        raise InputParseError("vector document must be a JSON object")

    def part(name: str) -> np.ndarray:
        values = obj.get(name)
        if not isinstance(values, list) or len(values) != dim:
            raise InputParseError(f"vector {name} part must be a list of {dim} numbers")
        return np.array([_float(x) for x in values])

    if obj.get("im") is None:
        return part("re")
    return part("re") + 1j * part("im")


def _emit(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return json.dumps(rational_str(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (complex, np.complexfloating)):
        return _emit({"im": value.imag, "re": value.real})
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{json.dumps(str(k))}:{_emit(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, np.ndarray):
        return _emit(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in value) + "]"
    if dataclasses.is_dataclass(value):
        return _emit({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    raise InputParseError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, "p/q" rationals, 17-digit floats; a
    dataclass is the object of its fields, so a property is not emitted."""
    return _emit(value)


def write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputParseError(f"cannot write {path}: {exc}") from exc
