"""JSON document schemas and a deterministic report emitter.

Rationals travel as "p/q" strings, floats are emitted with 17 significant
digits, and object keys are sorted, so a report is byte-identical across
runs with the same inputs and seed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import InputParseError
from .ifs import IfsSystem, make_ifs
from .metric_core import FiniteMetricSpace, validate_space
from .ovm import OperatorValuedMeasure, validate_ovm
from .rationals import as_fraction, rational_str
from .transport import ProbMeasure

SCHEMA_VERSION = 1


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc


def space_from_obj(obj) -> FiniteMetricSpace:
    """{"points": [{"id": str, "coord": [num...]?}...], "dist": [[num|"p/q"...]...]}"""
    try:
        points = obj["points"]
        dist = obj["dist"]
    except (KeyError, TypeError) as exc:
        raise InputParseError(f"space document missing field: {exc}") from exc
    ids = [str(p["id"]) for p in points]
    coords = None
    if any("coord" in p for p in points):
        coords = [tuple(as_fraction(c) for c in p.get("coord", ())) for p in points]
    return validate_space(dist, ids, coords)


def space_to_obj(space: FiniteMetricSpace) -> dict:
    points = []
    for i, pid in enumerate(space.point_ids):
        entry: dict = {"id": pid}
        if space.coords is not None:
            entry["coord"] = [rational_str(c) for c in space.coords[i]]
        points.append(entry)
    return {
        "points": points,
        "dist": [[rational_str(x) for x in row] for row in space.dist],
    }


def measure_from_obj(obj, space: FiniteMetricSpace) -> ProbMeasure:
    """{"weights": [num|"p/q", ...]}"""
    try:
        weights = obj["weights"]
    except (KeyError, TypeError) as exc:
        raise InputParseError(f"measure document missing field: {exc}") from exc
    if len(weights) != space.n:
        raise InputParseError("measure weights must cover every point")
    return ProbMeasure.from_values(weights)


def ifs_from_obj(obj) -> IfsSystem:
    """{"N": int, "branches": [{"r": "p/q", "b": "p/q"}...], "base_point": "p/q",
    "symbolic_metric": {"theta": "p/q"}?}"""
    try:
        branches = [(br["r"], br["b"]) for br in obj["branches"]]
        base = obj.get("base_point", 0)
    except (KeyError, TypeError) as exc:
        raise InputParseError(f"ifs document missing field: {exc}") from exc
    if "N" in obj and int(obj["N"]) != len(branches):
        raise InputParseError("declared branch count does not match the branches")
    theta = None
    if obj.get("symbolic_metric") is not None:
        theta = obj["symbolic_metric"].get("theta")
        if theta is None:
            raise InputParseError("symbolic_metric requires a theta")
    return make_ifs(branches, base, theta)


def _float_matrix(rows) -> np.ndarray:
    return np.array([[float(as_fraction(x)) for x in row] for row in rows])


def _matrix_from_obj(obj, dim: int) -> np.ndarray:
    """Integer entries give an int64 matrix and integer or "p/q" entries an
    exact object matrix; JSON floats or an im part give a float matrix."""
    re = obj.get("re")
    if re is None:
        raise InputParseError("matrix document requires a re part")
    im = obj.get("im")
    if len(re) != dim or any(len(row) != dim for row in re):
        raise InputParseError("matrix has the wrong shape")
    entries = [x for row in re for x in row]
    if im is None and all(isinstance(x, int) and not isinstance(x, bool) for x in entries):
        return np.array(re, dtype=np.int64)
    if im is None and not any(isinstance(x, float) for x in entries):
        return np.array([[as_fraction(x) for x in row] for row in re], dtype=object)
    if im is None:
        return _float_matrix(re)
    if len(im) != dim or any(len(row) != dim for row in im):
        raise InputParseError("matrix has the wrong shape")
    return _float_matrix(re) + 1j * _float_matrix(im)


def ovm_from_obj(obj, space: FiniteMetricSpace) -> OperatorValuedMeasure:
    """{"kind": "projection"|"positive", "dim": int, "atoms": [{"id": str,
    "matrix": {"re": [[...]], "im": [[...]]?}}...]}"""
    try:
        kind = obj["kind"]
        dim = int(obj["dim"])
        atoms = obj["atoms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"ovm document missing or malformed field: {exc!r}") from exc
    by_id = {}
    try:
        for entry in atoms:
            by_id[str(entry["id"])] = _matrix_from_obj(entry["matrix"], dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"malformed ovm atom: {exc!r}") from exc
    if set(by_id) != set(space.point_ids):
        raise InputParseError("ovm atoms must match the space's point ids")
    mats = [by_id[pid] for pid in space.point_ids]
    return validate_ovm(space, mats, kind)


def ovm_to_obj(ovm: OperatorValuedMeasure) -> dict:
    atoms = []
    for pid, m in zip(ovm.atom_ids, ovm.mats):
        arr = np.asarray(m)
        if arr.dtype == object or np.issubdtype(arr.dtype, np.integer):
            re = [[int(x) if int(x) == x else float(x) for x in row] for row in arr]
            matrix = {"re": re}
        elif np.iscomplexobj(arr):
            matrix = {
                "re": [[float(x) for x in row] for row in arr.real],
                "im": [[float(x) for x in row] for row in arr.imag],
            }
        else:
            matrix = {"re": [[float(x) for x in row] for row in arr]}
        atoms.append({"id": pid, "matrix": matrix})
    return {"kind": ovm.kind, "dim": ovm.dim, "atoms": atoms}


def vector_from_obj(obj, dim: int) -> np.ndarray:
    """{"re": [...], "im": [...]?}"""
    re = obj.get("re")
    if re is None or len(re) != dim:
        raise InputParseError("vector document requires a re part of the right length")
    im = obj.get("im")
    if im is None:
        return np.array(re, dtype=np.float64)
    if len(im) != dim:
        raise InputParseError("vector im part has the wrong length")
    return np.array(re, dtype=np.float64) + 1j * np.array(im, dtype=np.float64)


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
    raise InputParseError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, "p/q" rationals, 17-digit floats."""
    return _emit(value)


def write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")
