"""The benchmark tracer wraps pvmk functions by name; every name must exist.

``perfbench/tracer.py`` is read as source, never imported, so this test
runs without the benchmark harness on the path.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


TRACED = sorted((module, name) for module, names in _layers().items() for name in names)


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"pvmk.{module}"), name, None))
