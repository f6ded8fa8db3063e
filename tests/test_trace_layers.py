"""The benchmark tracer wraps pvmk functions by name; every name must exist."""

import importlib

import pytest

from oracles import tracer_layers

TRACED = sorted((module, name) for module, names in tracer_layers().items() for name in names)


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"pvmk.{module}"), name, None))
