"""The benchmark's tower pipeline still runs on the package's tower API.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` are loaded from
their paths and only read, so a change to the tower API that would break
the benchmark fails here, before any benchmark run.
"""

import importlib.util
from pathlib import Path

from pvmk.ifs import dyadic_ifs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_tower_certification_runs_clean():
    tracer_mod = _load("tracer")
    workloads = _load("workloads")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        record = workloads.certify_tower(dyadic_ifs(), 3, 2)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert not any(tracer.errors.values())
    assert summary["ifs.cells"] > 0
    assert summary["fixed_point.words_checked"] > 0
    assert record[:2] == [3, 2]
