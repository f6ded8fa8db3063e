"""The benchmark's tower and rho pipelines still run on the package's API.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` are loaded from
their paths and only read, so a change to the tower or rho API that would
break the benchmark fails here, before any benchmark run.
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


def test_traced_operator_rho_runs_clean():
    tracer_mod = _load("tracer")
    workloads = _load("workloads")
    bench = workloads.OperatorRho(0)
    inputs = bench._make(5, workloads._child(0, 7))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        record = bench._run(*inputs)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert not any(tracer.errors.values())
    scored = len(workloads.RHO_DIMS) + 1  # every pair, and the conjugated one
    for name in ("rho_lower_sphere", "rho_lower_grid"):
        assert summary[f"rho.{name}.calls"] == scored
    assert summary["rho.rho_exact.calls"] == 2 * scored
    assert record[0] == 5 and len(record) == 3 + scored
