"""The start-up contract, each check in a fresh interpreter.

``import pvmk`` runs no submodule.  ``import pvmk.cli`` leaves every layer
that the benchmark tracer wraps registered in ``sys.modules`` but not run,
so the tracer finds them all, and a subcommand runs only the modules its
code reaches.  A registered module that has not run is still of the lazy
loader's module type; one that has run is a plain module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from oracles import tracer_layers

ROOT = Path(__file__).resolve().parents[1]
DYADIC = "sample_inputs/dyadic_ifs.json"

# Prints, as the last stdout line, each loaded pvmk module and whether it
# has run.  type() reads no attribute, so the probe itself runs nothing.
PROBE = """
import json, sys, types
{body}
print(json.dumps({{k: type(m) is types.ModuleType for k, m in sys.modules.items()
                  if k == "pvmk" or k.startswith("pvmk.")}}))
"""


def _modules(body: str) -> dict:
    """{short name: has run} of every pvmk module in sys.modules after body."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return {name.removeprefix("pvmk."): ran for name, ran in loaded.items()}


def _ran_by(argv: list) -> set:
    modules = _modules(f"import pvmk.cli\nassert pvmk.cli.run({argv!r}) == 0")
    return {name for name, ran in modules.items() if ran}


def test_importing_the_package_runs_no_submodule():
    modules = _modules("import pvmk")
    assert {name for name, ran in modules.items() if ran} == {"pvmk"}
    assert {"errors", "metric_core", "ifs", "ovm", "rho", "fixed_point"} <= set(modules)


def test_importing_the_cli_registers_every_traced_layer_and_runs_none():
    modules = _modules("import pvmk.cli")
    layers = set(tracer_layers()) - {"cli"}
    assert layers <= set(modules)
    assert not any(modules[name] for name in layers)
    assert modules["cli"]


def test_the_space_command_runs_no_measure_or_tower_module():
    ran = _ran_by(["space", "--space", "sample_inputs/two_point_space.json"])
    assert "metric_core" in ran
    assert not ran & {"ifs", "ovm", "cuntz", "rho", "fixed_point", "transport", "sampling"}


def test_a_swapped_phi_iterate_runs_no_rho_sampling_or_transport():
    ran = _ran_by(["phi-iterate", "--ifs", DYADIC, "--depth", "3", "--steps", "2", "--seed-kind", "swapped"])
    assert {"ifs", "cuntz", "ovm", "fixed_point"} <= ran
    assert not ran & {"rho", "sampling", "transport"}
