"""pvmk benchmark: one seeded, closed-loop, single-client workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; ``pvmk`` is imported from ``src/``.
The workload runs in child processes started one after another (no
threads): two that only set up, then one that sets up and measures.  Every
child gets ``PVMK_THREADS=1`` and single-threaded BLAS.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``perfbench/README.md`` with ``--trace 1``).  The line before
it records provenance and the details behind the metrics: git sha, Python
and numpy versions, nproc, seed, the tail percentile and its sample count,
the outputs digest and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (imports no pvmk code)

WORKLOADS = ("tower-certify", "operator-rho", "transport-exact", "cli-small")
# outputs_digest of known seeds; a run whose digest differs is not correct.
EXPECTED_DIGESTS = json.loads((HERE / "expected_digests.json").read_text())
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PVMK_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, extra, timeout):
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    spawned = time.monotonic()
    # A session of its own, so that a timeout also stops the CLI processes
    # the child may have started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        raise RuntimeError(f"workload child exited {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_wall_s"] = out["ready"] - spawned
    out["setup_s"] = out["setup_wall_s"] * out["speed"]
    return out


def provenance(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pvmk_threads": 1,
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "pvmk" / "__init__.py").is_file():
        sys.stderr.write(f"pvmk sources not found under {ROOT / 'src'}\n")
        return 2

    started = time.monotonic()
    try:
        children = [run_child(args, ["--setup-only"], 60) for _ in range(SETUP_SAMPLES - 1)]
        full = run_child(args, [], DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    children.append(full)
    setups = [c["setup_s"] for c in children]

    times = full["corrected"]
    wall_times = full["times"]
    failures = list(full["failures"])
    attempted = len(times) + full.get("traced_ops", 0)
    expected = EXPECTED_DIGESTS.get(args.workload, {}).get(str(args.seed))
    checks = {"digest_matches_reference": expected is None or expected == full["digest"]}
    if args.trace:
        failures += full["traced_failures"]
        checks["traced_digest_repeats"] = full["traced_digest"] == full["digest"]
        checks["counters_repeat"] = full["counters_repeat"]
    correct = not failures and all(checks.values())

    tail_s, tail_pct, tail_n = _tail(times)
    wall_tail_s = _tail(wall_times)[0]
    details = {
        **provenance(args),
        "seconds": args.seconds,
        "trace": args.trace,
        "outputs_digest": full["digest"],
        "reference_digest": expected,
        "checks": checks,
        "fail_ratio": len(failures) / attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": tail_n,
        "setup_samples_s": setups,
        "wall": {
            "ops_per_s": len(times) / full["wall"],
            "op_p50_s": statistics.median(wall_times),
            "op_tail_s": wall_tail_s,
            "setup_s": statistics.median(c["setup_wall_s"] for c in children),
        },
        "speed_vs_reference": full["op_speed"],
        "failures": failures[:10],
    }
    if args.trace:
        details["trace_file"] = full["trace_file"]
        details["first_cycle_counters"] = full["first_cycle_counters"]
        metrics = {name: {"value": full["layers"][name], "unit": unit} for name, unit in _layer_units()}
    else:
        metrics = {
            "ops_per_s": {"value": _ops_per_s(times, full["kinds"]), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": full["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1.0 - len(failures) / attempted, "unit": "ratio"},
        }
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def _ops_per_s(times, kinds):
    """Operations per second of a cycle run at each kind's median time.

    A shared machine's speed wanders by tens of percent over seconds; a
    median per kind keeps a slow spell from moving the rate the way a
    count over wall time (``wall.ops_per_s`` in the detail line) does.
    """
    k = len(kinds)
    return k / sum(statistics.median(times[j::k]) for j in range(k))


def _tail(times):
    """Highest order statistic with at least ten samples above it, the
    percentile it stands at, and the sample count."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _layer_units():
    for name in tracer.function_names():
        yield f"{name}.calls", "count"
        yield f"{name}.self_s", "s"
    for mod in tracer.LAYERS:
        yield f"{mod}.self_s", "s"
        yield f"{mod}.errors", "count"
    for name in tracer.COUNTERS:
        yield name, "bytes" if name.endswith("_bytes_computed") else "count"
    yield "rho.sphere_gap", "ratio"
    yield "rho.grid_gap", "ratio"
    yield "cli.process_start_s", "s"
    yield "trace.ops_per_s_untraced", "1/s"
    yield "trace.ops_per_s_traced", "1/s"
    yield "trace.overhead_ratio", "ratio"


if __name__ == "__main__":
    sys.exit(main())
