"""One workload in its own process: set-up, timed phases, checks, result.

Run by ``run.py``; prints one JSON object as its last stdout line.  With
``--setup-only`` it stops once set-up is done and reports when that was.
Times that ``run.py`` compares across processes use ``time.monotonic``
(CLOCK_MONOTONIC on Linux, shared by all processes).

Every operation time is reported twice: as wall time, and speed-corrected
by the reference kernel of ``reference.py``.  In-process workloads time the
kernel after every operation (and once before the first), and scale each
operation by the mean of the two timings around it.  A workload with
``own_speed`` times the kernel inside the process it starts instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_time, speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def phase(wl, seconds: float, min_cycles: int, tracer=None):
    """Run whole cycles of operations until ``seconds`` of operation time
    passed and ``min_cycles`` are done.

    Operation time is counted in speed-corrected seconds, so a run covers
    the same number of cycles however fast the machine ran.  A slow machine
    stops anyway after 1.5 times ``seconds`` of wall time, which keeps a
    run within its time budget.  Returns per-op wall times and
    speed-corrected times, the phase wall time, failures, the first
    cycle's records and the counters after the first cycle (traced runs
    only).
    """
    k = len(wl.kinds)
    times, corrected, speeds, records, failures = [], [], [], [], []
    first_counters = None
    start = time.perf_counter()
    ref = None if wl.own_speed else reference_time()
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            rec = wl.op(i, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            rec = None
            failures.append(f"op {i} ({wl.kinds[i % k]}): {type(exc).__name__}: {exc}"[:300])
        elapsed = time.perf_counter() - t0
        if wl.own_speed:
            elapsed -= wl.reference_s
            speeds.append(wl.speed)
        else:
            ref, before = reference_time(), ref
            speeds.append(speed(before, ref))
        times.append(elapsed)
        corrected.append(elapsed * speeds[-1])
        if i < k:
            records.append(rec)
        i += 1
        if i == k and tracer is not None:
            first_counters = dict(tracer.counters)
        if i % k == 0 and i // k >= min_cycles:
            wall = time.perf_counter() - start
            if sum(corrected) >= seconds or wall >= 1.5 * seconds:
                break
    return {
        "times": times,
        "corrected": corrected,
        "speed": statistics.median(speeds),
        "wall": time.perf_counter() - start,
        "failures": failures,
        "records": records,
        "first_counters": first_counters,
    }


def digest(records) -> str:
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def process_start_s(repeats: int = 3) -> float:
    """Median wall time to start a process that imports pvmk.cli."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pvmk.cli"], cwd=ROOT, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def counters_repeat(wl, tracer, expected) -> bool:
    """Re-run the first cycle traced; its counters must equal the first run's."""
    before = dict(tracer.counters)
    spans = len(tracer.spans)
    for i in range(len(wl.kinds)):
        wl.op(i, tracer)
    again = {name: tracer.counters[name] - before.get(name, 0) for name in tracer.counters}
    again = {name: v for name, v in again.items() if v}
    del tracer.spans[spans:]
    tracer.counters.clear()
    tracer.counters.update(before)
    return again == {name: v for name, v in expected.items() if v}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    ref_start = reference_time()
    import workloads

    wl = workloads.make(args.workload, args.seed, ROOT, OUT)
    wl.warm_up()
    ready = time.monotonic()
    setup_speed = speed(ref_start, reference_time())
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": setup_speed}))
        return 0

    if args.trace:
        # No op tail is reported from a traced run, so it needs no minimum
        # cycle count; each half runs for half the time.
        plain = phase(wl, args.seconds / 2, 1)
    else:
        plain = phase(wl, args.seconds, wl.min_cycles)
    result = {
        "ready": ready,
        "speed": setup_speed,
        "op_speed": plain["speed"],
        "corrected": plain["corrected"],
        "kinds": list(wl.kinds),
        "times": plain["times"],
        "wall": plain["wall"],
        "failures": plain["failures"],
        "digest": digest(plain["records"]),
    }
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        if hasattr(wl, "sphere_gaps"):
            wl.sphere_gaps.clear()
            wl.grid_gaps.clear()
        traced = phase(wl, args.seconds / 2, 1, tracer)
        repeat_ok = counters_repeat(wl, tracer, traced["first_counters"])
        tracer.uninstall()
        layers = tracer.summary()
        gaps = (getattr(wl, "sphere_gaps", []), getattr(wl, "grid_gaps", []))
        layers["rho.sphere_gap"] = statistics.fmean(gaps[0]) if gaps[0] else 0.0
        layers["rho.grid_gap"] = statistics.fmean(gaps[1]) if gaps[1] else 0.0
        layers["cli.process_start_s"] = process_start_s() if args.workload == "cli-small" else 0.0
        plain_rate = len(plain["times"]) / sum(plain["corrected"])
        traced_rate = len(traced["times"]) / sum(traced["corrected"])
        layers["trace.ops_per_s_untraced"] = plain_rate
        layers["trace.ops_per_s_traced"] = traced_rate
        layers["trace.overhead_ratio"] = traced_rate / plain_rate
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"layers": layers, "first_cycle_counters": traced["first_counters"], **tracer.dump()}, fh)
        result.update(
            layers=layers,
            trace_file=str(trace_file.relative_to(ROOT)),
            traced_failures=traced["failures"],
            traced_ops=len(traced["times"]),
            traced_digest=digest(traced["records"]),
            counters_repeat=repeat_ok,
            first_cycle_counters=traced["first_counters"],
        )
    usage = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result["peak_rss_mb"] = max(usage) / 1024.0  # ru_maxrss is in KiB on Linux
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
