"""The reference kernel behind speed-corrected times, and the timed CLI entry.

A shared machine runs the same code up to twice as slow for seconds or
minutes at a time.  The benchmark therefore times a fixed kernel next to
every operation: pure-Python ``Fraction`` sums with garbage collection
off, about 4 ms on an idle 2-core x86 VM.  The kernel never calls pvmk, so
the program under test cannot change it.  An operation's corrected time is
its wall time scaled by ``REFERENCE_S`` over the kernel time measured
around it: seconds at the machine's reference speed.

This module imports nothing from pvmk, so that a CLI process can time the
kernel before it imports the package.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.004  # nominal kernel time; it only scales the units


def reference_time() -> float:
    """Wall time of the reference kernel, with garbage collection off.

    The kernel runs twice and the faster run counts, so that caches left
    cold by the work before it do not count.
    """
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            x = Fraction(0)
            for i in range(1, 1500):
                x += Fraction(1, i % 97 + 1)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


def speed(before: float, after: float) -> float:
    """Scale factor from wall seconds to reference seconds."""
    return 2 * REFERENCE_S / (before + after)


def run_cli(argv, trace_path: str = "") -> None:
    """Run one pvmk CLI command between two kernel timings.

    The kernel times, and the wall time they took, go to the last stderr
    line as JSON, so the caller can take them out of the operation's time
    and correct the rest.  With ``trace_path`` the command runs under a
    tracer whose spans are dumped there.
    """
    t0 = time.perf_counter()
    before = reference_time()
    spent = time.perf_counter() - t0
    tracer = None
    if trace_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import pvmk.cli

    try:
        code = pvmk.cli.run(argv)
    finally:
        if tracer is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
        t1 = time.perf_counter()
        after = reference_time()
        spent += time.perf_counter() - t1
        sys.stderr.write("\n" + json.dumps({"speed": speed(before, after), "reference_s": spent}) + "\n")
    sys.exit(code)
