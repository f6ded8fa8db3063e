"""Byte-for-byte reports of the exact-arithmetic sample commands.

Each case runs ``cli.run`` from the repository root on ``sample_inputs/``
and compares stdout with ``tests/golden/<case>.txt``.  Only commands whose
output is fixed by exact arithmetic are pinned; the sphere, grid and random
seeds end in float bits that depend on the BLAS build.  After a deliberate
change of a report, rewrite the files of the named cases (all cases when
none is named; an unknown name exits non-zero) with

    PYTHONPATH=src python tests/test_golden_reports.py [case ...]
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from pvmk.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLES = "sample_inputs/"
DYADIC = SAMPLES + "dyadic_ifs.json"

CASES = {
    "space": ["space", "--space", SAMPLES + "two_point_space.json"],
    "kantorovich": [
        "kantorovich", "--space", SAMPLES + "two_point_space.json",
        "--mu", SAMPLES + "mu.json", "--nu", SAMPLES + "nu.json",
    ],
    "hutchinson": ["hutchinson", "--ifs", DYADIC, "--depth", "6"],
    "cuntz-verify": ["cuntz-verify", "--ifs", DYADIC, "--depth", "5"],
    "rho-vertex": [
        "rho", "--space", SAMPLES + "two_point_space.json",
        "--e", SAMPLES + "pvm_truth.json", "--f", SAMPLES + "pvm_swapped.json",
        "--method", "vertex",
    ],
    "verify-fixed-point": ["verify-fixed-point", "--ifs", DYADIC, "--depth", "5"],
    "phi-iterate": ["phi-iterate", "--ifs", DYADIC, "--depth", "5", "--steps", "3"],
    "relate-verify": [
        "relate-verify", "--ifs", DYADIC, "--depth", "3", "--h", SAMPLES + "h_uniform.json",
    ],
}


def _report(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, text = _report(CASES[case])
    assert code == 0
    assert text == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert json.loads(text)["command"] == CASES[case][0]  # stdout is one JSON document


if __name__ == "__main__":
    os.chdir(ROOT)
    names = sys.argv[1:] or list(CASES)
    unknown = [case for case in names if case not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(CASES)}")
    for case in names:
        code, text = _report(CASES[case])
        if code != 0:
            sys.exit(f"{case} exited {code}")
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
