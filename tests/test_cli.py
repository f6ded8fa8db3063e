"""End-to-end command line runs: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pvmk.cli import run
from pvmk.cuntz import build_cuntz_tower, multiplication_pvm
from pvmk.ifs import build_tower, dyadic_ifs
from pvmk.schemas import canonical_json, ovm_to_obj, space_to_obj
from fractions import Fraction


DYADIC = {
    "N": 2,
    "branches": [{"r": "1/2", "b": "0/1"}, {"r": "1/2", "b": "1/2"}],
    "base_point": "0/1",
}


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write


def _capture(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_space_command_valid(files, capsys):
    tmp, write = files
    space = write(
        "space.json",
        {"points": [{"id": "a"}, {"id": "b"}], "dist": [[0, "1/2"], ["1/2", 0]]},
    )
    assert run(["space", "--space", space]) == 0
    report = _capture(capsys)
    assert report["verdict"] == "pass"
    assert report["results"]["diam"] == "1/2"


def test_space_command_invalid(files, capsys):
    tmp, write = files
    space = write(
        "bad.json",
        {"points": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
         "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]},
    )
    assert run(["space", "--space", space]) == 1
    report = _capture(capsys)
    assert report["verdict"] == "fail"
    assert report["results"]["violations"]


def test_kantorovich_command(files, capsys):
    tmp, write = files
    space = write(
        "space.json",
        {"points": [{"id": "a"}, {"id": "b"}], "dist": [[0, 1], [1, 0]]},
    )
    mu = write("mu.json", {"weights": ["3/4", "1/4"]})
    nu = write("nu.json", {"weights": ["1/4", "3/4"]})
    assert run(["kantorovich", "--space", space, "--mu", mu, "--nu", nu]) == 0
    report = _capture(capsys)
    assert report["results"]["value"] == "1/2"
    assert report["results"]["gap"] == 0


def test_hutchinson_command(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["hutchinson", "--ifs", ifs, "--depth", "3"]) == 0
    report = _capture(capsys)
    assert report["results"]["weights"] == ["1/8"] * 8
    assert report["results"]["certificate"]["invariant"] is True


def test_cuntz_verify_command(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["cuntz-verify", "--ifs", ifs, "--depth", "4"]) == 0
    report = _capture(capsys)
    for level in report["results"]["levels"]:
        assert level["sum_defect"] == 0
        assert level["ortho_defect"] == 0


def test_rho_command_methods(files, capsys):
    tmp, write = files
    ct = build_cuntz_tower(build_tower(dyadic_ifs(), 1))
    space_obj = space_to_obj(ct.tower.level(1).space)
    space = write("space.json", space_obj)
    truth = multiplication_pvm(ct, 1)
    e = write("e.json", ovm_to_obj(truth))
    swapped = {
        "kind": "projection",
        "dim": 2,
        "atoms": [
            {"id": "0", "matrix": {"re": [[0, 0], [0, 1]]}},
            {"id": "1", "matrix": {"re": [[1, 0], [0, 0]]}},
        ],
    }
    f = write("f.json", swapped)
    assert run(["rho", "--space", space, "--e", e, "--f", f]) == 0
    report = _capture(capsys)
    assert report["results"]["exact"] == "1/2"
    assert run(
        ["rho", "--space", space, "--e", e, "--f", f, "--method", "sphere",
         "--restarts", "10", "--seed", "3"]
    ) == 0
    sphere = _capture(capsys)
    assert abs(sphere["results"]["value"] - 0.5) < 1e-9
    assert run(
        ["rho", "--space", space, "--e", e, "--f", f, "--method", "grid",
         "--trials", "50", "--seed", "3"]
    ) == 0
    grid = _capture(capsys)
    assert grid["results"]["value"] <= 0.5 + 1e-10


def test_phi_iterate_command_with_csv(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    out = tmp / "trace.json"
    code = run(
        ["phi-iterate", "--ifs", ifs, "--depth", "3", "--steps", "2",
         "--seed-kind", "swapped", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    csv_text = (tmp / "trace.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "step,level,rho_to_truth,ratio"
    assert lines[1].startswith("0,1,0.5,")
    assert lines[2] == "1,2,0.25,0.5"
    assert report["results"]["prefix_depth_verified"] == 2


def test_verify_fixed_point_command_and_tamper(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["verify-fixed-point", "--ifs", ifs, "--depth", "3"]) == 0
    report = _capture(capsys)
    assert report["results"]["offending_words"] == []
    # tampered candidate: permute two atoms of the true measure
    ct = build_cuntz_tower(build_tower(dyadic_ifs(), 2))
    truth = multiplication_pvm(ct, 2)
    obj = ovm_to_obj(truth)
    obj["atoms"][0]["matrix"], obj["atoms"][1]["matrix"] = (
        obj["atoms"][1]["matrix"],
        obj["atoms"][0]["matrix"],
    )
    bad = write("bad_ovm.json", obj)
    assert run(["verify-fixed-point", "--ifs", ifs, "--depth", "2", "--e", bad]) == 1
    report = _capture(capsys)
    assert report["verdict"] == "fail"
    assert report["results"]["offending_words"]


def test_relate_verify_command(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    h = write("h.json", {"re": [1.0, 0.0, 0.0, 0.0]})
    assert run(["relate-verify", "--ifs", ifs, "--depth", "2", "--h", h]) == 0
    report = _capture(capsys)
    assert report["results"]["range_rank"] == report["results"]["span_rank"]


def test_unknown_flag_exits_2(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["hutchinson", "--ifs", ifs, "--depth", "2", "--bogus"]) == 2
    capsys.readouterr()


def test_unreadable_input_exits_2(tmp_path, capsys):
    assert run(["space", "--space", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_reports_are_byte_identical(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    argv = ["phi-iterate", "--ifs", ifs, "--depth", "3", "--steps", "2",
            "--seed-kind", "random-pvm", "--seed", "11"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_timing_flag_adds_duration(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["hutchinson", "--ifs", ifs, "--depth", "2", "--timing"]) == 0
    report = _capture(capsys)
    assert "duration_s" in report


def test_ovm_json_round_trip():
    from pvmk.linalg import to_complex
    from pvmk.rng import SplitMix64
    from pvmk.sampling import random_metric_space, random_pvm
    from pvmk.schemas import ovm_from_obj

    rng = SplitMix64(71)
    space = random_metric_space(3, rng)
    pvm = random_pvm(space, 3, rng, complex_=True)
    again = ovm_from_obj(ovm_to_obj(pvm), space)
    for a, b in zip(pvm.mats, again.mats):
        assert abs(to_complex(a) - to_complex(b)).max() < 1e-15


def test_canonical_json_is_deterministic():
    doc = {"b": Fraction(1, 3), "a": [1.0 / 3.0, 7, None, True], "c": {"y": 2, "x": 1}}
    text = canonical_json(doc)
    assert text == canonical_json(doc)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "1/3" in text
    assert "0.33333333333333331" in text


def test_suite_command_plumbing(files, capsys, monkeypatch):
    # criteria themselves run in test_acceptance; here only report plumbing
    from pvmk import acceptance as acc
    from pvmk import cli as cli_mod

    def fake_run_all(seed=0):
        return [
            acc.CriterionResult(1, "stub pass", True, {"seed": seed}),
            acc.CriterionResult(2, "stub pass too", True, {}),
        ]

    monkeypatch.setattr(cli_mod.acceptance, "run_all", fake_run_all)
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["suite", "--ifs", ifs, "--depth", "2", "--seed", "7"]) == 0
    report = _capture(capsys)
    assert [c["verdict"] for c in report["results"]["criteria"]] == ["pass", "pass"]
    assert report["results"]["user_system"]["fixed_point"] is True

    def failing_run_all(seed=0):
        return [acc.CriterionResult(1, "stub fail", False, {})]

    monkeypatch.setattr(cli_mod.acceptance, "run_all", failing_run_all)
    assert run(["suite", "--seed", "7"]) == 1
    capsys.readouterr()


SWAPPED_ATOMS = [
    {"id": "a", "matrix": {"re": [[0, 0], [0, 1]]}},
    {"id": "b", "matrix": {"re": [[1, 0], [0, 0]]}},
]


def _two_point_rho_files(write, e_atoms, e_dim=2):
    space = write(
        "space.json",
        {"points": [{"id": "a"}, {"id": "b"}], "dist": [[0, "1/2"], ["1/2", 0]]},
    )
    e = write("e.json", {"kind": "projection", "dim": e_dim, "atoms": e_atoms})
    f = write("f.json", {"kind": "projection", "dim": 2, "atoms": SWAPPED_ATOMS})
    return space, e, f


def test_rational_string_matrix_entries(files, capsys):
    tmp, write = files
    half = [{"id": "a", "matrix": {"re": [["1/2", "1/2"], ["1/2", "1/2"]]}},
            {"id": "b", "matrix": {"re": [["1/2", "-1/2"], ["-1/2", "1/2"]]}}]
    space, e, f = _two_point_rho_files(write, half)
    assert run(["rho", "--space", space, "--e", e, "--f", f]) == 0
    report = _capture(capsys)
    assert report["verdict"] == "pass"
    assert report["results"]["value"] == pytest.approx(0.5 ** 1.5, abs=1e-12)


def test_malformed_atom_exits_2(files, capsys):
    tmp, write = files
    b = SWAPPED_ATOMS[1]
    cases = [
        ([{"id": "a"}, b], 2),
        ([{"id": "a", "matrix": {"re": 5}}, b], 2),
        ([{"matrix": {"re": [[0, 0], [0, 1]]}}, b], 2),
        (SWAPPED_ATOMS, "two"),
    ]
    for atoms, dim in cases:
        space, e, f = _two_point_rho_files(write, atoms, dim)
        assert run(["rho", "--space", space, "--e", e, "--f", f]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_cap_errors_exit_2(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["cuntz-verify", "--ifs", ifs, "--depth", "13"]) == 2
    assert "cap is 4096" in capsys.readouterr().err
    space, e, f = _two_point_rho_files(write, SWAPPED_ATOMS)
    assert run(["rho", "--space", space, "--e", e, "--f", f, "--vertex-cap", "1"]) == 2
    assert "cap is 1" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["pvmk", "pvmk.cli"])
def test_python_dash_m_runs_the_cli(module):
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", module, "space", "--space", "sample_inputs/two_point_space.json"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "space" and report["verdict"] == "pass"
