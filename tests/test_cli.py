"""End-to-end command line runs: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pvmk.cli
import pvmk.errors
import pvmk.ifs
import pvmk.metric_core
from pvmk.cli import run
from pvmk.cuntz import multiplication_pvm
from pvmk.fixed_point import swapped_diagonal_pvm
from pvmk.ifs import build_tower, dyadic_ifs
import pvmk.ovm
from pvmk.rationals import rational_str
from pvmk.schemas import canonical_json
from pvmk.transport import ProbMeasure
from decimal import Decimal
from fractions import Fraction

from oracles import _THETA


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


# Writers for the space and ovm documents the CLI reads.
def space_to_obj(space) -> dict:
    return {
        "points": [{"id": pid} for pid in space.point_ids],
        "dist": [[rational_str(x) for x in row] for row in space.dist],
    }


def ovm_to_obj(ovm) -> dict:
    atoms = []
    for pid, m in zip(ovm.atom_ids, ovm.mats):
        arr = np.asarray(m)
        if arr.dtype == object or np.issubdtype(arr.dtype, np.integer):
            re = [[int(x) if int(x) == x else float(x) for x in row] for row in arr]
            matrix = {"re": re}
        elif np.iscomplexobj(arr):
            matrix = {
                "re": [[float(x) for x in row] for row in arr.real],
                "im": [[float(x) for x in row] for row in arr.imag],
            }
        else:
            matrix = {"re": [[float(x) for x in row] for row in arr]}
        atoms.append({"id": pid, "matrix": matrix})
    return {"kind": ovm.kind, "dim": ovm.dim, "atoms": atoms}


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


def test_space_command_scans_a_valid_document_once(files, capsys, monkeypatch):
    # A valid document is decided once, on the integer table, and never
    # reaches the scan that names a violation.
    import pvmk.metric_core as metric_core

    checks, scans = [], []
    check, scan = metric_core._is_metric, metric_core._violations

    def counted_check(dist):
        checks.append(len(dist))
        return check(dist)

    def counted_scan(ids, dist):
        scans.append(len(ids))
        return scan(ids, dist)

    monkeypatch.setattr(metric_core, "_is_metric", counted_check)
    monkeypatch.setattr(metric_core, "_violations", counted_scan)
    tmp, write = files
    space = write(
        "space.json",
        {"points": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
         "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    )
    assert run(["space", "--space", space]) == 0
    assert _capture(capsys)["results"]["points"] == 3
    assert checks == [3]
    assert scans == []


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


def test_kantorovich_reads_a_weight_longer_than_the_int_string_limit(files, capsys):
    tmp, write = files
    space = write("space.json", {"points": [{"id": "a"}, {"id": "b"}], "dist": [[0, 1], [1, 0]]})
    zeros = "0" * 5000
    mu = write("mu.json", {"weights": ["1/1" + zeros, "9" * 5000 + "/1" + zeros]})
    nu = write("nu.json", {"weights": ["1/2", "1/2"]})
    assert run(["kantorovich", "--space", space, "--mu", mu, "--nu", nu]) == 0
    value = _capture(capsys)["results"]["value"]
    assert Fraction(*map(int, map(Decimal, value.split("/")))) == Fraction(1, 2) - Fraction(1, 10**5000)


def test_hutchinson_command(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["hutchinson", "--ifs", ifs, "--depth", "3"]) == 0
    report = _capture(capsys)
    assert report["results"]["weights"] == ["1/8"] * 8
    assert report["results"]["certificate"]["invariant"] is True


def test_hutchinson_exits_1_when_the_pushforward_is_not_invariant(files, capsys, monkeypatch):
    # a pushforward that forgets the 1/N factor fails the certificate
    def no_average(tower, k, nu):
        return ProbMeasure(nu.weights * tower.n_branches)

    monkeypatch.setattr(pvmk.ifs, "hutchinson_step", no_average)
    tmp, write = files
    assert run(["hutchinson", "--ifs", write("ifs.json", DYADIC), "--depth", "3"]) == 1
    report = _capture(capsys)
    assert report["verdict"] == "fail"
    assert report["results"]["certificate"]["invariant"] is False


def test_cuntz_verify_command(files, capsys):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["cuntz-verify", "--ifs", ifs, "--depth", "4"]) == 0
    report = _capture(capsys)
    for level in report["results"]["levels"]:
        assert level["sum_defect"] == 0
        assert level["ortho_defect"] == 0


def test_cuntz_verify_reaches_the_cell_cap_without_distance_tables(files, capsys, monkeypatch):
    reads = []
    monkeypatch.setattr(pvmk.ifs, "_level_distance", lambda *a: reads.append(a))
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["cuntz-verify", "--ifs", ifs, "--depth", "12"]) == 0
    levels = _capture(capsys)["results"]["levels"]
    assert [(lv["level"], lv["sum_defect"], lv["ortho_defect"]) for lv in levels] == [
        (k, 0, 0) for k in range(1, 13)
    ]
    assert reads == []


def test_commands_that_read_no_coordinate_build_no_representatives(files, capsys, monkeypatch):
    # with IfsSystem.apply raising, every command that reads no coordinate
    # distance still passes; a dyadic phi-iterate scores levels of at most
    # 8 atoms, which read their parent's representatives and no deeper ones
    def refuse(self, i, x):
        raise AssertionError("a representative was built")

    towers = []

    def recording(ifs, depth):
        towers.append(build_tower(ifs, depth))
        return towers[-1]

    monkeypatch.setattr(pvmk.cli, "build_tower", recording)
    tmp, write = files
    dyadic = write("ifs.json", DYADIC)
    theta = write("theta.json", {**DYADIC, "symbolic_metric": {"theta": "1/3"}})
    with monkeypatch.context() as patched:
        patched.setattr(pvmk.ifs.IfsSystem, "apply", refuse)
        for command in ("cuntz-verify", "verify-fixed-point", "hutchinson"):
            assert run([command, "--ifs", dyadic, "--depth", "12"]) == 0
        assert run(["phi-iterate", "--ifs", theta, "--depth", "6", "--steps", "4"]) == 0
        assert run(["phi-iterate", "--ifs", dyadic, "--depth", "12", "--steps", "4"]) == 0
    assert run(["phi-iterate", "--ifs", dyadic, "--depth", "5", "--steps", "4"]) == 0
    capsys.readouterr()
    assert not any("reps" in vars(level) for tower in towers[:-1] for level in tower.levels)
    built = [k for k, level in enumerate(towers[-1].levels) if "reps" in vars(level)]
    assert built == [0, 1, 2]


def test_rho_command_methods(files, capsys):
    tmp, write = files
    ct = build_tower(dyadic_ifs(), 1)
    space_obj = space_to_obj(ct.level(1).space)
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
    ct = build_tower(dyadic_ifs(), 2)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["hutchinson", "--depth", "0"],
        ["phi-iterate", "--depth", "3", "--steps", "-1"],
    ],
    ids=["hutchinson-depth-0", "phi-iterate-negative-steps"],
)
def test_out_of_range_arguments_exit_2(files, capsys, argv):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(argv + ["--ifs", ifs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_eleven_branch_ifs_exits_2(files, capsys):
    tmp, write = files
    branches = [{"r": "1/11", "b": f"{k}/11"} for k in range(11)]
    ifs = write("ifs.json", {"N": 11, "branches": branches, "base_point": "0/1"})
    assert run(["cuntz-verify", "--ifs", ifs, "--depth", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and "at most 10 branches" in captured.err


def test_unreadable_input_exits_2(tmp_path, capsys):
    assert run(["space", "--space", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, out",
    [
        (["cuntz-verify", "--depth", "2"], "missing/x.json"),
        (["cuntz-verify", "--depth", "2"], "."),
        (["hutchinson", "--depth", "2"], "missing/x.json"),
        (["hutchinson", "--depth", "2"], "."),
        (["phi-iterate", "--depth", "3", "--steps", "2"], "trace.json"),
    ],
    ids=[
        "cuntz-verify-missing-dir",
        "cuntz-verify-directory",
        "hutchinson-missing-dir",
        "hutchinson-directory",
        "phi-iterate-csv-sibling-directory",
    ],
)
def test_unwritable_out_exits_2(files, capsys, argv, out):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    (tmp / "trace.csv").mkdir()
    assert run(argv + ["--ifs", ifs, "--out", str(tmp / out)]) == 2
    _one_error_line(capsys)
    # no report is left behind, not even when only its CSV sibling failed
    assert sorted(p.name for p in tmp.iterdir()) == ["ifs.json", "trace.csv"]


def test_fixed_point_commands_reach_dyadic_depth_12_without_dense_atoms(files, capsys, monkeypatch):
    # 4,096 cells, the tower cap; a diagonal measure of more than 8 atoms
    # must stay an assignment the whole way
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    build = pvmk.ovm._frame_stack

    def small_only(n, *rest):
        assert n <= 8, f"dense atoms built for {n} atoms"
        return build(n, *rest)

    monkeypatch.setattr(pvmk.ovm, "_frame_stack", small_only)
    assert run(["verify-fixed-point", "--ifs", ifs, "--depth", "12"]) == 0
    results = _capture(capsys)["results"]
    assert results["words_checked"] == 8191
    assert results["offending_words"] == [] and results["rederived_match"]
    for kind in ("swapped", "truth"):
        argv = ["phi-iterate", "--ifs", ifs, "--depth", "12", "--steps", "4", "--seed-kind", kind]
        assert run(argv) == 0
        report = json.loads(capsys.readouterr().out.split("\n", 1)[0])
        assert report["results"]["prefix_depth_verified"] == 4


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

    def fake_run_all(seed=0):
        return [
            acc.CriterionResult(1, "stub pass", True, {"seed": seed}),
            acc.CriterionResult(2, "stub pass too", True, {}),
        ]

    monkeypatch.setattr(acc, "run_all", fake_run_all)
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["suite", "--ifs", ifs, "--depth", "2", "--seed", "7"]) == 0
    report = _capture(capsys)
    assert [c["verdict"] for c in report["results"]["criteria"]] == ["pass", "pass"]
    assert report["results"]["user_system"]["fixed_point"] is True

    def failing_run_all(seed=0):
        return [acc.CriterionResult(1, "stub fail", False, {})]

    monkeypatch.setattr(acc, "run_all", failing_run_all)
    assert run(["suite", "--seed", "7"]) == 1
    capsys.readouterr()


def test_suite_depth_without_ifs_exits_2_before_the_sweep(capsys, monkeypatch):
    from pvmk import acceptance as acc

    def no_sweep(seed=0):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(acc, "run_all", no_sweep)
    assert run(["suite", "--depth", "2"]) == 2
    _one_error_line(capsys)


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


def test_large_integer_entries_are_checked_exactly(files, capsys):
    # in int64 arithmetic these atoms pass every projection check, because
    # the 2^64 terms of their products wrap around to zero
    big = 2**32
    atoms = [{"id": "a", "matrix": {"re": [[1, big], [big, 0]]}},
             {"id": "b", "matrix": {"re": [[0, -big], [-big, 1]]}}]
    space, e, f = _two_point_rho_files(files[1], atoms)
    assert run(["rho", "--space", space, "--e", e, "--f", f]) == 1
    assert "not idempotent" in capsys.readouterr().err


def test_exact_defect_below_the_float_range_exits_1(files, capsys):
    # both atoms have A^2 - A = 10^-400 I, which is 0.0 as a float
    eps = "1/1" + "0" * 200
    atoms = [{"id": "a", "matrix": {"re": [[1, eps], [eps, 0]]}},
             {"id": "b", "matrix": {"re": [[0, "-" + eps], ["-" + eps, 1]]}}]
    space, e, f = _two_point_rho_files(files[1], atoms)
    assert run(["rho", "--space", space, "--e", e, "--f", f]) == 1
    assert "atom 'a': matrix not idempotent (defect 1e-400)" in capsys.readouterr().err


def test_exact_defect_past_the_int_string_limit_exits_1(files, capsys):
    # the defect 10^-4400 has a denominator of 4,401 digits, past the
    # interpreter's int-to-str limit
    eps = "1/1" + "0" * 2200
    atoms = [{"id": "a", "matrix": {"re": [[1, eps], [eps, 0]]}},
             {"id": "b", "matrix": {"re": [[0, "-" + eps], ["-" + eps, 1]]}}]
    space, e, f = _two_point_rho_files(files[1], atoms)
    assert run(["rho", "--space", space, "--e", e, "--f", f]) == 1
    err = capsys.readouterr().err
    assert err == "error: atom 'a': matrix not idempotent (defect 1e-4400)\n"


def test_exact_value_past_the_int_string_limit_is_reported(files, capsys):
    # W1 = (1/p - 1/q) / 2 = 1/(pq), whose denominator has about 4,400 digits
    p, q = 10**2200 + 1, 10**2200 + 3
    space, _, _ = _two_point_rho_files(files[1], SWAPPED_ATOMS)
    mu = files[1]("mu.json", {"weights": [f"1/{p}", f"{p - 1}/{p}"]})
    nu = files[1]("nu.json", {"weights": [f"1/{q}", f"{q - 1}/{q}"]})
    assert run(["kantorovich", "--space", space, "--mu", mu, "--nu", nu]) == 0
    num, den = _capture(capsys)["results"]["value"].split("/")
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == Fraction(1, p * q)


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


def test_exact_and_float_atoms_keep_the_float_report(files, capsys):
    tmp, write = files
    mixed = [{"id": "a", "matrix": {"re": [["1/1", 0], [0, 0]]}},
             {"id": "b", "matrix": {"re": [[0.0, 0.0], [0.0, 1.0]]}}]
    space, e, f = _two_point_rho_files(write, mixed)
    assert run(["rho", "--space", space, "--e", e, "--f", f]) == 0
    expected = (
        '{"command":"rho","config":{"e":%s,"f":%s,"method":"vertex","restarts":50,'
        '"seed":0,"space":%s,"trials":200},'
        '"results":{"exact":null,"method":"vertex","value":0.5,'
        '"witness_phi":{"constant":1,"values":[0,-0.5]},'
        '"witness_vector":{"im":[0,0],"re":[0,1]}},"schema_version":1,'
        '"verdict":"pass"}\n'
    ) % (json.dumps(e), json.dumps(f), json.dumps(space))
    assert capsys.readouterr().out == expected


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_candidate_of_another_size_exits_2(files, capsys, dim):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    atoms = [
        {"id": pid, "matrix": {"re": np.diag([int(j % 2 == i) for j in range(dim)]).tolist()}}
        for i, pid in enumerate(("0", "1"))
    ]
    e = write("e.json", {"kind": "projection", "dim": dim, "atoms": atoms})
    assert run(["verify-fixed-point", "--ifs", ifs, "--depth", "1", "--e", e]) == 2
    _one_error_line(capsys)


def test_rho_on_measures_of_different_dims_exits_2(files, capsys):
    tmp, write = files
    atoms = [{"id": "a", "matrix": {"re": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]}},
             {"id": "b", "matrix": {"re": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]}}]
    space, e, f = _two_point_rho_files(write, atoms, 3)
    assert run(["rho", "--space", space, "--e", e, "--f", f]) == 2
    _one_error_line(capsys)


def test_cap_errors_exit_2(files, capsys, monkeypatch):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    assert run(["cuntz-verify", "--ifs", ifs, "--depth", "13"]) == 2
    assert "cap is 4096" in capsys.readouterr().err
    # the 16-point theta level is over the vertex row budget
    ct = build_tower(_THETA, 4)
    space = write("theta.json", space_to_obj(ct.level(4).space))
    e = write("e.json", ovm_to_obj(multiplication_pvm(ct, 4)))
    f = write("f.json", ovm_to_obj(swapped_diagonal_pvm(ct, 4)))
    for method in ("vertex", "sphere"):
        assert run(["rho", "--space", space, "--e", e, "--f", f, "--method", method]) == 2
        assert capsys.readouterr().err == (
            "error: vertex enumeration would build 1621620 rows, budget is 524288\n"
        )
    # and a two-point line is over a budget of one row
    monkeypatch.setattr(pvmk.metric_core, "VERTEX_ROWS_BUDGET", 1)
    space, e, f = _two_point_rho_files(write, SWAPPED_ATOMS)
    assert run(["rho", "--space", space, "--e", e, "--f", f]) == 2
    assert capsys.readouterr().err == "error: vertex enumeration would build 2 rows, budget is 1\n"


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


class _ClosedStdout:
    """A standard output whose reader is gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write


def test_closed_stdout_exits_2_with_one_error_line(files, capsys, monkeypatch):
    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = run(["phi-iterate", "--ifs", ifs, "--depth", "3", "--steps", "2"])
    monkeypatch.undo()
    assert code == 2
    _one_error_line(capsys)


def test_running_out_of_memory_exits_2_with_one_error_line(files, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    tmp, write = files
    ifs = write("ifs.json", DYADIC)
    monkeypatch.setattr(pvmk.cli, "phi_iterate", exhausted)
    assert run(["phi-iterate", "--ifs", ifs, "--depth", "3", "--steps", "2"]) == 2
    assert capsys.readouterr().err == "error: out of memory: the input is too large for this machine\n"


@pytest.mark.parametrize("seed_kind, steps", [("random-povm", 0), ("random-pvm", 0), ("random-povm", 1)])
def test_a_stack_over_the_byte_budget_exits_2_with_one_error_line(capsys, monkeypatch, seed_kind, steps):
    # 64 atoms of 64 x 64 float64: 2 MiB.  Only a random-povm seed drawn at
    # level 6 builds that stack, and is refused.  A random-pvm seed is a
    # frame and an assignment, and a step from level 5 keeps the level-5
    # seed, so those runs build no stack and pass; reading their final
    # atoms is refused.
    root = Path(__file__).resolve().parents[1]
    monkeypatch.setattr(pvmk.ovm, "STACK_BYTES_BUDGET", 1 << 20)
    traces = []
    real = pvmk.cli.phi_iterate
    monkeypatch.setattr(pvmk.cli, "phi_iterate", lambda *args, **kw: traces.append(real(*args, **kw)) or traces[-1])
    argv = ["phi-iterate", "--ifs", str(root / "sample_inputs" / "dyadic_ifs.json"), "--depth", "6",
            "--steps", str(steps), "--seed-kind", seed_kind]
    refusal = "an atom stack of shape (64, 64, 64) needs 2097152 bytes, budget is 1048576"
    if (seed_kind, steps) != ("random-povm", 0):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["verdict"] == "pass"
        with pytest.raises(pvmk.errors.StackTooLarge) as refused:
            traces[0].final.mats
        assert str(refused.value) == refusal
        return
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refusal}\n"


def test_every_size_refusal_is_an_input_too_large():
    # cli.run turns this one base class into exit 2
    refusals = [
        pvmk.errors.TowerTooLarge(8192, 4096),
        pvmk.errors.SpaceTooLarge(1 << 20, 1 << 19),
        pvmk.errors.StackTooLarge((1024, 1024, 1024), 1 << 33, 1 << 32),
        pvmk.errors.FrameTooLarge(670, 1.1e-10, 1e-10),
    ]
    for error in refusals:
        assert isinstance(error, pvmk.errors.InputTooLarge)


def test_the_budget_admits_a_depth_9_level_and_refuses_depth_10():
    # checked without allocating: the dyadic depth-9 seeds and steps ran
    # before the budget existed; depth 10's float64 step asked for 8 GiB
    for dtype in (np.int64, np.float64, np.complex128):
        pvmk.ovm.check_stack_budget(512, 512, dtype)
    with pytest.raises(pvmk.errors.StackTooLarge, match=r"\(1024, 1024, 1024\) needs 8589934592 bytes"):
        pvmk.ovm.check_stack_budget(1024, 1024, np.float64)


def test_reading_the_atoms_of_a_large_assignment_is_refused(monkeypatch):
    pvm = multiplication_pvm(build_tower(dyadic_ifs(), 6), 6)
    monkeypatch.setattr(pvmk.ovm, "STACK_BYTES_BUDGET", 1 << 20)
    with pytest.raises(pvmk.errors.StackTooLarge, match=r"\(64, 64, 64\) needs 2097152 bytes"):
        pvm.mats
    monkeypatch.setattr(pvmk.ovm, "STACK_BYTES_BUDGET", 1 << 21)
    assert pvm.mats.shape == (64, 64, 64)


def test_importing_the_cli_leaves_the_acceptance_sweep_unloaded():
    # only `pvmk suite` needs it, and it costs every other command's start-up
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, pvmk.cli; print('pvmk.acceptance' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_closed_pipe_prints_no_traceback():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes its report
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pvmk", "phi-iterate", "--ifs", "sample_inputs/dyadic_ifs.json",
             "--depth", "3", "--steps", "2"],
            cwd=root, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
