"""The command line's input contract: malformed documents exit 2 with one
error line, never a traceback, whatever is wrong with them."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pvmk.cli import run
from pvmk.ifs import dyadic_ifs, triadic_ifs
from pvmk.rationals import rational_str
from pvmk.schemas import ifs_from_obj, load_json

SAMPLES = Path(__file__).resolve().parents[1] / "sample_inputs"

# Which sample document fills each document flag of a command.
SAMPLE_FILES = {
    "space": "two_point_space.json",
    "mu": "mu.json",
    "nu": "nu.json",
    "e": "pvm_truth.json",
    "f": "pvm_swapped.json",
    "ifs": "dyadic_ifs.json",
    "h": "h_uniform.json",
}

COMMANDS = {
    "space": ["space", "--space"],
    "kantorovich": ["kantorovich", "--space", "--mu", "--nu"],
    "rho": ["rho", "--space", "--e", "--f"],
    "hutchinson": ["hutchinson", "--depth", "2", "--ifs"],
    "cuntz-verify": ["cuntz-verify", "--depth", "2", "--ifs"],
    "phi-iterate": ["phi-iterate", "--depth", "2", "--steps", "1", "--ifs"],
    "verify-fixed-point": ["verify-fixed-point", "--depth", "2", "--ifs"],
    "relate-verify": ["relate-verify", "--depth", "3", "--ifs", "--h"],
}


def _argv(command: str, flag: str | None = None, path=None) -> list[str]:
    """The command on the sample documents, with --flag read from path."""
    argv = []
    for arg in COMMANDS[command]:
        argv.append(arg)
        name = arg[2:]
        if name in SAMPLE_FILES:
            argv.append(str(path) if name == flag else str(SAMPLES / SAMPLE_FILES[name]))
    return argv


def _run_quietly(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _sample(flag: str):
    return json.loads((SAMPLES / SAMPLE_FILES[flag]).read_text())


MALFORMED = {
    "vector-not-an-object": ("relate-verify", "h", "[0.5, 0.5]"),
    "vector-unparsable-entry": (
        "relate-verify", "h", json.dumps({"re": ["1/2", "half"] + ["0/1"] * 6}),
    ),
    "space-point-without-id-rho": (
        "rho", "space", json.dumps({"points": [{"id": "a"}, {}], "dist": [[0, 1], [1, 0]]}),
    ),
    "space-point-without-id-kantorovich": (
        "kantorovich", "space",
        json.dumps({"points": [{"coord": [0]}, {"id": "b"}], "dist": [[0, 1], [1, 0]]}),
    ),
    "space-unparsable-coord": (
        "space", "space",
        json.dumps({"points": [{"id": "a", "coord": ["x"]}, {"id": "b"}], "dist": [[0, 1], [1, 0]]}),
    ),
    "space-without-points": ("space", "space", json.dumps({"points": [], "dist": []})),
    "space-nan-distance": (
        "space", "space",
        '{"points": [{"id": "a"}, {"id": "b"}], "dist": [[0, NaN], [NaN, 0]]}',
    ),
    "ifs-infinite-ratio": (
        "hutchinson", "ifs",
        '{"branches": [{"r": Infinity, "b": 0}, {"r": 0.5, "b": 0.5}]}',
    ),
    "ifs-unparsable-branch-count": (
        "cuntz-verify", "ifs", json.dumps({**_sample("ifs"), "N": "x"}),
    ),
    "measure-weights-not-a-list": ("kantorovich", "mu", json.dumps({"weights": 5})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2(tmp_path, case):
    command, flag, text = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = _run_quietly(_argv(command, flag, path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_huge_decimal_exponent_exits_2_at_once(tmp_path):
    # 10^999999999 takes longer to build than any timeout here, so the
    # input runs in a child process that the timeout can end
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"weights": ["1e999999999", "0"]}))
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = [sys.executable, "-m", "pvmk", *_argv("kantorovich", "mu", mu)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: decimal exponent too large: '1e999999999'\n"


def test_rho_on_an_empty_space_exits_2(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": [], "dist": []}))
    measure = tmp_path / "ovm.json"
    measure.write_text(json.dumps({"kind": "projection", "dim": 1, "atoms": []}))
    argv = ["rho", "--space", str(space), "--e", str(measure), "--f", str(measure)]
    code, out, err = _run_quietly(argv)
    assert code == 2
    assert out == ""
    assert err == "error: a metric space needs at least one point\n"


UNKNOWN_IFS_FIELDS = {
    # "theta" belongs under "symbolic_metric"; at the top level it used to be
    # ignored, and the run went on in the coordinate metric
    "top-level": ({**_sample("ifs"), "theta": "1/3", "bogus": 1}, "'bogus', 'theta'"),
    "branch": (
        {**_sample("ifs"), "branches": [{"r": "1/2", "b": "0/1", "R": "1/3"}, {"r": "1/2", "b": "1/2"}]},
        "'R'",
    ),
    "symbolic-metric": ({**_sample("ifs"), "symbolic_metric": {"theta": "1/3", "thetta": "1/4"}}, "'thetta'"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_IFS_FIELDS))
def test_unknown_ifs_field_exits_2_naming_it(tmp_path, case):
    doc, named = UNKNOWN_IFS_FIELDS[case]
    path = tmp_path / "ifs.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_quietly(_argv("phi-iterate", "ifs", path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("name", ["dyadic_ifs.json", "triadic_ifs.json"])
def test_sample_ifs_documents_load(name):
    expected = {"dyadic_ifs.json": dyadic_ifs(), "triadic_ifs.json": triadic_ifs()}[name]
    assert ifs_from_obj(load_json(SAMPLES / name)) == expected


def test_rational_vector_matches_float_sample(tmp_path):
    h = _sample("h")
    exact = {"re": [rational_str(Fraction(x)) for x in h["re"]]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(exact))
    code_float, out_float, _ = _run_quietly(_argv("relate-verify"))
    code_exact, out_exact, _ = _run_quietly(_argv("relate-verify", "h", path))
    assert code_float == code_exact == 0
    assert json.loads(out_exact)["results"] == json.loads(out_float)["results"]


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        ["", "x", "1/2", "-3/4", "1/0", "nan", "inf", "1e400", "1/" + "7" * 300, "7" * 300 + "/1"]
    ),
    st.just([]),
    st.just({}),
    # an exponent far past its digits is refused before its power is built
    st.builds("1e{}".format, st.integers(-(10**12), 10**12)),
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _mutate(data, doc):
    """Up to three edits: drop, retype, wrap or duplicate one node."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        op = data.draw(st.sampled_from(["drop", "replace", "wrap", "duplicate"]))
        if not path:
            doc = [doc] if op == "wrap" else data.draw(LEAVES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "drop":
            del parent[key]
        elif op == "replace":
            parent[key] = data.draw(LEAVES)
        elif op == "wrap":
            parent[key] = [parent[key]]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], copy.deepcopy(parent[key])]
    return doc


FLAG_COMMANDS = sorted(
    (flag, command)
    for command, args in COMMANDS.items()
    for flag in (arg[2:] for arg in args)
    if flag in SAMPLE_FILES
)


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data(), target=st.sampled_from(FLAG_COMMANDS))
def test_mutated_documents_keep_the_exit_contract(tmp_path, data, target):
    flag, command = target
    doc = _mutate(data, _sample(flag))
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    code, _out, err = _run_quietly(_argv(command, flag, path))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
