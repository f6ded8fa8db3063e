"""The README's library table and ``pvmk.__all__`` name only what exists, and
the table names every package export; the README's command synopsis names
each subcommand's options."""

import argparse
import importlib
import re
from pathlib import Path

import pytest

import pvmk
from pvmk.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _layout_rows() -> list:
    text = README.read_text(encoding="utf-8")
    table = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        match = re.match(r"\| `(pvmk\.\w+)` \| (.*) \|$", line)
        if match:
            rows.append((match.group(1), re.findall(r"`(\w+)`", match.group(2))))
    return rows


LAYOUT = [(module, name) for module, names in _layout_rows() for name in names]


def test_layout_table_is_read():
    modules = {module for module, _ in _layout_rows()}
    assert {"pvmk.cuntz", "pvmk.metric_core", "pvmk.transport", "pvmk.cli"} <= modules
    assert len(LAYOUT) >= 30


@pytest.mark.parametrize("module, name", LAYOUT, ids=[f"{m}.{n}" for m, n in LAYOUT])
def test_layout_table_names_exist(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("name", pvmk.__all__)
def test_package_exports_resolve(name):
    assert getattr(pvmk, name, None) is not None


def test_layout_table_names_every_export():
    listed = {name for _, name in LAYOUT}
    assert sorted(set(pvmk.__all__) - listed) == []


def _synopsis() -> dict:
    """Options per subcommand in the "Command line" synopsis block; a line
    ending in a backslash continues on the next."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```\n", 2)[1].replace("\\\n", " ")
    return {
        line.split()[1]: set(re.findall(r"--[a-z-]+", line))
        for line in block.splitlines()
        if line.startswith("pvmk ")
    }


def test_readme_synopsis_matches_the_parser():
    # --out and --timing are common to every subcommand, and the prose
    # documents them; argparse adds --help
    common = {"--out", "--timing", "--help"}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser_options = {
        name: {opt for a in p._actions for opt in a.option_strings if opt.startswith("--")} - common
        for name, p in sub.choices.items()
    }
    readme = {name: options - common for name, options in _synopsis().items()}
    assert readme == parser_options
