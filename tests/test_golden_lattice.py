"""Golden outputs of the lattice commands.

``ehrhart --format json --terms 7`` runs on every bundled polytope at
alpha 0, 1/2 and -1/3, with the zero shift and with a rational one;
``gammaq`` writes each polytope's net to stdout, and ``gammaq -o`` with
``--format json`` and ``growth --terms 16`` run on that net.  stdout,
stderr and the exit code must match ``golden_lattice.json`` byte for byte.
A change that means to alter these outputs rewrites the file with
``python tests/test_golden_lattice.py`` and says why.
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from perigraph.cli import run_command
from perigraph.data import fixture_path

from conftest import TESTS

GOLDEN = TESTS / "golden_lattice.json"
POLYTOPES = ("square", "reflexive_triangle", "crosspolytope")
ALPHAS = ("0", "1/2", "-1/3")
SHIFTS = (None, "1/2,-1/3")
NET_COMMANDS = ("gammaq", "gammaq-report", "growth")


def _cases():
    for name in POLYTOPES:
        for alpha in ALPHAS:
            for shift in SHIFTS:
                yield name, "ehrhart", alpha, shift
        for command in NET_COMMANDS:
            yield name, command, None, None


def _argv(directory, name, command, alpha, shift):
    poly = str(fixture_path(f"{name}.poly"))
    net = str(Path(directory) / f"{name}.gamma.net")
    if command == "ehrhart":
        argv = ["ehrhart", poly, f"--alpha={alpha}", "--terms", "7",
                "--format", "json"]
        return argv + ([f"--shift={shift}"] if shift else [])
    if command == "gammaq":
        return ["gammaq", poly]
    if command == "gammaq-report":
        return ["gammaq", poly, "-o", net, "--format", "json"]
    return ["growth", net, "--terms", "16", "--format", "json"]


def _run(directory, *case):
    name, command = case[:2]
    if command == "growth":
        # growth reads the net that gammaq-report writes
        _run(directory, name, "gammaq-report", None, None)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(_argv(directory, *case))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _key(name, command, alpha, shift):
    if command != "ehrhart":
        return f"{name}/{command}"
    return f"{name}/ehrhart/alpha={alpha}/shift={shift or '0'}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-lattice")


@pytest.mark.parametrize("case", list(_cases()),
                         ids=lambda case: _key(*case).replace("/", "-"))
def test_lattice_output_is_golden(case, golden, net_dir):
    assert _run(net_dir, *case) == golden[_key(*case)]


def test_golden_lattice_file_has_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        table = {_key(*case): _run(tmp, *case) for case in _cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} outputs to {GOLDEN}", file=sys.stderr)
