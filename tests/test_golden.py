"""Golden outputs of the certify commands.

``invariants``, ``wellarranged`` and ``series`` run with ``--format json``
on every bundled net and on ``wakatsuki-q2`` (an irrational realization,
kept beside this file) from every start class, and on one copy of each net
under a unimodular change of basis; stdout, stderr and the exit code must
match ``golden_certify.json`` byte for byte.  A change that means to alter
these outputs rewrites the file with ``python tests/test_golden.py`` and
says why.
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path

import pytest

from perigraph import emit_net
from perigraph.cli import run_command

from conftest import TESTS, load_test_net

GOLDEN = TESTS / "golden_certify.json"
NETS = ("z1", "z2", "z3", "dia", "wakatsuki", "wakatsuki-q2")
COMMANDS = ("invariants", "wellarranged", "series")
# one change of basis per rank; rank 1 has no shear, so z1 is mirrored
BASIS = {1: ((-1,),), 2: ((1, 1), (0, 1)),
         3: ((1, 1, 0), (0, 1, -1), (0, 0, 1))}


def _changed_basis(graph):
    u = BASIS[graph.rank]

    def apply(vec):
        return tuple(sum(r * x for r, x in zip(row, vec)) for row in u)
    return replace(graph, name=f"{graph.name}-sheared",
                   edges=tuple(replace(e, vector=apply(e.vector))
                               for e in graph.edges),
                   realization=tuple(map(apply, graph.realization)))


def _cases():
    for name in NETS:
        graph = load_test_net(name)
        for sheared in (False, True):
            for start in graph.class_names:
                for command in COMMANDS:
                    yield name, sheared, start, command


def _net_file(directory, name, sheared):
    graph = load_test_net(name)
    if sheared:
        graph = _changed_basis(graph)
    path = Path(directory) / f"{graph.name}.net"
    if not path.exists():
        path.write_text(emit_net(graph))
    return path


def _run(directory, name, sheared, start, command):
    out, err = StringIO(), StringIO()
    path = _net_file(directory, name, sheared)
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command([command, str(path), "--start", start,
                            "--format", "json"])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _key(name, sheared, start, command):
    return f"{name}{'-sheared' if sheared else ''}/{start}/{command}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-nets")


@pytest.mark.parametrize("case", list(_cases()),
                         ids=lambda case: _key(*case).replace("/", "-"))
def test_certify_output_is_golden(case, golden, net_dir):
    assert _run(net_dir, *case) == golden[_key(*case)]


def test_golden_file_has_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        table = {_key(*case): _run(tmp, *case) for case in _cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} outputs to {GOLDEN}", file=sys.stderr)
