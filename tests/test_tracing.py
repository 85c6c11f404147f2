"""perfbench/tracing.py wraps package functions by module and name; a
rename in the package must fail here, not in a traced benchmark run, and a
counter that a refactor leaves at 0 must fail here too."""

import importlib.util
from pathlib import Path

from perigraph.cli import run_command
from perigraph.data import fixture_path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_installs_and_removes_every_wrapper():
    tracing = _tracing()
    # install raises LookupError on a wrapped name the package lacks, and
    # remove raises RuntimeError on a wrapper left bound
    swaps = tracing.install(tracing.Tracer())
    tracing.remove(swaps)
    wrapped = {(mod, attr) for _, mod, attr, _ in tracing.WRAPPED}
    assert len(swaps) >= len(wrapped)


def test_traced_certify_counters_are_nonzero(capsys):
    """dia's invariants and series calls, traced: the c2 targets (the length
    of vertices_in_regions), c1's gauge call and the well-arranged search
    must each be counted."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    swaps = tracing.install(tracer)
    try:
        for command in ("invariants", "series"):
            assert run_command([command, str(fixture_path("dia.net")),
                                "--start", "a", "--format", "json"]) == 0
    finally:
        tracing.remove(swaps)
    capsys.readouterr()
    counters = ("invariants.region_targets", "geometry.gauge.calls",
                "invariants.wa.calls")
    assert [c for c in counters if not tracer.counts[c]] == []
