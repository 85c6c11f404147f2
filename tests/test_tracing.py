"""perfbench/tracing.py wraps package functions by module and name; a
rename in the package must fail here, not in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracing_installs_and_removes_every_wrapper():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # install raises LookupError on a wrapped name the package lacks, and
    # remove raises RuntimeError on a wrapper left bound
    swaps = tracing.install(tracing.Tracer())
    tracing.remove(swaps)
    wrapped = {(mod, attr) for _, mod, attr, _ in tracing.WRAPPED}
    assert len(swaps) >= len(wrapped)
