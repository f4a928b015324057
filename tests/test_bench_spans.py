"""The traced benchmark run reaches every span it expects.

``perfbench/run.py --trace 1`` exits 3 when a span listed in its
EXPECTED_SPANS gets no calls, which happens when a refactor moves,
renames or bypasses a traced function.  This test runs each workload's
warmup op (and, for sweep, one figure and one basis op as well) under
the benchmark's own Tracer, so that such a break shows at test time.
The benchmark files are loaded by path and used as they are.  The
memoized ``j_series``, 1/E_{k'} and j-power table are cleared first: an
earlier test that built j, inverted E_{k'}, or built the table at the
same order would otherwise leave ``qseries.eta_unit``,
``qseries.j_series``, ``qseries.eisenstein_series`` or ``qseries.inverse``
without calls.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from faberzeros.faber import _eisenstein_inverse, j_power_table
from faberzeros.qseries import j_series

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


run, tracing, workloads = (_load(name) for name in ("run", "tracing", "workloads"))

EXTRA_OPS = {
    "sweep": (
        workloads.Op("figure", ("figure", "--D", "3", "--k-min", "2400", "--k-max", "4800")),
        workloads.Op("basis", ("basis", "--k", "48")),
    ),
}


@pytest.mark.parametrize("workload", sorted(run.EXPECTED_SPANS))
def test_traced_ops_reach_every_expected_span(workload):
    wl = workloads.WORKLOADS[workload]
    j_series.cache_clear()
    _eisenstein_inverse.cache_clear()
    j_power_table.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in (wl.warmup, *EXTRA_OPS.get(workload, ())):
            wl.execute(op)
    finally:
        tracer.uninstall()
    missing = [span for span in run.EXPECTED_SPANS[workload] if tracer.calls[span] == 0]
    assert not missing, f"spans with no calls on {workload}: {missing}"
