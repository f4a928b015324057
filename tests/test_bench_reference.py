"""The benchmark's own output check, run on the first ops of each workload.

``perfbench/run.py`` checks every op it times against ``reference.json``,
the seed-0 outputs recorded at the commit that defines correct: the
``figure`` and ``basis`` stdout digests, the Faber coefficient digests,
and every tau to within ``TAU_TOL``.  This test runs the first
OPS_PER_WORKLOAD seed-0 ops of each workload through the same
``execute``, ``summarize`` and ``check_outputs`` and expects no failure
and no problem, so that an output change fails here and not only in a
timed benchmark run.  The benchmark files are loaded by path and used as
they are.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
OPS_PER_WORKLOAD = 40


def _load(name):
    module_name = f"perfbench_{name}"
    if module_name in sys.modules:  # already loaded by another benchmark test
        return sys.modules[module_name]
    spec = importlib.util.spec_from_file_location(module_name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


run, workloads = (_load(name) for name in ("run", "workloads"))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_seed_zero_ops_match_the_reference(workload):
    wl = workloads.WORKLOADS[workload]
    ops = wl.generate(run.REFERENCE_SEED)
    reference = run.load_reference(workload, run.REFERENCE_SEED)
    assert len(reference) >= OPS_PER_WORKLOAD
    records = []
    for i, op in enumerate(ops[:OPS_PER_WORKLOAD]):
        failure, seconds, output = run.execute(wl, op)
        kept = None if failure is not None else wl.summarize(op, output)
        records.append((i, failure, seconds, kept, None))
    failures = [(i, ops[i].describe(), failure) for i, failure, *_ in records if failure is not None]
    assert not failures
    assert run.check_outputs(wl, ops, records, reference) == []
