"""The benchmark's workloads call the package as it is: one cycle of
requests of each, at seed 1, breaks none of its invariants. The module
``benchmarks/workloads.py`` is loaded from its file and left unchanged."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_cycle_of_each_workload_keeps_its_invariants(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    for i in range(workload.cycle):
        inputs = workload.prepare(i)
        checked = workload.check(inputs, workload.call(inputs))
        assert checked.broken == [], f"{name} request {i}"
