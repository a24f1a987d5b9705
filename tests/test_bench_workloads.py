"""The benchmark's workloads call the package as it is: one cycle of
requests of each, at seed 1, breaks none of its invariants, and a traced
``fi-wide`` request keeps the tracer's time budget. The modules
``benchmarks/workloads.py`` and ``benchmarks/tracing.py`` are loaded from
their files and left unchanged."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("bench_workloads", BENCHMARKS / "workloads.py")
tracing = _load("bench_tracing", BENCHMARKS / "tracing.py")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_cycle_of_each_workload_keeps_its_invariants(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    for i in range(workload.cycle):
        inputs = workload.prepare(i)
        checked = workload.check(inputs, workload.call(inputs))
        assert checked.broken == [], f"{name} request {i}"


def test_a_traced_fi_wide_request_keeps_the_time_budget(tmp_path):
    # adp-fi draws database 0 on a helper thread; a wrapped function run
    # there would push spans onto the tracer's one stack, and the self
    # times would no longer add up to the traced wall
    workload = workloads.WORKLOADS["fi-wide"](1, tmp_path)
    tracer = tracing.Tracer(workloads.dp)
    cfg = workload.prepare(0)
    workload.call(cfg)  # calibrates outside the trace, as the benchmark's warm-up does
    tracer.install()
    try:
        with tracer.request(0):
            out = workload.call(cfg)
    finally:
        tracer.uninstall()
    assert workload.check(cfg, out).broken == []
    metrics = tracer.layer_metrics(workload.trials)
    assert metrics["harness.trials"] == 1.0
