"""Tests of the benchmark's own code.

Run from the root of a checkout: python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from summary import tail_percentile, wilson_gate
from tracing import PER_LAYER_UNITS, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
workloads = run._import_workloads()
dp = workloads.dp


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(range(100, 0, -1)) == (90, 90.0, 10)
    assert tail_percentile(range(1, 12)) == (1, 100.0 / 11, 10)
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def test_wilson_gate_fails_only_when_the_interval_lies_below_two_thirds():
    assert wilson_gate(60, 100)[0]
    assert not wilson_gate(50, 100)[0]
    assert not wilson_gate(0, 20)[0]
    assert wilson_gate(3, 3)[0]


def test_self_time_is_duration_minus_child_coverage():
    # request [0, 10] holds a [1, 4], which holds b [2, 3], and c [5, 9]
    starts, ends, parents = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0], [-1, 0, 1, 0]
    selfs = self_times(starts, ends, parents)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == ends[0] - starts[0]


def test_overlapping_or_overhanging_children_are_covered_once():
    # children [1, 5] and [2, 6] overlap; [8, 12] overhangs its parent
    selfs = self_times([0.0, 1.0, 2.0, 8.0], [10.0, 5.0, 6.0, 12.0], [-1, 0, 0, 0])
    assert selfs[0] == 10.0 - 5.0 - 2.0


def test_tracer_wraps_every_module_binding_and_restores_them():
    import dpaudit.cli
    import dpaudit.noinfo

    original = dpaudit.noinfo.adp_test_budgeted
    original_init = dp.MechanismPair.__init__
    tracer = Tracer(dp)
    tracer.install()
    try:
        wrapped = dpaudit.noinfo.adp_test_budgeted
        assert wrapped is not original
        assert dpaudit.cli.adp_test_budgeted is wrapped and dp.adp_test_budgeted is wrapped
        with tracer.request(7):
            mech = dp.leaky_mechanism(0.5, seed=1)
            dp.adp_test_budgeted(mech, 0.0, 0.05, 0.1, 100)
        dp.tv_distance(*mech.truth)  # outside any request: not recorded
    finally:
        tracer.uninstall()
    assert dpaudit.cli.adp_test_budgeted is original
    assert dp.MechanismPair.__init__ is original_init
    assert [tracer.names[i] for i in tracer.name_ids] == [
        "unattributed.request",
        "mechanisms.leaky_mechanism",
        "mechanisms.MechanismPair.__init__",
        "noinfo.adp_test_budgeted",
        "mechanisms.MechanismPair.draw",
        "mechanisms.MechanismPair.draw",
    ]
    assert set(tracer.requests) == {7}
    metrics = tracer.layer_metrics(verdicts=1)
    assert metrics["mechanisms.draw.samples"] == 200
    assert metrics["mechanisms.samples_per_draw"] == 100
    assert metrics["noinfo.tester.calls"] == 1
    assert set(metrics) | {"trace.overhead_frac"} == set(PER_LAYER_UNITS)


class _Stub:
    cycle = 1

    def prepare(self, i):
        return i

    def call(self, i):
        if i == 2:
            raise RuntimeError("request raised")
        return i

    def check(self, i, out):
        checked = workloads.Checked(verdicts=1, classes={"private": [1, 1]})
        checked.expect(out != 1, "invariant broken")
        return checked


def test_raising_or_broken_requests_count_as_failed_and_fail_the_run():
    client = run.Client(_Stub())
    assert [client.send(i)[2] is not None for i in range(4)] == [True, False, False, True]
    assert (client.attempted, client.failed) == (4, 2)
    assert not client.gates()


class _Raising(_Stub):
    def __init__(self, seed=0, workdir=None):
        pass

    def call(self, i):
        raise RuntimeError("request raised")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_whose_every_request_fails_ends_without_a_result(monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "raising", _Raising)
    monkeypatch.setattr(run, "_setup_seconds", lambda args: 0.1)
    argv = ["--workload", "raising", "--seed", "1", "--seconds", "0.05", "--trace", trace]
    assert run.main(argv) == 1
    out = capsys.readouterr().out
    assert "no metrics" in out and "RuntimeError: request raised" in out
    assert '"metrics"' not in out


class _Known(_Stub):
    known_failures = {"far": (0.4, "a recorded defect")}

    def __init__(self, far_correct):
        self.far_correct = far_correct

    def check(self, i, out):
        checked = workloads.Checked(verdicts=1, classes={"far": [self.far_correct, 100]})
        checked.expect_known("exact defect", i % 2 == 0)
        return checked


@pytest.mark.parametrize(
    "far_correct, passed, note",
    [(50, True, "still below the promise, above its floor"),
     (90, True, "now meets the promise, above its floor"),
     (20, False, "still below the promise, FAIL: below its floor")],
)
def test_a_known_failure_is_printed_and_fails_the_run_only_below_its_floor(capsys, far_correct, passed, note):
    client = run.Client(_Known(far_correct))
    for i in (0, 1, 3):
        client.send(i)
    assert client.gates() is passed
    out = capsys.readouterr().out
    assert f"known failure (a recorded defect): {note}" in out
    assert "known failure exact defect: holds in 1 of 3 checks\n" in out


def test_metric_names_and_units_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER_UNITS.items())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "exact-certify",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
