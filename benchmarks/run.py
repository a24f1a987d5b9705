"""dp-audit benchmark: one workload, closed loop, one client.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload reduction --seed 1 --seconds 10 --trace 0

The load is a closed loop: one client in one process and one thread
sends the next request when the previous one returns. Each request is
timed alone; the client's own work between requests (building inputs,
checking outputs) is not counted. One warm-up cycle of requests runs
before timing starts.

With ``--trace 0`` the run reports the end-to-end metrics; ``setup_s``
is the median over fresh processes of the time to import dpaudit and
build the workload's inputs. The fresh processes are started between
cycles of requests, spread evenly over the timed window (whose clock
stops while they run), so that one busy moment of the host cannot decide
the median. With ``--trace 1`` cycles of requests
alternate between untraced and traced, the traced ones give the
per-layer metrics (see tracing.py), and the difference in wall time per
verdict gives ``trace.overhead_frac``; the spans are written to
``.bench_out/`` in the checkout.

Every request's outputs are checked (see workloads.py). A request fails
if it raises or breaks an exact invariant; verdict correctness is gated
per ground-truth class on a Wilson 95% interval; a class whose rate is
below the promise today is named in its workload's ``known_failures``
and printed on every run. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit
code is 1 when a check fails. A run in which too few requests succeed
to give the metrics prints no result line.
"""

from __future__ import annotations

import time

# a --setup-probe child counts setup from here: the runner's own imports,
# then dpaudit's, then building the workload's inputs
_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from summary import tail_percentile, wilson_gate
from tracing import PER_LAYER_UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: End-to-end metrics and their units, in BENCHMARK.json order.
END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_verdict": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Fresh processes timed for setup_s; the median is reported. Each is
#: followed by an untimed cycle of requests, as it leaves the caches cold.
SETUP_PROBES = 9

#: Timed requests a run needs at least, so that the tail has 10 beyond it.
MIN_REQUESTS = 20


def _import_workloads():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dpaudit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no dpaudit sources under {src}")
    sys.path.insert(0, str(src))
    import workloads

    origin = Path(workloads.dp.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"benchmark: dpaudit imported from {origin}, not from {src}")
    return workloads


def _manifest(args) -> dict:
    try:
        load = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        load = None
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": load,
    }


def _setup_probe(args) -> int:
    """Child of --setup-probe: print the seconds from start-up to built inputs."""
    workdir = OUT_DIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads = _import_workloads()
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(repr(time.perf_counter() - _STARTED))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_seconds(args) -> float:
    probe = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(probe.stdout.strip().splitlines()[-1])


class Client:
    """Closed-loop client: sends requests, times them, checks outputs."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.classes: dict[str, list[int]] = {}
        self.known: dict[str, list[int]] = {}
        self.errors: list[str] = []

    def send(self, i: int, span=None):
        """Run request i; returns (wall s, CPU s, Checked or None if it failed)."""
        w = self.workload
        self.attempted += 1
        inputs = w.prepare(i)
        try:
            cpu = time.process_time()
            start = time.perf_counter()
            if span is None:
                out = w.call(inputs)
            else:
                with span(i):
                    out = w.call(inputs)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
            checked = w.check(inputs, out)
        except Exception as exc:  # a request that raises counts as failed
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return 0.0, 0.0, None
        if checked.broken:
            self._fail(i, "; ".join(checked.broken))
            return 0.0, 0.0, None
        for tallies, counts in ((self.classes, checked.classes), (self.known, checked.known)):
            for label, (good, total) in counts.items():
                tally = tallies.setdefault(label, [0, 0])
                tally[0] += good
                tally[1] += total
        return wall, cpu, checked

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"request {i}: {message}")

    def gates(self) -> bool:
        passed = self.failed == 0
        known_failures = getattr(self.workload, "known_failures", {})
        for label, (correct, total) in sorted(self.classes.items()):
            ok, low, high = wilson_gate(correct, total)
            verdict = "pass" if ok else "FAIL"
            if label in known_failures:
                floor, defect = known_failures[label]
                verdict = f"known failure ({defect}): " + (
                    "now meets the promise" if ok else "still below the promise"
                )
                ok = high >= floor
                verdict += f", above its floor {floor}" if ok else f", FAIL: below its floor {floor}"
            passed &= ok
            print(
                f"gate {label}: {correct}/{total} verdicts correct, "
                f"Wilson 95% [{low:.4f}, {high:.4f}] vs promised 2/3: {verdict}"
            )
        for name, (held, total) in sorted(self.known.items()):
            print(
                f"known failure {name}: holds in {held} of {total} checks"
                + ("; the defect looks fixed" if held == total else "")
            )
        for error in self.errors:
            print(f"failed {error}")
        return passed


def _run_untraced(args, workload, client: Client) -> dict | None:
    walls, cpus, verdicts, samples, setups, timed = [], [], 0, 0, [], 0
    for i in range(workload.cycle):  # warm-up cycle, checked but not timed
        client.send(i)
    i = workload.cycle
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or i % workload.cycle or timed < MIN_REQUESTS:
        elapsed = time.perf_counter() - started
        due = len(setups) < SETUP_PROBES and elapsed >= len(setups) * args.seconds / SETUP_PROBES
        if due and i % workload.cycle == 0:
            setups.append(_setup_seconds(args))
            for _ in range(workload.cycle):  # warm up again, untimed
                client.send(i)
                i += 1
            started = time.perf_counter() - elapsed  # the window's clock stops meanwhile
            continue
        wall, cpu, checked = client.send(i)
        i += 1
        timed += 1
        if checked:
            walls.append(wall)
            cpus.append(cpu)
            verdicts += checked.verdicts
            samples += checked.samples
    if len(walls) < MIN_REQUESTS:
        print(f"only {len(walls)} of {timed} timed requests succeeded; no metrics")
        return None
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_seconds(args))
    tail, percentile, beyond = tail_percentile(walls)
    busy = sum(walls)
    print(f"requests timed: {len(walls)}, verdicts: {verdicts}, busy wall: {busy:.3f} s")
    print(f"latency tail: p{percentile:.3f} of {len(walls)} requests, {beyond} beyond it")
    if samples:
        print(f"metric samples_per_s = {samples / busy!r} 1/s")
    print(f"metric failed_frac = {client.failed / client.attempted!r} ({client.failed} of {client.attempted} requests)")
    return {
        "verdicts_per_s": verdicts / busy,
        "latency_p50_ms": 1e3 * statistics.median(walls),
        "latency_tail_ms": 1e3 * tail,
        "cpu_ms_per_verdict": 1e3 * sum(cpus) / verdicts,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _run_traced(args, workload, client: Client, tracer: Tracer, manifest: dict) -> dict | None:
    for i in range(workload.cycle):
        client.send(i)
    i = workload.cycle
    wall = [0.0, 0.0]  # untraced, traced
    verdicts = [0, 0]
    started = time.perf_counter()
    # at least one traced and one untraced cycle, whatever their outcome
    while time.perf_counter() - started < args.seconds or i % (2 * workload.cycle) or i < 4 * workload.cycle:
        traced = (i // workload.cycle) % 2
        if traced:
            tracer.install()
        try:
            w, _cpu, checked = client.send(i, tracer.request if traced else None)
        finally:
            tracer.uninstall()
        wall[traced] += w
        verdicts[traced] += checked.verdicts if checked else 0
        i += 1
    if 0 in verdicts:
        print(f"verdicts untraced, traced: {verdicts}; no metrics")
        return None
    metrics = tracer.layer_metrics(verdicts[1])
    per_verdict = [wall[k] / verdicts[k] for k in (0, 1)]
    metrics["trace.overhead_frac"] = (per_verdict[1] - per_verdict[0]) / per_verdict[0]
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.txt.gz"
    tracer.dump(path, manifest)
    print(f"traced verdicts: {verdicts[1]}, untraced verdicts: {verdicts[0]}; spans in {path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        return _setup_probe(args)

    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    manifest = _manifest(args)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        client = Client(workload)
        if args.trace:
            values = _run_traced(args, workload, client, Tracer(workloads.dp), manifest)
            units = PER_LAYER_UNITS
        else:
            values = _run_untraced(args, workload, client)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if values is None:
        client.gates()
        return 1
    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit}")
    correct = client.gates()
    result = {
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
