"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 benchmarks/steady.py [--trace] [--out FILE]

For every workload it runs ``benchmarks/run.py`` once per seed 1 .. 10
with the run length from BENCHMARK.json, one run at a time, and prints
per end-to-end metric the median and the quartile spread
(Q3 - Q1) / median next to the metric's bound. It exits 1 unless every
spread is below a third of its bound; ``setup_s``, which times fresh
processes and so varies most with the host's load, need only be below
its full bound. With ``--trace`` it makes one traced run per workload as
well. ``--out`` writes the medians and the machine manifest as one point
of the BENCH trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import quartile_spread

ROOT = Path(__file__).resolve().parent.parent

#: Runs per workload, seeds 1 .. RUNS.
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    manifest = json.loads(lines[0].removeprefix("manifest "))
    return {"manifest": manifest, "result": json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    point = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, spec["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        entry = {"manifests": [r["manifest"] for r in runs], "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            spread = quartile_spread(values)
            limit = metric["bound"] if metric["name"] == "setup_s" else metric["bound"] / 3.0
            ok = spread < limit
            steady &= ok
            entry["end_to_end"][metric["name"]] = {
                "median": statistics.median(values),
                "quartile_spread": spread,
                "unit": metric["unit"],
            }
            print(
                f"{workload:14s} {metric['name']:20s} median {statistics.median(values):14.6g} "
                f"{metric['unit']:5s} spread {spread:7.4f} bound {metric['bound']:.3f}"
                f"{'' if ok else f'  <- not below {limit:.3f}'}  "
                + " ".join(f"{v:.5g}" for v in values),
                flush=True,
            )
        if args.trace:
            traced = _run(workload, 1, spec["run_seconds"], 1)["result"]["metrics"]
            entry["per_layer"] = {name: m["value"] for name, m in traced.items()}
        point["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
