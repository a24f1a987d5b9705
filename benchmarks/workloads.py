"""The benchmark's four workloads, driven through dpaudit's public names.

Each workload builds its inputs from the seed, runs one request per call
with the package's default options, and checks the outputs against a
ground truth known by construction. Inputs of request ``i`` depend only
on (seed, i). A request returns a :class:`Checked` record: how many
verdicts and oracle samples it produced, how many verdicts of each
ground-truth class were right, and which exact invariants it broke.

Functions are looked up on the ``dpaudit`` package at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dpaudit as dp
import dpaudit.cli

#: Tolerance for "exactly" in the invariants, the package's CERT_TOL.
TOL = 1e-12


@dataclass
class Checked:
    verdicts: int
    samples: int = 0
    #: ground-truth class -> [correct verdicts, verdicts]
    classes: dict = field(default_factory=dict)
    broken: list = field(default_factory=list)
    #: known defect -> [checks it passed, checks]; never fails the request
    known: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.broken.append(message)

    def expect_known(self, name: str, ok: bool) -> None:
        """Tally a check of a recorded defect, so that a fix shows."""
        tally = self.known.setdefault(name, [0, 0])
        tally[0] += int(ok)
        tally[1] += 1


def _count(rate: float, trials: int, checked: Checked) -> int:
    """Accepted trials behind an accept rate, which must be a whole count."""
    accepts = round(rate * trials)
    checked.expect(abs(rate * trials - accepts) < 1e-6, f"accept rate {rate!r} is not k/{trials}")
    return accepts


class Reduction:
    """``random_privacy_test`` with the inputs of acceptance criterion 08.

    Why: the Python-overhead-bound path of the reduction, m = 27 pairs x
    k = 54 inner ``adp_test_budgeted`` calls of 4800 samples per verdict,
    which batching the draws targets. It bypasses the harness, the
    full-information tester and the fixtures.
    """

    name = "reduction"
    cycle = 2  # a perfectly private family, then a flagged family
    trials, reps, budget = 27, 54, 4800

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        leaky = dp.leaky_mechanism(0.5)
        # neighbor pairs straddle the flag with measure 2 s (1 - s) = 0.3,
        # as far above gamma as the reduction must detect
        s = (1.0 - math.sqrt(0.4)) / 2.0
        self.cases = (
            ("private", dp.constant_family(leaky.truth[0]), dp.data_distribution([0])),
            (
                "far",
                dp.value_flag_family({1}, leaky.truth[1], leaky.truth[0]),
                dp.data_distribution([0, 1], [1.0 - s, s]),
            ),
        )

    def prepare(self, i: int):
        label, family, dd = self.cases[i % 2]
        return label, family, dd, np.random.default_rng([self.seed, i])

    @staticmethod
    def _inner(mech, rng):
        return dp.adp_test_budgeted(mech, 0.0, 0.05, 0.1, Reduction.budget)

    def call(self, inputs):
        _label, family, dd, rng = inputs
        return dp.random_privacy_test(
            family, dd, self._inner, gamma=0.1, alpha=0.2, penalty_weight=2.0, rng=rng
        )

    def check(self, inputs, out) -> Checked:
        label = inputs[0]
        expected = self.trials * self.reps * self.budget
        checked = Checked(verdicts=1, samples=sum(out.queries_used))
        checked.expect(out.queries_used == (expected, expected), f"queries {out.queries_used}")
        pair = (out.diagnostics["trials"], out.diagnostics["reps"])
        checked.expect(pair == (self.trials, self.reps), f"trials x reps {pair}")
        correct = out.accepted if label == "private" else out.rejected
        checked.classes[label] = [int(correct), 1]
        return checked


class FiWide:
    """``run_experiment`` with ``adp-fi`` on a 1024-outcome geometric ladder.

    Why: wide-universe sampling (multinomial over 1024 bins), identity
    calibration in a fresh in-memory cache per request (as the CLI runs
    without --cache) and the 31-rep identity loop all run here, while
    the no-information statistic and the reduction do almost nothing.
    """

    name = "fi-wide"
    cycle = 1
    trials = 20
    tester = {"kind": "adp-fi", "eps": 0.5, "delta": 0.0, "alpha": 0.3}
    target = {
        "mechanism": {"mechanism": "truncated_geometric", "eps": 0.5, "n": 1024},
        "side": "truth",
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self, i: int):
        return dp.ExperimentConfig(
            tester=self.tester,
            target=self.target,
            trials=self.trials,
            seed=self.seed * 1_000_003 + i,
        )

    def call(self, cfg):
        return dp.run_experiment(cfg)

    def check(self, cfg, out) -> Checked:
        row = out.grid[0]
        checked = Checked(verdicts=self.trials, samples=round(row.mean_queries * self.trials))
        accepts = _count(row.accept_rate, self.trials, checked)
        # the box is exactly its claim, so the claim is met with slack 0
        checked.expect(row.distance <= TOL, f"distance {row.distance!r}")
        checked.expect(row.wilson_low - TOL <= row.accept_rate <= row.wilson_high + TOL, "rate outside its interval")
        checked.expect(row.mean_queries > 0, "no samples drawn")
        checked.classes["private"] = [accepts, self.trials]
        return checked


class NiSweep:
    """``dp-audit sweep`` in process: ``adp-ni`` over an alpha grid.

    Why: per-trial overhead of the harness and the CLI (argument
    parsing, registries, pair spawning, the executor) with tiny draws on
    a two-outcome fixture; this is where removing the thread pool and the
    cost of a disabled trace show. The full-information tester and the
    reduction do nothing here.
    """

    name = "ni-sweep"
    cycle = 2  # the fixture's private instance, then its far instance
    # ~0.2 s per request: at much shorter requests, the host's sporadic
    # slow spells decide the tail latency
    trials = 500
    grid = ("0.2", "0.25", "0.3")
    far_alpha = 0.3
    #: gated class -> (floor, defect): the class is below the promised 2/3
    #: today, so its gate fails the run only if the rate drops below the floor
    known_failures = {
        "far alpha=0.3": (
            0.4,
            "adp-ni rejects at alpha equal to the distance about half the time",
        ),
    }
    header = "value,distance,accept_rate,wilson_low,wilson_high,mean_queries"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.config = workdir / "sweep.json"
        self.csv = workdir / "sweep.csv"

    def prepare(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        label = ("private", "far")[i % 2]
        # at eps = 0 both directions of the private pair have slack exactly
        # delta, and of the far pair delta + far_alpha >= delta + alpha
        delta = float(rng.uniform(0.05, 0.15))
        doc = {
            "tester": {"kind": "adp-ni", "eps": 0.0, "delta": delta, "alpha": self.far_alpha},
            "target": {
                "fixture": {
                    "name": "adp-twopoint",
                    "params": {"eps": 0.0, "delta": delta, "alpha": self.far_alpha},
                    "instance": label,
                }
            },
            "trials": self.trials,
            "seed": self.seed * 1_000_003 + i,
        }
        self.config.write_text(json.dumps(doc))
        self.csv.unlink(missing_ok=True)
        argv = [
            "sweep",
            "--config", str(self.config),
            "--parameter", "tester.alpha",
            "--values", ",".join(self.grid),
            "--out", str(self.csv),
        ]
        return label, argv

    def call(self, inputs):
        return dpaudit.cli.main(inputs[1])

    def check(self, inputs, code) -> Checked:
        label = inputs[0]
        checked = Checked(verdicts=self.trials * len(self.grid))
        checked.expect(code == 0, f"exit code {code}")
        lines = self.csv.read_text().splitlines() if code == 0 else []
        checked.expect(lines[:1] == [self.header], "CSV header changed")
        rows = [line.split(",") for line in lines[1:]]
        checked.expect([row[0] for row in rows] == list(self.grid), "CSV rows do not follow the grid")
        distance = 0.0 if label == "private" else self.far_alpha
        for value, dist, rate, low, high, mean_queries in rows:
            accepts = _count(float(rate), self.trials, checked)
            correct = accepts if label == "private" else self.trials - accepts
            checked.classes[f"{label} alpha={value}"] = [correct, self.trials]
            checked.expect(abs(float(dist) - distance) <= TOL, f"distance {dist}")
            checked.expect(float(low) - TOL <= float(rate) <= float(high) + TOL, "rate outside its interval")
            checked.samples += round(float(mean_queries) * self.trials)
        return checked


class ExactCertify:
    """Batches of certification jobs with no sampling, a verdict per job.

    A request is five rounds of jobs (~0.2 s, for the reason given at
    ``NiSweep.trials``). A round builds every registered
    fixture (``adp-lowfreq`` at n = 18, whose certificate enumerates
    2^18 events), evaluates the delta(eps) profile plus
    ``exact_pdp_epsilon`` of two geometric and two leaky zoo pairs at
    each n in {4, 64, 1024}, plus one geometric pair at n = 1024 with
    eps above the point where its tails underflow, and perturbs ten
    seeded random pairs with ``tight_perturbation`` as acceptance
    criterion 07 does. Single jobs
    range from 0.1 ms to 10 ms, so per-job latencies would put the
    median between job kinds.

    Why: the distributions and fixtures modules do under 2% of the work
    in the other workloads; without this one the exact-oracle rewrite
    would go unmeasured.
    """

    name = "exact-certify"
    cycle = 1
    rounds = 5
    perturbations = 10
    eps_grid = tuple(float(e) for e in np.linspace(0.0, 3.0, 61))

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        return [job for _ in range(self.rounds) for job in self._round(rng, i)]

    def _round(self, rng: np.random.Generator, i: int) -> list:
        u = rng.uniform
        eps, alpha = u(0.1, 0.5), u(0.05, 0.2)
        tilt = u(0.01, 0.2)
        base = {
            "mechanism": "explicit",
            "p0": {"probs": [0.5, 0.5, 0.0]},
            "p1": {"probs": [0.5 + tilt, 0.5 - tilt, 0.0]},
        }
        fixtures = {
            "pdp-unverifiable": {"eps": eps, "alpha": alpha, "A": 2 * eps + alpha + u(0.5, 3.0)},
            "adp-twopoint": {"eps": u(0.0, 0.3), "delta": u(0.0, 0.1), "alpha": u(0.05, 0.2)},
            "adp-lowfreq": {"n": 18, "delta": u(0.2, 0.4), "alpha": u(0.05, 0.15)},
            "fi-pdp": {"eps": u(0.1, 0.6), "alpha": u(0.05, 0.3), "beta": u(0.05, 0.3)},
            "mean-sideinfo": {
                "eps": math.log(0.5 / (0.5 - tilt)) + 0.1,
                "alpha": 0.1,
                "A": u(2.0, 8.0),
                "base": base,
            },
        }
        jobs = [("fixture", name, fixtures[name], i) for name in dp.FIXTURE_NAMES]
        for n in (4, 64, 1024, 4, 64, 1024):
            geo_eps = u(0.1, 1.0)
            jobs.append(("profile", ("geometric", geo_eps), dp.truncated_geometric(geo_eps, n).truth))
            leak = u(0.01, 0.5)
            jobs.append(("profile", ("leaky", leak), dp.leaky_mechanism(leak, n).truth))
        # from eps ~1.45 at n = 1024 the ladder's tails underflow to zero and
        # exact_pdp_epsilon reports inf: a known defect, tallied, not gated
        geo_eps = u(1.5, 2.5)
        jobs.append(("profile", ("geometric-underflow", geo_eps), dp.truncated_geometric(geo_eps, 1024).truth))
        perturbations = 0
        while perturbations < self.perturbations:
            n = int(rng.integers(2, 9))
            p = dp.make_distribution(rng.random(n) + 1e-9)
            q = dp.make_distribution(rng.random(n) + 1e-9)
            eps = (0.0, 0.2, 0.7)[perturbations % 3]
            slack = dp.delta_at_epsilon(p, q, eps)
            cap = (1.0 - slack) / (1.0 + math.exp(eps))
            if slack > 1e-6 and cap > 1e-8:
                jobs.append(("perturb", (p, q, eps, float(u(0.05, 1.0)) * cap), slack))
                perturbations += 1
        return jobs

    def call(self, jobs: list) -> list:
        return [self._run(job) for job in jobs]

    def _run(self, job):
        kind = job[0]
        if kind == "fixture":
            _kind, name, params, seed = job
            return dp.build_fixture(name, params, seed=seed)
        if kind == "profile":
            p0, p1 = job[2]
            return [dp.delta_at_epsilon(p0, p1, e) for e in self.eps_grid], dp.exact_pdp_epsilon(p0, p1)
        return dp.tight_perturbation(*job[1])

    def check(self, jobs: list, outs: list) -> Checked:
        checked = Checked(verdicts=len(jobs))
        for job, out in zip(jobs, outs):
            self._check(job, out, checked)
        return checked

    def _check(self, job, out, checked: Checked) -> None:
        kind = job[0]
        if kind == "fixture":
            pair, _side = out
            checked.expect(bool(pair.certification), f"{job[1]} carries no certification")
        elif kind == "profile":
            (family, value), (p0, p1) = job[1], job[2]
            profile, eps = out
            checked.expect(
                all(b <= a + TOL for a, b in zip(profile, profile[1:])), "profile increases in eps"
            )
            checked.expect(abs(profile[0] - dp.tv_distance(p0, p1)) <= TOL, "profile(0) != TV")
            if family.startswith("geometric"):
                # adjacent centers: every likelihood ratio is exactly e^eps
                level_ok = abs(eps - value) <= 1e-9
                if family == "geometric":
                    checked.expect(level_ok, f"pure-DP level {eps!r} != {value!r}")
                else:
                    checked.expect_known("geometric-underflow: exact_pdp_epsilon at n=1024, eps in [1.5, 2.5]", level_ok)
                tail = [d for e, d in zip(self.eps_grid, profile) if e >= value + 1e-9]
                checked.expect(all(d <= TOL for d in tail), "slack above the pure-DP level")
            else:
                # the leak sits on disjoint outcomes: slack delta at every eps
                checked.expect(math.isinf(eps), "leaky pair has finite pure-DP level")
                checked.expect(all(abs(d - value) <= TOL for d in profile), "leaky profile != delta")
        else:
            p, q, eps, alpha = job[1]
            q0, q1, _info = out
            achieved = dp.delta_at_epsilon(q0, q1, eps)
            checked.expect(abs(achieved - job[2] - alpha) <= TOL, "slack did not grow by alpha")
            checked.expect(
                max(dp.tv_distance(p, q0), dp.tv_distance(q, q1)) <= alpha + TOL, "TV budget exceeded"
            )


WORKLOADS = {w.name: w for w in (Reduction, FiWide, NiSweep, ExactCertify)}
