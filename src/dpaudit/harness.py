"""Batch experiment runner: operating characteristics for every tester.

An experiment is (tester spec, target spec, trials, seed). Each trial
gets its own RNG derived from (seed, trial index) and a fresh mechanism
clone with a derived seed, so a trial's outcome depends only on the seed
and its index, and a re-run is byte-identical. Per-trial records can be
written to CSV; the aggregate is an OperatingCharacteristic row holding
the accept rate with a Wilson interval and the mean query count at the
target's distance from the claimed parameters.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import delta_at_epsilon, exact_pdp_epsilon
from .fixtures import build_fixture
from .fullinfo import (
    CalibrationCache,
    FiPdpConfig,
    adp_test_fi,
    pdp_test_fi,
)
from .mechanisms import MechanismPair, SideInfo, mechanism_from_config
from .noinfo import AdpNiConfig, adp_test_budgeted, adp_test_ni
from .outcomes import TestOutcome

#: Two-sided 95% normal quantile used for all Wilson intervals.
Z95 = 1.959963984540054

TESTER_KINDS = ("adp-ni", "adp-budgeted", "adp-fi", "pdp-fi")


def wilson_interval(
    successes: int, trials: int, z: float = Z95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return (center - spread) / denom, (center + spread) / denom


@dataclass
class ExperimentConfig:
    """One tester against one target for a number of seeded trials.

    ``tester``: {"kind": one of TESTER_KINDS, ...parameters...}.
    ``target``: {"mechanism": config} or {"fixture": {"name", "params",
    "instance"}}, plus optional "side": "truth" | "claim" | side-info
    JSON document.
    """

    tester: dict
    target: dict
    trials: int
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.tester.get("kind") not in TESTER_KINDS:
            raise ValueError(f"tester kind must be one of {TESTER_KINDS}")


@dataclass(frozen=True)
class OCRow:
    distance: float
    accept_rate: float
    wilson_low: float
    wilson_high: float
    mean_queries: float


@dataclass(frozen=True)
class OperatingCharacteristic:
    grid: tuple[OCRow, ...] = field(default_factory=tuple)

    @classmethod
    def from_rows(cls, rows) -> "OperatingCharacteristic":
        return cls(tuple(sorted(rows, key=lambda row: row.distance)))


def _resolve_target(target: dict, seed: int):
    """Target spec -> (base mechanism, side info or None, truth pair)."""
    if "mechanism" in target:
        spec = target["mechanism"]
        mech = spec if isinstance(spec, MechanismPair) else mechanism_from_config(spec, seed=seed)
    elif "fixture" in target:
        fx = target["fixture"]
        pair, claimed_side = build_fixture(fx["name"], fx.get("params", {}), seed=seed)
        instance = fx.get("instance", "private")
        if instance not in ("private", "far"):
            raise ValueError("fixture instance must be 'private' or 'far'")
        mech = pair.private_instance if instance == "private" else pair.far_instance
        if target.get("side") == "claim":
            if claimed_side is None:
                raise ValueError("this fixture carries no claimed side information")
            return mech, claimed_side
    else:
        raise ValueError("target needs a 'mechanism' or 'fixture' entry")

    side_spec = target.get("side")
    if side_spec is None:
        side = None
    elif side_spec == "truth":
        side = SideInfo(mech.truth[0], mech.truth[1])
    elif isinstance(side_spec, SideInfo):
        side = side_spec
    elif isinstance(side_spec, dict):
        side = SideInfo.from_json(side_spec)
    elif side_spec == "claim":
        raise ValueError("side 'claim' is only available for fixture targets")
    else:
        raise ValueError("side must be omitted, 'truth', 'claim', or a document")
    return mech, side


def _make_runner(tester: dict, side: SideInfo | None):
    """Tester spec -> callable(mech, rng) -> TestOutcome."""
    kind = tester["kind"]
    if kind == "adp-ni":
        def run(mech: MechanismPair, rng: np.random.Generator) -> TestOutcome:
            cfg = AdpNiConfig(
                n=mech.n,
                eps=float(tester["eps"]),
                delta=float(tester.get("delta", 0.0)),
                alpha=float(tester["alpha"]),
                lambda_rate=tester.get("lambda_rate"),
                both_directions=bool(tester.get("both_directions", True)),
            )
            return adp_test_ni(mech, cfg, rng)

        return run
    if kind == "adp-budgeted":
        def run(mech: MechanismPair, rng: np.random.Generator) -> TestOutcome:
            return adp_test_budgeted(
                mech,
                float(tester["eps"]),
                float(tester.get("delta", 0.0)),
                float(tester["alpha"]),
                int(tester["r"]),
            )

        return run
    if kind == "adp-fi":
        if side is None:
            raise ValueError("adp-fi needs side information")
        cache = CalibrationCache(tester.get("cache_path"))

        def run(mech: MechanismPair, rng: np.random.Generator) -> TestOutcome:
            return adp_test_fi(
                mech,
                side,
                float(tester["eps"]),
                float(tester.get("delta", 0.0)),
                float(tester["alpha"]),
                rng,
                cache=cache,
                calibration_trials=tester.get("calibration_trials"),
                reps=tester.get("reps"),
            )

        return run
    if kind == "pdp-fi":
        if side is None:
            raise ValueError("pdp-fi needs side information")
        cfg = FiPdpConfig.for_side(side, float(tester["eps"]), float(tester["alpha"]))
        if tester.get("lambda_rate") is not None:
            cfg.lambda_rate = float(tester["lambda_rate"])

        def run(mech: MechanismPair, rng: np.random.Generator) -> TestOutcome:
            return pdp_test_fi(mech, side, cfg, rng)

        return run
    raise ValueError(f"unknown tester kind: {kind!r}")


def _distance_from_claim(tester: dict, mech: MechanismPair) -> float:
    """How far the target truth sits from the tester's claimed parameters."""
    kind = tester["kind"]
    p0, p1 = mech.truth
    if kind in ("adp-ni", "adp-budgeted", "adp-fi"):
        slack = delta_at_epsilon(p0, p1, float(tester["eps"]))
        return max(0.0, slack - float(tester.get("delta", 0.0)))
    true_eps = exact_pdp_epsilon(p0, p1)
    if math.isinf(true_eps):
        return math.inf
    return max(0.0, true_eps - float(tester["eps"]))


def _csv_text(records: list[tuple[int, TestOutcome]]) -> str:
    lines = ["trial,verdict,statistic,threshold,queries_0,queries_1"]
    for trial, outcome in records:
        lines.append(
            ",".join(
                (
                    str(trial),
                    outcome.verdict.name,
                    repr(outcome.statistic),
                    repr(outcome.threshold),
                    str(outcome.queries_used[0]),
                    str(outcome.queries_used[1]),
                )
            )
        )
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig) -> OperatingCharacteristic:
    """Run all trials, optionally write the per-trial CSV, aggregate."""
    base_mech, side = _resolve_target(cfg.target, seed=cfg.seed)
    runner = _make_runner(cfg.tester, side)

    records = []
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, trial])
        mech = base_mech.spawn(seed=cfg.seed * 1_000_003 + trial + 1)
        records.append((trial, runner(mech, rng)))

    if cfg.out is not None:
        Path(cfg.out).write_text(_csv_text(records))

    accepts = sum(1 for _, outcome in records if outcome.accepted)
    low, high = wilson_interval(accepts, cfg.trials)
    mean_queries = float(
        np.mean([sum(outcome.queries_used) for _, outcome in records])
    )
    row = OCRow(
        distance=_distance_from_claim(cfg.tester, base_mech),
        accept_rate=accepts / cfg.trials,
        wilson_low=low,
        wilson_high=high,
        mean_queries=mean_queries,
    )
    return OperatingCharacteristic.from_rows([row])


def sweep(
    base: ExperimentConfig, parameter: str, values
) -> list[OperatingCharacteristic]:
    """One experiment per value of a dotted config path.

    ``parameter`` addresses either a dataclass field ("trials", "seed")
    or a path into the tester/target documents ("tester.alpha",
    "target.mechanism.n"). Unknown names raise ValueError.
    """
    results = []
    for value in values:
        tester = copy.deepcopy(base.tester)
        target = copy.deepcopy(base.target)
        cfg = ExperimentConfig(
            tester=tester,
            target=target,
            trials=base.trials,
            seed=base.seed,
            out=None,
        )
        parts = parameter.split(".")
        if len(parts) == 1:
            if parts[0] not in ("trials", "seed"):
                raise ValueError(f"unknown parameter name: {parameter!r}")
            setattr(cfg, parts[0], value)
        else:
            root = {"tester": tester, "target": target}.get(parts[0])
            if root is None:
                raise ValueError(f"unknown parameter name: {parameter!r}")
            node = root
            for part in parts[1:-1]:
                if not isinstance(node, dict) or part not in node:
                    raise ValueError(f"unknown parameter name: {parameter!r}")
                node = node[part]
            if not isinstance(node, dict) or parts[-1] not in node:
                raise ValueError(f"unknown parameter name: {parameter!r}")
            node[parts[-1]] = value
        results.append(run_experiment(cfg))
    return results
