"""Batch experiment runner: operating characteristics for every tester.

An experiment is (tester spec, target spec, trials, seed). Each trial
gets its own RNG derived from (seed, trial index) and a fresh mechanism
clone with a derived seed, so a trial's outcome depends only on the seed
and its index, and a re-run is byte-identical. Per-trial records can be
written to CSV; the aggregate is an OperatingCharacteristic row holding
the accept rate with a Wilson interval and the mean query count at the
target's distance from the claimed parameters.

Tester kinds live in one registry, ``_TESTERS``: kind -> (runner
factory, notion). A factory reads the tester document once per
experiment, builds and validates its configuration, and returns the
per-trial ``run(mech, rng)``. It reads the claim and the keys its tester
takes (``r`` for ``adp-budgeted``; ``cache_path``, ``calibration_trials``
and ``reps`` for ``adp-fi``) and ignores any other key: the sample rates
of ``adp-ni`` and ``pdp-fi`` are always their formulas. The notion ("aDP"
or "pDP") selects how the target's distance from the claim is measured.
To add a tester, add its factory and entry there; ``TESTER_KINDS`` and
the CLI's choices follow.
"""

from __future__ import annotations

import copy
import math
import numbers
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

def wilson_interval(
    successes: int, trials: int, z: float = Z95
) -> tuple[float, float]:
    """Wilson score interval; its bound is exactly 0 (1) at 0 (all) successes."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    low = 0.0 if successes == 0 else (center - spread) / denom
    high = 1.0 if successes == trials else (center + spread) / denom
    return low, high


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
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1; got {self.trials!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0; got {self.seed!r}")
        if not isinstance(self.tester, dict) or self.tester.get("kind") not in TESTER_KINDS:
            raise ValueError(f"tester must be an object whose kind is one of {TESTER_KINDS}")
        if not isinstance(self.target, dict):
            raise ValueError(f"target must be an object; got {self.target!r}")


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


def _resolve_target(target: dict, seed: int):
    """Target spec -> (base mechanism, side info or None, truth pair)."""
    if "mechanism" in target:
        spec = target["mechanism"]
        mech = spec if isinstance(spec, MechanismPair) else mechanism_from_config(spec, seed=seed)
    elif "fixture" in target:
        fx = target["fixture"]
        if not isinstance(fx, dict):
            raise ValueError(f"target fixture must be an object; got {fx!r}")
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


def _claim(tester: dict) -> tuple[float, float, float]:
    return float(tester["eps"]), float(tester.get("delta", 0.0)), float(tester["alpha"])


def _adp_ni(tester: dict, mech: MechanismPair, side: SideInfo | None):
    cfg = AdpNiConfig(mech.n, *_claim(tester))
    return lambda mech, rng: adp_test_ni(mech, cfg, rng)


def _adp_budgeted(tester: dict, mech: MechanismPair, side: SideInfo | None):
    claim, r = _claim(tester), tester["r"]
    return lambda mech, rng: adp_test_budgeted(mech, *claim, r)


def _adp_fi(tester: dict, mech: MechanismPair, side: SideInfo | None):
    if side is None:
        raise ValueError("adp-fi needs side information")
    claim, cache = _claim(tester), CalibrationCache(tester.get("cache_path"))
    trials, reps = tester.get("calibration_trials"), tester.get("reps")
    return lambda mech, rng: adp_test_fi(
        mech, side, *claim, rng, cache=cache, calibration_trials=trials, reps=reps
    )


def _pdp_fi(tester: dict, mech: MechanismPair, side: SideInfo | None):
    if side is None:
        raise ValueError("pdp-fi needs side information")
    cfg = FiPdpConfig.for_side(side, float(tester["eps"]), float(tester["alpha"]))
    return lambda mech, rng: pdp_test_fi(mech, side, cfg, rng)


#: kind -> (runner factory, notion of the claim)
_TESTERS = {
    "adp-ni": (_adp_ni, "aDP"),
    "adp-budgeted": (_adp_budgeted, "aDP"),
    "adp-fi": (_adp_fi, "aDP"),
    "pdp-fi": (_pdp_fi, "pDP"),
}

TESTER_KINDS = tuple(_TESTERS)


def _distance_from_claim(tester: dict, mech: MechanismPair) -> float:
    """How far the target truth sits from the tester's claimed parameters."""
    p0, p1 = mech.truth
    if _TESTERS[tester["kind"]][1] == "aDP":
        slack = delta_at_epsilon(p0, p1, float(tester["eps"]))
        return max(0.0, slack - float(tester.get("delta", 0.0)))
    return max(0.0, exact_pdp_epsilon(p0, p1) - float(tester["eps"]))


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
    factory = _TESTERS[cfg.tester["kind"]][0]
    try:
        runner = factory(cfg.tester, base_mech, side)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad {cfg.tester['kind']} tester parameter: {exc}") from None

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
    return OperatingCharacteristic((row,))


def sweep(
    base: ExperimentConfig, parameter: str, values
) -> list[OperatingCharacteristic]:
    """One experiment per value of a dotted config path.

    ``parameter`` addresses either a dataclass field ("trials", "seed")
    or a path into the tester/target documents ("tester.alpha",
    "target.mechanism.n"). Unknown names raise ValueError.
    """
    parts = parameter.split(".")
    results = []
    for value in values:
        fields = {
            "tester": copy.deepcopy(base.tester),
            "target": copy.deepcopy(base.target),
            "trials": base.trials,
            "seed": base.seed,
        }
        node = fields
        for part in parts[:-1]:
            node = node.get(part) if isinstance(node, dict) else None
        if len(parts) == 1:
            known = parts[0] in ("trials", "seed")
        else:
            known = isinstance(node, dict) and parts[-1] in node
        if not known:
            raise ValueError(f"unknown parameter name: {parameter!r}")
        node[parts[-1]] = value
        # a new config, so that a swept trials or seed is checked too
        results.append(run_experiment(ExperimentConfig(**fields)))
    return results
