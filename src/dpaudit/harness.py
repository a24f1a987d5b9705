"""Batch experiment runner: operating characteristics for every tester.

An experiment is (tester spec, target spec, trials, seed). Each trial
gets its own RNG derived from (seed, trial index) and a fresh mechanism
clone with a derived seed, so a trial's outcome depends only on the seed
and its index, and a re-run is byte-identical. The streams of a block of
trials are derived at once, with the bits of seeding each trial alone.
Per-trial records can be written to CSV; the aggregate is an
OperatingCharacteristic row holding the accept rate with a Wilson
interval and the mean query count at the target's distance from the
claimed parameters.

Tester kinds live in one registry, ``_TESTERS``: kind -> (runner
factory, notion). A factory reads the tester document and the side
information once per experiment and returns the per-trial ``run(mech,
rng)``, which passes the claim and the keys its tester takes (``r`` for
``adp-budgeted``; ``cache_path`` and ``calibration_trials`` for
``adp-fi``) to the tester as plain arguments; the tester validates them.
Any other key is ignored: the sample rates of ``adp-ni`` and ``pdp-fi``
are always their formulas, and ``adp-fi`` always runs ``SUBTEST_REPS``
identity reps. The notion ("aDP" or "pDP") selects how the target's
distance from the claim is measured. To add a tester, add its factory
and entry there; ``TESTER_KINDS`` and the CLI's choices follow.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import _check, _integer, delta_at_epsilon, exact_pdp_epsilon
from .fixtures import build_fixture
from .fullinfo import CalibrationCache, adp_test_fi, pdp_test_fi
from .mechanisms import MechanismPair, SideInfo, mechanism_from_config
from .noinfo import adp_test_budgeted, adp_test_ni
from .outcomes import TestOutcome

#: Two-sided 95% normal quantile used for all Wilson intervals.
Z95 = 1.959963984540054

#: Trials whose streams are derived in one pass, so memory stays bounded.
_SEED_BLOCK = 1024

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; its bound is exactly 0 (1) at 0 (all) successes."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= successes <= trials):
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    spread = Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    low = 0.0 if successes == 0 else (center - spread) / denom
    high = 1.0 if successes == trials else (center + spread) / denom
    return low, high


@dataclass
class ExperimentConfig:
    """One tester against one target for a number of seeded trials.

    ``tester``: {"kind": one of TESTER_KINDS, ...parameters...}.
    ``target``: exactly one of {"mechanism": config} and {"fixture":
    {"name", "params", "instance"}}, plus optional "side": "truth" |
    "claim" | side-info JSON document.
    """

    tester: dict
    target: dict
    trials: int
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        self.trials = _integer("trials", self.trials)
        _check("trials", self.trials, 1.0)
        self.seed = _integer("seed", self.seed)
        _check("seed", self.seed, 0.0)
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


def _resolve_target(target: dict):
    """Target spec -> (base mechanism, side info or None); trials draw from spawns."""
    if ("mechanism" in target) == ("fixture" in target):
        raise ValueError("target needs exactly one of a 'mechanism' and a 'fixture' entry")
    if "mechanism" in target:
        mech = mechanism_from_config(target["mechanism"])
    else:
        fx = target["fixture"]
        if not isinstance(fx, dict):
            raise ValueError(f"target fixture must be an object; got {fx!r}")
        pair, claimed_side = build_fixture(fx["name"], fx.get("params", {}))
        instance = fx.get("instance", "private")
        if instance not in ("private", "far"):
            raise ValueError("fixture instance must be 'private' or 'far'")
        mech = MechanismPair(*getattr(pair, f"{instance}_instance"))
        if target.get("side") == "claim":
            if claimed_side is None:
                raise ValueError("this fixture carries no claimed side information")
            return mech, claimed_side

    side_spec = target.get("side")
    if side_spec is None:
        side = None
    elif side_spec == "truth":
        side = SideInfo(mech.truth[0], mech.truth[1])
    elif isinstance(side_spec, dict):
        side = SideInfo.from_json(side_spec)
    elif side_spec == "claim":
        raise ValueError("side 'claim' is only available for fixture targets")
    else:
        raise ValueError("side must be omitted, 'truth', 'claim', or a document")
    return mech, side


def _claim(tester: dict) -> tuple[float, float, float]:
    return float(tester["eps"]), float(tester.get("delta", 0.0)), float(tester["alpha"])


def _adp_ni(tester: dict, side: SideInfo | None):
    claim = _claim(tester)
    return lambda mech, rng: adp_test_ni(mech, *claim, rng)


def _adp_budgeted(tester: dict, side: SideInfo | None):
    claim, r = _claim(tester), tester["r"]
    return lambda mech, rng: adp_test_budgeted(mech, *claim, r)


def _adp_fi(tester: dict, side: SideInfo | None):
    if side is None:
        raise ValueError("adp-fi needs side information")
    claim, cache = _claim(tester), CalibrationCache(tester.get("cache_path"))
    trials = tester.get("calibration_trials")
    return lambda mech, rng: adp_test_fi(
        mech, side, *claim, rng, cache=cache, calibration_trials=trials
    )


def _pdp_fi(tester: dict, side: SideInfo | None):
    if side is None:
        raise ValueError("pdp-fi needs side information")
    eps, alpha = float(tester["eps"]), float(tester["alpha"])
    return lambda mech, rng: pdp_test_fi(mech, side, eps, alpha, rng)


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
    base_mech, side = _resolve_target(cfg.target)
    factory = _TESTERS[cfg.tester["kind"]][0]
    try:
        runner = factory(cfg.tester, side)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad {cfg.tester['kind']} tester parameter: {exc}") from None

    records = []
    for start in range(0, cfg.trials, _SEED_BLOCK):
        block = range(start, min(start + _SEED_BLOCK, cfg.trials))
        # trial t: default_rng([seed, t]) and spawn(seed * 1_000_003 + t + 1)
        streams = base_mech._spawn_many(
            [cfg.seed * 1_000_003 + t + 1 for t in block], [(cfg.seed, t) for t in block]
        )
        for trial, (mech, rng) in zip(block, streams):
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
