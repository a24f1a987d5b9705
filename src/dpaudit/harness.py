"""Batch experiment runner: operating characteristics for every tester.

An experiment is (tester spec, target spec, trials, seed). Trial t draws
from ``default_rng([seed, t])`` and ``MechanismPair(*truth, seed=seed *
1_000_003 + t + 1)`` over the target's truth, so its outcome depends only
on the seed and t, and a re-run is byte-identical. The streams of a block
of trials are derived at once, with the bits of seeding each trial alone.
Per-trial records can be written to CSV; the aggregate is an
OperatingCharacteristic row holding the accept rate with a Wilson
interval and the mean query count at the target's distance from the
claimed parameters.

Tester kinds live in one registry, ``_TESTERS``: kind -> (runner
factory, fields, notion). Once per experiment the package's document
reader reads the fields (the claim and, for ``adp-budgeted``, ``r``; for
``adp-fi``, ``cache_path`` and ``calibration_trials``) and the factory
turns ``(side, **fields)`` into the per-trial ``run(mech, rng)``, which
hands them to the tester as plain arguments. Any other key is ignored:
the sample rates of ``adp-ni`` and ``pdp-fi`` are always their formulas,
and ``adp-fi`` always runs ``SUBTEST_REPS`` identity reps. The notion
("aDP" or "pDP") selects how the target's distance from the claim is
measured. To add a tester, add its factory and entry there;
``TESTER_KINDS`` and the CLI's choices follow.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import (
    _check, _entry, _fields, _integer, _object, delta_at_epsilon, exact_pdp_epsilon
)
from .fixtures import _FIXTURES, build_fixture
from .fullinfo import CalibrationCache, adp_test_fi, pdp_test_fi
from .mechanisms import _MECHANISMS, MechanismPair, SideInfo, mechanism_from_config
from .noinfo import adp_test_budgeted, adp_test_ni
from .outcomes import TestOutcome

#: Two-sided 95% normal quantile used for all Wilson intervals.
Z95 = 1.959963984540054

#: Trials whose streams are derived in one pass, so memory stays bounded.
_SEED_BLOCK = 1024

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; its bound is exactly 0 (1) at 0 (all) successes."""
    successes = _integer("successes", successes)
    trials = _integer("trials", trials)
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
        _entry(_TESTERS, "tester kind", _fields("tester", self.tester, {"kind": str})["kind"])
        _fields("target", self.target, {})  # refuses a non-object


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


_TARGET_FIXTURE = {"name": str, "params": (_object, {}), "instance": (str, "private")}


def _resolve_target(target: dict):
    """Target spec -> (base mechanism, side info or None); trials get pairs over its truth."""
    if ("mechanism" in target) == ("fixture" in target):
        raise ValueError("target needs exactly one of a 'mechanism' and a 'fixture' entry")
    claimed_side = None
    if "mechanism" in target:
        mech = mechanism_from_config(target["mechanism"])
    else:
        fx = _fields("target fixture", target["fixture"], _TARGET_FIXTURE)
        pair, claimed_side = build_fixture(fx["name"], fx["params"])
        if fx["instance"] not in ("private", "far"):
            raise ValueError("fixture instance must be 'private' or 'far'")
        mech = MechanismPair(*getattr(pair, f"{fx['instance']}_instance"))

    side_spec = target.get("side")
    if side_spec is None:
        side = None
    elif side_spec == "truth":
        side = SideInfo(mech.truth[0], mech.truth[1])
    elif side_spec == "claim":
        if claimed_side is None:
            raise ValueError("side 'claim' needs a fixture that carries claimed side information")
        side = claimed_side
    elif isinstance(side_spec, dict):
        side = SideInfo.from_json(side_spec)
    else:
        raise ValueError("side must be omitted, 'truth', 'claim', or a document")
    return mech, side


def _adp_ni(side, eps, delta, alpha):
    return lambda mech, rng: adp_test_ni(mech, eps, delta, alpha, rng)


def _adp_budgeted(side, eps, delta, alpha, r):
    return lambda mech, rng: adp_test_budgeted(mech, eps, delta, alpha, r)


def _adp_fi(side, eps, delta, alpha, cache_path, calibration_trials):
    if side is None:
        raise ValueError("adp-fi needs side information")
    cache = CalibrationCache(cache_path)
    return lambda mech, rng: adp_test_fi(
        mech, side, eps, delta, alpha, rng, cache=cache, calibration_trials=calibration_trials
    )


def _pdp_fi(side, eps, alpha):
    if side is None:
        raise ValueError("pdp-fi needs side information")
    return lambda mech, rng: pdp_test_fi(mech, side, eps, alpha, rng)


_ADP_CLAIM = {"eps": float, "delta": (float, 0.0), "alpha": float}

#: kind -> (runner factory, fields, notion of the claim)
_TESTERS = {
    "adp-ni": (_adp_ni, _ADP_CLAIM, "aDP"),
    "adp-budgeted": (_adp_budgeted, dict(_ADP_CLAIM, r=int), "aDP"),
    "adp-fi": (
        _adp_fi, dict(_ADP_CLAIM, cache_path=(Path, None), calibration_trials=(int, None)), "aDP"
    ),
    "pdp-fi": (_pdp_fi, {"eps": float, "alpha": float}, "pDP"),
}

TESTER_KINDS = tuple(_TESTERS)


def _distance_from_claim(notion: str, claim: dict, mech: MechanismPair) -> float:
    """How far the target truth sits from the tester's claimed parameters."""
    p0, p1 = mech.truth
    if notion == "aDP":
        return max(0.0, delta_at_epsilon(p0, p1, claim["eps"]) - claim["delta"])
    return max(0.0, exact_pdp_epsilon(p0, p1) - claim["eps"])


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
    kind = cfg.tester["kind"]
    factory, spec, notion = _TESTERS[kind]
    claim = _fields(f"{kind} tester", cfg.tester, spec)
    runner = factory(side, **claim)

    records = []
    for start in range(0, cfg.trials, _SEED_BLOCK):
        block = range(start, min(start + _SEED_BLOCK, cfg.trials))
        # trial t: default_rng([seed, t]) and a pair at seed * 1_000_003 + t + 1
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
        distance=_distance_from_claim(notion, claim, base_mech),
        accept_rate=accepts / cfg.trials,
        wilson_low=low,
        wilson_high=high,
        mean_queries=mean_queries,
    )
    return OperatingCharacteristic((row,))


def _reader_spec(path: tuple, doc: dict, parent: dict) -> dict:
    """The fields the package reads from ``doc``, the config's document at
    ``path`` (inside ``parent``), whether present or not; {} elsewhere."""
    if path == ("target", "fixture"):
        return _TARGET_FIXTURE
    registry, name = {
        ("tester",): (_TESTERS, doc.get("kind")),
        ("target", "mechanism"): (_MECHANISMS, doc.get("mechanism")),
        ("target", "fixture", "params"): (_FIXTURES, parent.get("name")),
    }.get(path, ({}, None))
    return registry[name][1] if isinstance(name, str) and name in registry else {}


def sweep(
    base: ExperimentConfig, parameter: str, values
) -> list[OperatingCharacteristic]:
    """One experiment per value of a dotted config path.

    ``parameter`` addresses either a dataclass field ("trials", "seed")
    or a path into the tester/target documents ("tester.alpha",
    "target.mechanism.n"). A path is known when its key is present or its
    document's reader takes it (an ``adp-ni`` tester's omitted ``delta``);
    unknown names raise ValueError.
    """
    parts = parameter.split(".")
    results = []
    for value in values:
        fields = dict(copy.deepcopy(vars(base)), out=None)  # a sweep writes no CSV
        node = parent = fields
        for part in parts[:-1]:
            parent, node = node, (node.get(part) if isinstance(node, dict) else None)
        if len(parts) == 1:
            known = parts[0] in ("trials", "seed")
        else:
            known = isinstance(node, dict) and (
                parts[-1] in node or parts[-1] in _reader_spec(tuple(parts[:-1]), node, parent)
            )
        if not known:
            raise ValueError(f"unknown parameter name: {parameter!r}")
        node[parts[-1]] = value
        # a new config, so that a swept trials or seed is checked too
        results.append(run_experiment(ExperimentConfig(**fields)))
    return results
