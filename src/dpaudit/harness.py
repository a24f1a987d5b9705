"""Batch experiment runner: operating characteristics for every tester.

An experiment is (tester spec, target spec, trials, seed). Trial t draws
from ``default_rng([seed, t])`` and ``MechanismPair(*truth, seed=seed *
1_000_003 + t + 1)`` over the target's truth, so its outcome depends only
on the seed and t, and a re-run is byte-identical. The stream states of a
seed block of trials are derived at once, with the bits of seeding each
trial alone, by ``_block_states(seed, start, stop)``. They depend on
nothing else, so the last 8 blocks' states (at most 8 x 96 KiB = 768
KiB, read-only) are kept for the process: a sweep over a tester or
target parameter derives them for its first value only, and every value
builds its trials' generators afresh from them. Per-trial records can be
written to CSV; the aggregate is an OperatingCharacteristic row holding
the accept rate with a Wilson interval and the mean query count at the
target's distance from the claimed parameters.

Tester kinds live in one registry, ``_TESTERS``: kind -> (runner,
fields). Once per experiment the package's document reader reads the
fields (the claim and, for ``adp-budgeted``, its sample count ``r``;
no other kind reads more), and ``runner(n, side, **fields)`` checks the
side and claim and returns the callable that takes a seed block's
``(pair, rng)`` streams and returns their outcomes. The registry holds no
tester logic: ``adp-ni`` and ``adp-budgeted`` run ``noinfo._runner``,
which ignores the side; ``adp-fi`` runs ``fullinfo._runner``, which takes
its thresholds from ``fullinfo.identity_threshold`` once per experiment
and, on at least ``fullinfo._OVERLAP_BINS`` = 128 outcomes, draws and
scores each block's database 0 on one helper thread, started and joined
per seed block, while the caller does database 1; ``pdp-fi`` runs
``fullinfo._pdp_runner``, which derives its rate once and tests a
block's trials in turn. ``adp_test_ni``, ``adp_test_fi`` and
``pdp_test_fi`` are their runners on a block of one, so a trial's
outcome is bit for bit that of its tester on the trial alone. A seed
block holds at most 2^16 counts per database. Any other key is ignored:
the sample rates of ``adp-ni`` and ``pdp-fi`` are always their formulas,
and ``adp-fi`` always runs ``SUBTEST_REPS`` identity reps at thresholds
calibrated over ``CALIBRATION_TRIALS`` null draws. The target's
distance from the claim is read from the claim's fields: slack past
delta for a claim with a ``delta`` (the ``adp-*`` kinds), eps past the
claimed eps otherwise. To add a tester, add its runner and entry there;
``TESTER_KINDS`` and the CLI's choices follow.

``distinguish`` runs one trial of the same loop on the box (database 0,
unknown database) of an instance: every tester kind is a distinguisher.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fullinfo, noinfo
from .distributions import (
    _check, _entry, _fields, _instance, _integer, _object, delta_at_epsilon, exact_pdp_epsilon,
)
from .fixtures import _FIXTURES, build_fixture
from .mechanisms import (
    _BLOCK_COUNTS, _MECHANISMS, MechanismPair, SideInfo, _database, _seed_rows, _seed_states,
    mechanism_from_config,
)
from .outcomes import TestOutcome

#: Two-sided 95% normal quantile used for all Wilson intervals.
Z95 = 1.959963984540054

#: Trials whose stream states are derived in one pass, so memory stays
#: bounded: 3 x 1,024 states of 4 uint64 words, 96 KiB per block, and
#: ``_block_states`` keeps the last 8 blocks, at most 768 KiB.
_SEED_BLOCK = 1024

#: Most trials of one experiment: every trial's record is kept in memory,
#: at ~0.7 KB each (``tracemalloc``), so this bounds them to ~0.7 GB.
_MAX_TRIALS = 2**20


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; its bound is exactly 0 (1) at 0 (all) successes."""
    trials = _integer("trials", trials, 1)
    successes = _integer("successes", successes, 0)
    if successes > trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    spread = Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    low = 0.0 if successes == 0 else (center - spread) / denom
    high = 1.0 if successes == trials else (center + spread) / denom
    return low, high


def _seed(seed) -> int:
    """An experiment seed: an integer >= 0, within the float range."""
    seed = _integer("seed", seed, 0)
    _check("seed", seed, 0.0)  # 10**400 is refused
    return seed


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
        self.trials = _integer("trials", self.trials, 1, _MAX_TRIALS)
        self.seed = _seed(self.seed)
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


_ADP_CLAIM = {"eps": float, "delta": (float, 0.0), "alpha": float}

#: kind -> (runner, fields): ``runner(n, side, **fields)`` checks the side
#: and claim once and returns the callable that tests a seed block's
#: ``(pair, rng)`` streams. Only the aDP kinds read a ``delta``.
_TESTERS = {
    "adp-ni": (noinfo._runner, _ADP_CLAIM),
    "adp-budgeted": (noinfo._runner, dict(_ADP_CLAIM, r=int)),
    "adp-fi": (fullinfo._runner, _ADP_CLAIM),
    "pdp-fi": (fullinfo._pdp_runner, {"eps": float, "alpha": float}),
}

TESTER_KINDS = tuple(_TESTERS)


def _distance_from_claim(claim: dict, mech: MechanismPair) -> float:
    """How far the target truth sits from the tester's claimed parameters:
    in slack past delta for an aDP claim (one with a ``delta``), in eps
    past the claimed eps for a pDP one."""
    p0, p1 = mech.truth
    if "delta" in claim:
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


@functools.lru_cache(maxsize=8)
def _block_states(seed: int, start: int, stop: int) -> np.ndarray:
    """The read-only (3 (stop - start), 4) uint64 stream states of trials
    start..stop-1 of ``seed``: for trial t, those of ``default_rng([seed, t])``
    and of the two databases of a pair at seed * 1_000_003 + t + 1."""
    rng_seeds = [(seed, t) for t in range(start, stop)]
    states = _seed_states(_seed_rows(_pair_seeds(seed, start, stop), rng_seeds))
    states.flags.writeable = False
    return states


def _pair_seeds(seed: int, start: int, stop: int) -> range:
    """The pair seeds of trials start..stop-1 of ``seed``."""
    return range(seed * 1_000_003 + start + 1, seed * 1_000_003 + stop + 1)


def _trials(tester: dict, mech: MechanismPair, side, trials: int, seed: int):
    """The claim of the ``tester`` document, read, and the ``(t, outcome)``
    records of trials t = 0..trials-1 on ``mech``'s truth."""
    kind = _fields("tester", tester, {"kind": str})["kind"]
    make_runner, spec = _entry(_TESTERS, "tester kind", kind)
    claim = _fields(f"{kind} tester", tester, spec)
    runner = make_runner(mech.n, side, **claim)

    records = []
    size = min(_SEED_BLOCK, max(1, _BLOCK_COUNTS // mech.n))
    for start in range(0, trials, size):
        stop = min(start + size, trials)
        streams = mech._spawn_many(_pair_seeds(seed, start, stop), _block_states(seed, start, stop))
        records += zip(range(start, stop), runner(streams), strict=True)
    return claim, records


def _config(name: str, cfg) -> ExperimentConfig:
    if not isinstance(cfg, ExperimentConfig):
        raise ValueError(f"{name} must be an ExperimentConfig; got {cfg!r}")
    return cfg


def run_experiment(cfg: ExperimentConfig) -> OperatingCharacteristic:
    """Run all trials, optionally write the per-trial CSV, aggregate. A
    ``cfg`` that is not an ExperimentConfig raises ValueError."""
    base_mech, side = _resolve_target(_config("cfg", cfg).target)
    claim, records = _trials(cfg.tester, base_mech, side, cfg.trials, cfg.seed)

    if cfg.out is not None:
        Path(cfg.out).write_text(_csv_text(records))

    accepts = sum(1 for _, outcome in records if outcome.accepted)
    low, high = wilson_interval(accepts, cfg.trials)
    mean_queries = float(
        np.mean([sum(outcome.queries_used) for _, outcome in records])
    )
    row = OCRow(
        distance=_distance_from_claim(claim, base_mech),
        accept_rate=accepts / cfg.trials,
        wilson_low=low,
        wilson_high=high,
        mean_queries=mean_queries,
    )
    return OperatingCharacteristic((row,))


def distinguish(tester: dict, instance, db: int, seed: int) -> tuple[int, tuple[int, int]]:
    """Guess which database of ``instance`` = (p0, p1) the unknown ``db`` is.

    Verification implies distinguishing: run the registry ``tester`` on
    trial 0 of ``seed`` of the box ``MechanismPair(p0, instance[db])``, with
    side information ``SideInfo(p0, p0)`` for full-information kinds. At
    db = 0 the box is an identical pair, which a verifier accepts; at db = 1
    of a far instance it rejects. Returns ``(guess, queries_used)``, guess 1
    iff the tester rejects. An ``instance`` that is not a pair of
    ``DiscreteDistribution``s, a ``db`` not 0 or 1, or a seed that
    ``ExperimentConfig`` refuses raises ValueError.
    """
    p0 = _instance("instance", instance)[0]
    _database(db)
    box = MechanismPair(p0, instance[db])
    _claim, [(_t, outcome)] = _trials(tester, box, SideInfo(p0, p0), 1, _seed(seed))
    return int(not outcome.accepted), outcome.queries_used


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

    Unless a value changes the seed, the trials or the seed-block size
    (the target's outcome count, from 65 up), or an experiment spans more
    than 8 seed blocks, the trials' stream states are derived once, for
    the first value, and reused by the others. A ``base`` that is not an
    ExperimentConfig, a ``parameter`` that is not a string and ``values``
    that are not iterable raise ValueError.
    """
    _config("base", base)
    if not isinstance(parameter, str):
        raise ValueError(f"parameter must be a dotted config path; got {parameter!r}")
    try:
        values = list(values)
    except TypeError:
        raise ValueError(f"values must be an iterable of config values; got {values!r}") from None
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
