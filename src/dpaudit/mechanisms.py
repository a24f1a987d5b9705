"""Two-database mechanisms as seeded sampling oracles.

A mechanism pair wraps the two output distributions a randomized
algorithm induces on a pair of neighboring databases. Testers interact
with a pair exclusively through :meth:`MechanismPair.draw`; the ``truth``
attribute exists so harnesses and certification code can reach the
underlying distributions, and is off limits to testers by convention.

The zoo constructors below cover the standard simulation subjects:
randomized response, a truncated geometric ladder, a mechanism leaking
through a rare outcome, and explicit distribution pairs.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, _check, _integer, make_distribution

_TINY = np.finfo(np.float64).tiny

#: Largest eps of the truncated geometric ladder: its two central outcomes
#: weigh e^-eps in one database at every n, and a weight below the smallest
#: normal float is dropped, so above this no outcome is left.
_GEOMETRIC_EPS_MAX = -float(np.log(_TINY))


class MechanismPair:
    """Sampling access to the two databases of a mechanism.

    Same seed reproduces identical sample streams; the two databases use
    independent PRNG substreams, so their draws are independent. Database
    b's stream is ``Generator(PCG64(SeedSequence(seed, spawn_key=(b,))))``,
    exactly the b-th child of ``SeedSequence(seed).spawn(2)``. Query
    accounting is exact: ``query_counter[b]`` is the total number of
    samples drawn from database ``b``.

    Instances own mutable stream and counter state, so a pair must not be
    shared by concurrent callers; parallel trials should each
    :meth:`spawn` their own pair.
    """

    def __init__(
        self,
        p0: DiscreteDistribution,
        p1: DiscreteDistribution,
        seed: int = 0,
    ) -> None:
        if p0.n != p1.n:
            raise ValueError("databases must share an outcome universe")
        self.n = p0.n
        self.truth: tuple[DiscreteDistribution, DiscreteDistribution] = (p0, p1)
        # multinomial requires exactly normalized pvals
        self._pvals = (p0.probs / p0.probs.sum(), p1.probs / p1.probs.sum())
        self._reseed(seed)

    def _reseed(self, seed: int) -> None:
        """Fresh streams for ``seed`` and zeroed query counters."""
        self.seed = seed
        self._rngs = tuple(
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
            for b in (0, 1)
        )
        self.query_counter = [0, 0]

    def draw(self, db: int, count: int) -> np.ndarray:
        """Histogram of ``count`` fresh i.i.d. samples from database ``db``."""
        if db not in (0, 1):
            raise ValueError("db must be 0 or 1")
        count = int(count)
        if count < 0:
            raise ValueError("count must be >= 0")
        self.query_counter[db] += count
        if count == 0:
            return np.zeros(self.n, dtype=np.int64)
        return self._rngs[db].multinomial(count, self._pvals[db])

    def draw_many(self, db: int, counts: np.ndarray) -> np.ndarray:
        """Histograms of ``counts[j]`` fresh samples from database ``db``.

        One multinomial call for a 1-D array of non-negative integer counts:
        row j of the (len(counts), n) result, the stream state after the call
        and the query count equal those of ``draw(db, counts[j])`` in turn.
        """
        if db not in (0, 1):
            raise ValueError("db must be 0 or 1")
        counts = np.asarray(counts)
        integral = counts.size == 0 or counts.dtype.kind in "iu"
        if counts.ndim != 1 or not integral or (counts.size and counts.min() < 0):
            raise ValueError("counts must be a 1-D array of non-negative integers")
        self.query_counter[db] += int(counts.sum())
        return self._rngs[db].multinomial(counts.astype(np.int64), self._pvals[db])

    def spawn(self, seed: int) -> "MechanismPair":
        """Fresh pair over the same truth with its own streams and counters."""
        pair = copy.copy(self)
        pair._reseed(seed)
        return pair

    def __repr__(self) -> str:
        return f"MechanismPair(n={self.n}, seed={self.seed})"


def randomized_response(flip_prob: float, seed: int = 0) -> MechanismPair:
    """Binary randomized response: report the bit, flipped w.p. flip_prob.

    flip_prob must lie strictly inside (0, 0.5); the pair is exactly
    eps-pDP with eps = ln((1-flip_prob)/flip_prob).
    """
    if not (0.0 < flip_prob < 0.5):
        raise ValueError("flip_prob must lie strictly inside (0, 0.5)")
    p0 = DiscreteDistribution(np.array([1.0 - flip_prob, flip_prob]))
    p1 = DiscreteDistribution(np.array([flip_prob, 1.0 - flip_prob]))
    return MechanismPair(p0, p1, seed=seed)


def truncated_geometric(eps: float, n: int, seed: int = 0) -> MechanismPair:
    """Two-sided geometric ladder truncated to n outcomes, adjacent centers.

    Database b puts mass proportional to exp(-eps * |i - c_b|) on outcome
    i, with centers c0 = n/2 - 1 and c1 = n/2 (zero-based). n must be even
    and >= 2: even n makes the two normalizers equal by symmetry, which is
    what keeps every outcome ratio within e^{+-eps}; odd n would break the
    eps-pDP contract through unequal normalization. Database 1 is built as
    database 0 reversed, so the two are exact mirror images and share one
    identity calibration at every eps. Outcomes with a
    subnormal weight, whose ratio is distorted, get no mass in either
    database; eps above -ln(smallest normal float) ~708.396, where none
    is left, raises ValueError.
    """
    _check("eps", eps, 0.0, _GEOMETRIC_EPS_MAX, open_low=True)
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    w = np.exp(-eps * np.abs(np.arange(n, dtype=np.float64) - (n // 2 - 1)))
    w[np.minimum(w, w[::-1]) < _TINY] = 0.0
    p0 = make_distribution(w)
    # reversal moves the centre c0 to n - 1 - c0 = c1
    return MechanismPair(p0, DiscreteDistribution(p0.probs[::-1]), seed=seed)


def leaky_mechanism(delta: float, n: int = 3, seed: int = 0) -> MechanismPair:
    """Identical mechanisms except a mass-delta leak onto distinct outcomes.

    Database 0 puts delta on outcome 1 and database 1 puts it on outcome 2;
    both put 1-delta on outcome 0. The pair has additive slack exactly
    delta at every eps, making it a clean soundness target.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie strictly inside (0, 1)")
    if n < 3:
        raise ValueError("n must be >= 3")
    v0 = np.zeros(n)
    v1 = np.zeros(n)
    v0[0] = v1[0] = 1.0 - delta
    v0[1] = delta
    v1[2] = delta
    return MechanismPair(DiscreteDistribution(v0), DiscreteDistribution(v1), seed=seed)


@dataclass(frozen=True)
class SideInfo:
    """Claimed output distributions handed to full-information testers."""

    q0: DiscreteDistribution
    q1: DiscreteDistribution

    def __post_init__(self) -> None:
        if self.q0.n != self.q1.n:
            raise ValueError("claimed distributions must share an outcome universe")

    @property
    def n(self) -> int:
        return self.q0.n

    def to_json(self) -> str:
        """``{"q0": ..., "q1": ...}``, each in DiscreteDistribution's format."""
        return f'{{"q0": {self.q0.to_json()}, "q1": {self.q1.to_json()}}}'

    @classmethod
    def from_json(cls, doc: str | dict) -> "SideInfo":
        data = json.loads(doc) if isinstance(doc, str) else doc
        if not isinstance(data, dict) or "q0" not in data or "q1" not in data:
            raise ValueError("side info document must contain q0 and q1")
        return cls(
            DiscreteDistribution.from_json(data["q0"]),
            DiscreteDistribution.from_json(data["q1"]),
        )


#: Mechanism registry: config "mechanism" field -> builder(config, seed).
_MECHANISMS = {
    "randomized_response": lambda c, seed: randomized_response(float(c["flip_prob"]), seed),
    "truncated_geometric": lambda c, seed: truncated_geometric(
        float(c["eps"]), _integer("n", c["n"]), seed
    ),
    "leaky_mechanism": lambda c, seed: leaky_mechanism(
        float(c["delta"]), _integer("n", c.get("n", 3)), seed
    ),
    "explicit": lambda c, seed: MechanismPair(
        DiscreteDistribution.from_json(c["p0"]), DiscreteDistribution.from_json(c["p1"]), seed
    ),
}


def mechanism_from_config(config: dict, seed: int = 0) -> MechanismPair:
    """Build a zoo mechanism from a JSON-style config document.

    Recognized forms:

    * ``{"mechanism": "randomized_response", "flip_prob": 0.25}``
    * ``{"mechanism": "truncated_geometric", "eps": 0.1, "n": 4}``
    * ``{"mechanism": "leaky_mechanism", "delta": 0.2, "n": 3}``
    * ``{"mechanism": "explicit", "p0": {...}, "p1": {...}}``

    A value of the wrong type (``null``, ``Infinity`` or ``4.5`` as ``n``)
    raises ValueError, as does an unknown kind; a missing field raises
    KeyError.
    """
    kind = config.get("mechanism") if isinstance(config, dict) else None
    if not isinstance(kind, str) or kind not in _MECHANISMS:
        raise ValueError(f"mechanism field must be one of {tuple(_MECHANISMS)}; got {kind!r}")
    try:
        return _MECHANISMS[kind](config, seed)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad {kind} config: {exc}") from None
