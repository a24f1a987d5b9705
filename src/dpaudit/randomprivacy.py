"""Random-privacy testing: privacy over randomly drawn neighbor pairs.

Worst-case privacy over all neighbor pairs is untestable with black-box
access, so this module tests the relaxed notion: databases are drawn
from a known distribution and the mechanism may fail the two-database
privacy check on a set of neighbor pairs of measure at most gamma. The
conversion wraps any two-database tester: sample neighbor pairs, amplify
the inner tester by majority vote on each pair, and accept iff the
fraction of pairs that look non-private stays below gamma + alpha / w,
where w weights how much a measure violation costs relative to alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from .distributions import (
    _MAX_SIZE,
    DiscreteDistribution,
    _check,
    _integer,
    _majority_reps,
    _positive_finite,
    make_distribution,
)
from .mechanisms import MechanismPair
from .outcomes import TestOutcome, Verdict

Database = tuple
TwoDbTester = Callable[[MechanismPair, np.random.Generator], TestOutcome]
#: A mechanism family maps any database to its output distribution.
Family = Callable[[Database], DiscreteDistribution]


@dataclass(frozen=True)
class DataDistribution:
    """IID-entry distribution over databases of a fixed size.

    ``values`` are the possible entry values; ``entry_dist`` weights them.
    A database is db_size independent draws.
    """

    values: tuple
    entry_dist: DiscreteDistribution
    db_size: int = 1

    def __post_init__(self) -> None:
        if len(self.values) != self.entry_dist.n:
            raise ValueError("values and entry distribution must have equal length")
        object.__setattr__(self, "db_size", _integer("db_size", self.db_size, 1, _MAX_SIZE))


def data_distribution(
    values: Sequence[Hashable],
    weights: Sequence[float] | None = None,
    db_size: int = 1,
) -> DataDistribution:
    """Build a DataDistribution; uniform over values when weights is None."""
    values = tuple(values)
    if weights is None:
        weights = [1.0] * len(values)
    return DataDistribution(values, make_distribution(weights), db_size)


def sample_neighbor_pair(
    dd: DataDistribution, rng: np.random.Generator
) -> tuple[Database, Database]:
    """Draw a database and a neighbor differing in one (the first) entry.

    Entries are iid, so resampling position 0 is distributionally the
    same as resampling a uniformly random position. The fresh entry may
    equal the old one; the two databases then coincide, which is a valid
    (if degenerate) neighbor pair.
    """
    idx = rng.choice(dd.entry_dist.n, size=dd.db_size, p=dd.entry_dist.probs)
    d0 = tuple(dd.values[i] for i in idx)
    j = int(rng.choice(dd.entry_dist.n, p=dd.entry_dist.probs))
    d1 = (dd.values[j],) + d0[1:]
    return d0, d1


def constant_family(dist: DiscreteDistribution) -> Family:
    """Family that ignores its database entirely: perfectly private."""
    return lambda db: dist


def value_flag_family(
    flagged: set,
    p_flagged: DiscreteDistribution,
    p_plain: DiscreteDistribution,
) -> Family:
    """Family whose output depends only on whether entry 0 is flagged.

    A neighbor pair whose first entries straddle the flag boundary gets
    the (p_plain, p_flagged) pair of output distributions; all other
    pairs see identical outputs. Used to build families that are private
    on most neighbor pairs but blatantly non-private on a set of known
    measure.
    """
    if p_flagged.n != p_plain.n:
        raise ValueError("the two output distributions must share a universe")
    return lambda db: p_flagged if db[0] in flagged else p_plain


@_positive_finite
def amplification_reps(penalty_weight: float, alpha: float) -> int:
    """Majority repetitions of the inner tester per sampled pair.

    max(1, ceil(18 ln(2 w / alpha))): enough to push the inner tester's
    1/3 error below alpha / (2 w) so that per-pair flips do not move the
    measure estimate by more than the slack the accept rule leaves.
    """
    _check("penalty_weight", penalty_weight, 0.0, open_low=True)
    _check("alpha", alpha, 0.0, open_low=True)
    return _majority_reps(2.0 * penalty_weight / alpha)


@_positive_finite
def trial_count(penalty_weight: float, alpha: float, gamma: float) -> int:
    """Neighbor pairs to sample for the measure estimate.

    ceil(ln 3 * (2 (alpha/(2w) + gamma)^2 + 2 (alpha/w)) / (alpha/w)^2);
    a Bernstein-style count that concentrates the empirical non-private
    fraction to within alpha/(2w) with probability >= 2/3. With the
    threshold gamma + alpha/w of :func:`random_privacy_test`, that margin
    supports rejection once the failing measure is >= gamma + 2 alpha/w,
    not at gamma + alpha.
    """
    _check("penalty_weight", penalty_weight, 0.0, open_low=True)
    _check("alpha", alpha, 0.0, open_low=True)
    _check("gamma", gamma, 0.0, 1.0)
    a = alpha / penalty_weight
    numerator = 2.0 * (a / 2.0 + gamma) ** 2 + 2.0 * a
    return math.ceil(math.log(3.0) * numerator / (a * a))


def random_privacy_test(
    family: Family,
    dd: DataDistribution,
    two_db_tester: TwoDbTester,
    gamma: float,
    alpha: float,
    penalty_weight: float,
    rng: np.random.Generator,
) -> TestOutcome:
    """Random-privacy test via reduction to a two-database tester.

    For each of m = trial_count(penalty_weight, alpha, gamma) neighbor
    pairs the inner tester runs k = amplification_reps(penalty_weight,
    alpha) times on ``MechanismPair(family(d0), family(d1))``; the pair is
    marked non-private iff a majority of runs reject (ties count as
    non-private). Accepts iff the marked fraction y satisfies
    y <= gamma + alpha / penalty_weight. A family that maps the two
    databases to different universes raises ValueError.

    The inner tester must reject pairs that violate the claim and accept
    pairs that meet it, each with probability >= 2/3 on fresh samples;
    any of the two-database testers in this package qualifies.

    The promise, with such an inner tester: a family whose failing
    measure is at most gamma is accepted, and one whose failing measure
    is at least gamma + 2 alpha/penalty_weight is rejected, each with
    probability >= 2/3. The gap is 2 alpha/w because ``trial_count``
    concentrates the fraction to within alpha/(2w) of the measure and the
    threshold sits alpha/w above gamma; at measure gamma + alpha with
    w = 1, rejection may be close to 1/2.
    """
    # the formulas check gamma, alpha and penalty_weight
    m = trial_count(penalty_weight, alpha, gamma)
    k = amplification_reps(penalty_weight, alpha)

    marked = 0
    queries = [0, 0]
    for _ in range(m):
        d0, d1 = sample_neighbor_pair(dd, rng)
        mech = MechanismPair(family(d0), family(d1), seed=int(rng.integers(2**63)))
        rejections = 0
        for _ in range(k):
            if two_db_tester(mech, rng).rejected:
                rejections += 1
        marked += math.floor(0.5 + rejections / k)
        queries[0] += mech.query_counter[0]
        queries[1] += mech.query_counter[1]

    y = marked / m
    threshold = gamma + alpha / penalty_weight
    verdict = Verdict.ACCEPT if y <= threshold else Verdict.REJECT
    return TestOutcome(
        verdict,
        statistic=y,
        threshold=threshold,
        queries_used=(queries[0], queries[1]),
        diagnostics={
            "rule": "accept iff marked fraction <= gamma + alpha / penalty_weight",
            "trials": m,
            "reps": k,
            "inner_tests": m * k,
            "marked": marked,
        },
    )
