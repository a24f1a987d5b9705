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
from dataclasses import dataclass, field
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
from .mechanisms import MechanismPair, _ReadAheadPair
from .outcomes import TestOutcome, Verdict

Database = tuple
TwoDbTester = Callable[[MechanismPair, np.random.Generator], TestOutcome]
#: A mechanism family maps any database to its output distribution.
Family = Callable[[Database], DiscreteDistribution]


@dataclass(frozen=True)
class DataDistribution:
    """IID-entry distribution over databases of a fixed size.

    ``values`` are the possible entry values, kept as a tuple;
    ``entry_dist`` weights them. A database is db_size independent draws.
    ``values`` that are not iterable and an ``entry_dist`` that is not a
    DiscreteDistribution raise ValueError naming the argument.
    """

    values: tuple
    entry_dist: DiscreteDistribution
    db_size: int = 1
    #: the inverse CDF ``Generator.choice`` builds from ``p`` on every call
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _entries(self.values))
        _distribution("entry_dist", self.entry_dist)
        if len(self.values) != self.entry_dist.n:
            raise ValueError("values and entry distribution must have equal length")
        object.__setattr__(self, "db_size", _integer("db_size", self.db_size, 1, _MAX_SIZE))
        cdf = self.entry_dist.probs.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)


def _entries(values) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"values must be an iterable of entry values; got {values!r}") from None


def _distribution(name: str, value) -> None:
    if not isinstance(value, DiscreteDistribution):
        raise ValueError(f"{name} must be a DiscreteDistribution; got {value!r}")


def data_distribution(
    values: Sequence[Hashable],
    weights: Sequence[float] | None = None,
    db_size: int = 1,
) -> DataDistribution:
    """Build a DataDistribution; uniform over values when weights is None."""
    values = _entries(values)
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

    The entries are drawn as ``rng.choice(n, size, p=dd.entry_dist.probs)``
    draws them, indices and stream alike, through the inverse CDF that
    ``dd`` keeps, without ``choice``'s checks of ``p`` on every call. A
    ``dd`` that is not a DataDistribution or an ``rng`` that is not a
    ``numpy.random.Generator`` raises ValueError.
    """
    if not isinstance(dd, DataDistribution):
        raise ValueError(f"dd must be a DataDistribution; got {dd!r}")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator; got {rng!r}")
    cdf = dd._cdf
    d0 = tuple(dd.values[i] for i in cdf.searchsorted(rng.random(dd.db_size), side="right"))
    j = int(cdf.searchsorted(rng.random(), side="right"))
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
    measure. A ``p_flagged`` or ``p_plain`` that is not a
    DiscreteDistribution raises ValueError naming it.
    """
    _distribution("p_flagged", p_flagged)
    _distribution("p_plain", p_plain)
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


def _output(family: Family, db: Database) -> DiscreteDistribution:
    dist = family(db)
    if not isinstance(dist, DiscreteDistribution):
        raise ValueError(
            f"family must map each database to a DiscreteDistribution; got {dist!r} for {db!r}"
        )
    return dist


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
    alpha) times on ``MechanismPair(family(d0), family(d1), seed=s)``, s
    drawn from ``rng`` after the databases; the pair is marked
    non-private iff a majority of runs reject (ties count as non-private).
    Accepts iff the marked fraction y satisfies y <= gamma + alpha /
    penalty_weight. A family that maps the two databases to different
    universes raises ValueError.

    The inner tester must reject pairs that violate the claim and accept
    pairs that meet it, each with probability >= 2/3 on fresh samples;
    any of the two-database testers in this package qualifies. A family
    value that is not a DiscreteDistribution, an inner result that is not
    a TestOutcome, and a ``dd`` or ``rng`` that :func:`sample_neighbor_pair`
    refuses raise ValueError.

    Each pair reads ahead (``mechanisms._ReadAheadPair``): once a database
    has been asked the same count on its last two draws, its stream state
    is saved and the next rows of that count come from one multinomial
    call, at most the k reps left and at most 2^16 counts (512 KiB) in
    all, so a k of ~12,800 at n = 2^16 still takes 512 KiB, not ~6.7 GB.
    A draw of another count or a ``draw_many`` rewinds: the state is
    restored and the rows served are drawn again, and the database draws
    singly for the rest of the pair, so at most one block per database
    and pair is wasted. Every row the inner tester sees and every query
    count is that of ``MechanismPair(family(d0), family(d1), seed=s)``;
    a budgeted inner tester makes two multinomial calls per database and
    pair, not k. ``adp_test_budgeted`` on such a pair checks its claim
    once per argument tuple and, once both databases serve blocks, reads
    each call's slacks from one ``_slack`` pass over the rest of both
    blocks, so at k = 54 on 3 outcomes a pair makes three ``_slack``
    calls, not k; its outcomes have the bits of per-row scoring.

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
        p0, p1 = _output(family, d0), _output(family, d1)
        mech = _ReadAheadPair(p0, p1, int(rng.integers(2**63)), k)
        rejections = 0
        for _ in range(k):
            outcome = two_db_tester(mech, rng)
            if not isinstance(outcome, TestOutcome):
                raise ValueError(
                    f"the two-database tester must return a TestOutcome; got {outcome!r}"
                )
            if outcome.rejected:
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
