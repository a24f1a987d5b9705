"""No-information tester for approximate differential privacy.

The tester sees only sampling access to the two databases. It draws a
Poissonized number of samples, so per-outcome counts are independent
Poisson variables, and compares the plug-in estimate of the additive
slack in both orderings of the databases (the privacy definition is
symmetric),

    z = max(sum_i max(0, (x_i - e^eps * y_i) / r),
            sum_i max(0, (y_i - e^eps * x_i) / r)),

against delta + alpha, at the rate :func:`noinfo_rate` derives. The
statistic is ``distributions._slack`` over the counts. Completeness and
soundness follow from the statistic's concentration: E[z] is at least
the true slack and at most the true slack plus sqrt(n / r) *
(1 + e^{2 eps}), with variance at most (1 + e^{2 eps}) / r.

The testers ``adp_test_ni`` and ``adp_test_budgeted`` take the claim
(eps, delta) and alpha as plain arguments and check them; the sample
size is never an argument of ``adp_test_ni``. ``_runner(n, side,
**claim)``, the harness's runner of both kinds, tests a block of trials
at once: the harness's seed blocks, and ``adp_test_ni`` as a block of
one. All functions are pure up to the supplied RNG and
mechanism streams.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .distributions import _EPS_MAX, _check, _integer, _positive_finite, _slack
from .mechanisms import _MAX_COUNT, MechanismPair, _ReadAheadPair
from .outcomes import TestOutcome, Verdict

#: Give up if the Poisson draw keeps coming back zero (rate would have to
#: be absurdly small for this to trigger).
_MAX_POISSON_RETRIES = 1000

#: Largest Poisson rate drawn: below numpy's limit near 2^63, and an int64 in threshold keys.
_MAX_RATE = 2.0**62


@_positive_finite
def noinfo_rate(n: int, eps: float, alpha: float) -> float:
    """Poisson sampling rate max{4n(1+e^{2eps})^2, 12(1+e^{2eps})} / alpha^2.

    The squared factor on the n-dependent branch is what the variance
    argument needs for the stated 2/3 confidence; the weaker unsquared
    form undershoots it. A rate that is not a finite float (large eps,
    tiny alpha) raises ValueError.
    """
    n = _integer("n", n, 1)
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    alpha = _check("alpha", alpha, 0.0, open_low=True)
    b = 1.0 + math.exp(2.0 * eps)
    return max(4.0 * n * b * b, 12.0 * b) / (alpha * alpha)


def _poisson_nonzero(rate: float, rng: np.random.Generator) -> tuple[int, int]:
    """Poisson draw conditioned on being positive; returns (value, retries).
    The caller checks the rate against ``_MAX_RATE`` once per experiment."""
    retries = 0
    while True:
        r = int(rng.poisson(rate))
        if r > 0:
            return r, retries
        retries += 1
        if retries > _MAX_POISSON_RETRIES:
            raise ValueError(f"rate {rate!r} is too small: the Poisson draw stays zero")


def _claim(eps: float, delta: float, alpha: float) -> tuple[float, float, float]:
    """The claim (eps, delta) and the distance alpha, checked."""
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    delta = _check("delta", delta, 0.0, 1.0)
    return eps, delta, _check("alpha", alpha, 0.0, open_low=True)


def _outcome(z, r: int, threshold: float) -> TestOutcome:
    """The slack rule on one row of r samples per database: accept iff the
    larger of the slack directions ``z = [forward, reverse]``, as ``_slack``
    returns them, stays below ``threshold`` = delta + alpha."""
    z_forward, z_reverse = z
    statistic = z_reverse if z_reverse > z_forward else z_forward  # max(), without its call
    verdict = Verdict.ACCEPT if statistic < threshold else Verdict.REJECT
    diagnostics = {
        "rule": "accept iff statistic < delta + alpha",
        "z_forward": z_forward,
        "z_reverse": z_reverse,
        "r": (r, r),
    }
    return TestOutcome(verdict, statistic, threshold, (r, r), diagnostics)


def _decide(x, y, r, eps, delta, alpha, retries=None) -> list[TestOutcome]:
    """:func:`_outcome` on each row of counts.

    ``x`` and ``y`` hold r samples per row from databases 0 and 1: one
    1-D row each with an int ``r``, or (k, n) blocks with a length-k
    integer array of per-row ``r`` (see ``distributions._slack``).
    ``retries``, one per row, joins its diagnostics. The callers check
    the claim.
    """
    z = _slack(x, y, eps, r)
    rows = zip(zip(*z), r.tolist()) if isinstance(r, np.ndarray) else ((z, r),)
    threshold = delta + alpha
    outcomes = [_outcome(row, size, threshold) for row, size in rows]
    if retries is not None:
        for outcome, tries in zip(outcomes, retries, strict=True):
            outcome.diagnostics["retries"] = tries
    return outcomes


def _runner(n: int, side, eps: float, delta: float, alpha: float, r: int | None = None):
    """The no-information tester over blocks of trials on n outcomes:
    ``adp_test_ni`` with ``r`` None (delta checked, then the rate derived
    and checked against ``_MAX_RATE`` once), ``adp_test_budgeted`` with an
    integer ``r`` (the claim, then r, checked). ``side``, which every
    registry runner takes, is ignored. The callable returned draws each
    ``(pair, rng)`` stream of a block through ``pair.draw`` and decides the
    count rows with one ``_decide`` call, with the bits of the tester on
    each trial alone."""
    if r is None:
        delta = _check("delta", delta, 0.0, 1.0)
        rate = _check("rate", noinfo_rate(n, eps, alpha), 0.0, _MAX_RATE, open_low=True)

        def draw(pair, rng):
            size, retries = _poisson_nonzero(rate, rng)
            return pair.draw(0, size), pair.draw(1, size), size, retries
    else:
        eps, delta, alpha = _claim(eps, delta, alpha)
        r = _integer("r", r, 1, _MAX_COUNT)

        def draw(pair, rng):
            return pair.draw(0, r), pair.draw(1, r), r

    def run(streams):
        x, y, sizes, *retries = zip(*[draw(*stream) for stream in streams])
        return _decide(np.array(x), np.array(y), np.array(sizes), eps, delta, alpha, *retries)

    return run


def adp_test_ni(
    mech: MechanismPair, eps: float, delta: float, alpha: float, rng: np.random.Generator
) -> TestOutcome:
    """Poissonized no-information aDP test at claim (eps, delta).

    Draws the sample count r ~ Poisson(noinfo_rate(mech.n, eps, alpha)),
    redrawing on r = 0 (retries are recorded in diagnostics), samples
    both databases with the same r, and accepts iff the slack statistic
    stays below delta + alpha. A claim whose rate is not finite is
    rejected with ValueError.
    """
    return _runner(mech.n, None, eps, delta, alpha)([(mech, rng)])[0]


@functools.lru_cache(maxsize=64, typed=True)
def _budget(eps: float, delta: float, alpha: float, r: int) -> tuple[float, float, int]:
    """``adp_test_budgeted``'s checked eps, threshold delta + alpha and r.
    Cached per argument tuple and argument types, so a value equal to a
    cached one but of another type (True for 1) is checked as itself; an
    argument the checks refuse raises, and nothing is cached for it."""
    eps, delta, alpha = _claim(eps, delta, alpha)
    return eps, delta + alpha, _integer("r", r, 1, _MAX_COUNT)


def adp_test_budgeted(
    mech: MechanismPair, eps: float, delta: float, alpha: float, r: int
) -> TestOutcome:
    """Fixed-budget variant: exactly r samples per database, same decision.

    Useful where exact query accounting matters (reductions and the
    random-privacy conversion); the Poissonized form draws a random
    sample count by design. It decides its one row with ``_outcome``
    rather than a block of one, and checks each distinct tuple of claim
    and r once (``_budget``), as the reduction repeats one tuple for
    every call. On the read-ahead pair of ``random_privacy_test``
    (``mechanisms._ReadAheadPair``) the slack of both databases' rows is
    read from the pair's scores, one ``_slack`` pass over the rest of
    both blocks, where the pair can serve them: the same bits, query
    counts and stream states as ``_slack(mech.draw(0, r), mech.draw(1, r),
    eps, r)``, which every other pair, wrapper and state takes.
    """
    try:
        eps, threshold, r = _budget(eps, delta, alpha, r)
    except TypeError:  # an unhashable argument, which the checks name
        eps, threshold, r = _budget.__wrapped__(eps, delta, alpha, r)
    z = mech._scored(eps, r) if type(mech) is _ReadAheadPair else None
    if z is None:
        z = _slack(mech.draw(0, r), mech.draw(1, r), eps, r)
    return _outcome(z, r, threshold)
