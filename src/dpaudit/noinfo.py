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

The testers take the claim (eps, delta) and alpha as plain arguments
and check them; the sample size is never an argument of ``adp_test_ni``.
All functions are pure up to the supplied RNG and mechanism streams.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import _EPS_MAX, _check, _integer, _positive_finite, _slack
from .mechanisms import MechanismPair
from .outcomes import TestOutcome, Verdict

#: Give up if the Poisson draw keeps coming back zero (rate would have to
#: be absurdly small for this to trigger).
_MAX_POISSON_RETRIES = 1000

#: Largest Poisson rate drawn: below numpy's limit near 2^63, and an int64 in cache keys.
_MAX_RATE = 2.0**62


@_positive_finite
def noinfo_rate(n: int, eps: float, alpha: float) -> float:
    """Poisson sampling rate max{4n(1+e^{2eps})^2, 12(1+e^{2eps})} / alpha^2.

    The squared factor on the n-dependent branch is what the variance
    argument needs for the stated 2/3 confidence; the weaker unsquared
    form undershoots it. A rate that is not a finite float (large eps,
    tiny alpha) raises ValueError.
    """
    n = _check("n", _integer("n", n), 1.0)
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    alpha = _check("alpha", alpha, 0.0, open_low=True)
    b = 1.0 + math.exp(2.0 * eps)
    return max(4.0 * n * b * b, 12.0 * b) / (alpha * alpha)


def poisson_nonzero(rate: float, rng: np.random.Generator) -> tuple[int, int]:
    """Poisson draw conditioned on being positive; returns (value, retries)."""
    _check("rate", rate, 0.0, _MAX_RATE, open_low=True)
    retries = 0
    while True:
        r = int(rng.poisson(rate))
        if r > 0:
            return r, retries
        retries += 1
        if retries > _MAX_POISSON_RETRIES:
            raise ValueError(f"rate {rate!r} is too small: the Poisson draw stays zero")


def _statistic_outcome(
    x: np.ndarray,
    y: np.ndarray,
    r: int,
    eps: float,
    delta: float,
    alpha: float,
    queries: tuple[int, int],
    extra: dict | None = None,
) -> TestOutcome:
    """Decision shared by the Poissonized and fixed-budget testers."""
    z_forward, z_reverse = _slack(x, y, eps, r)
    statistic = max(z_forward, z_reverse)
    threshold = delta + alpha
    verdict = Verdict.ACCEPT if statistic < threshold else Verdict.REJECT
    diagnostics = {
        "rule": "accept iff statistic < delta + alpha",
        "z_forward": z_forward,
        "z_reverse": z_reverse,
        "r": (r, r),
    }
    if extra:
        diagnostics.update(extra)
    return TestOutcome(verdict, statistic, threshold, queries, diagnostics)


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
    delta = _check("delta", delta, 0.0, 1.0)
    r, retries = poisson_nonzero(noinfo_rate(mech.n, eps, alpha), rng)
    x = mech.draw(0, r)
    y = mech.draw(1, r)
    return _statistic_outcome(
        x, y, r, eps, delta, alpha, queries=(r, r), extra={"retries": retries}
    )


def adp_test_budgeted(
    mech: MechanismPair, eps: float, delta: float, alpha: float, r: int
) -> TestOutcome:
    """Fixed-budget variant: exactly r samples per database, same decision.

    Useful where exact query accounting matters (reductions and the
    random-privacy conversion); the Poissonized form draws a random
    sample count by design.
    """
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    delta = _check("delta", delta, 0.0, 1.0)
    alpha = _check("alpha", alpha, 0.0, open_low=True)
    r = _integer("r", r)
    _check("r", r, 1.0)
    x = mech.draw(0, r)
    y = mech.draw(1, r)
    return _statistic_outcome(x, y, r, eps, delta, alpha, queries=(r, r))


def _histogram(name: str, counts) -> np.ndarray:
    """``counts`` as an array if it is a non-empty 1-D histogram of
    non-negative integers (an integer dtype: no floats, NaN or booleans)."""
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu" or arr.min() < 0:
        raise ValueError(
            f"{name} must be a 1-D histogram of non-negative integers; got {counts!r}"
        )
    return arr


def counts_tester(eps: float, delta: float, alpha: float):
    """Decision function over pre-drawn histograms of r samples each.

    Returns a callable ``tester(x, y, r) -> TestOutcome`` that draws
    nothing and reports no queries, as :func:`fixtures.distinguish` needs.
    ``x`` and ``y`` must be equal-length 1-D histograms of non-negative
    integers, ``r`` an integer >= 1 and each histogram must hold exactly
    r samples; anything else raises ValueError.
    """
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    delta = _check("delta", delta, 0.0, 1.0)
    alpha = _check("alpha", alpha, 0.0, open_low=True)

    def tester(x, y, r) -> TestOutcome:
        x, y = _histogram("x", x), _histogram("y", y)
        if x.size != y.size:
            raise ValueError(f"x and y must have the same length; got {x.size} and {y.size}")
        r = _integer("r", r)
        _check("r", r, 1.0)
        if not x.sum() == r == y.sum():
            raise ValueError(
                f"x and y must each hold r = {r} samples; got {x.sum()} and {y.sum()}"
            )
        return _statistic_outcome(x, y, r, eps, delta, alpha, queries=(0, 0))

    return tester
