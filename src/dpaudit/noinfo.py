"""No-information tester for approximate differential privacy.

The tester sees only sampling access to the two databases. It draws a
Poissonized number of samples, so per-outcome counts are independent
Poisson variables, and compares the plug-in estimate of the additive
slack

    z = sum_i max(0, (x_i - e^eps * y_i) / r)

against delta + alpha. Completeness and soundness follow from the
statistic's concentration: E[z] is at least the true slack and at most
the true slack plus sqrt(n / r) * (1 + e^{2 eps}), with variance at most
(1 + e^{2 eps}) / r.

All functions are pure up to the supplied RNG and mechanism streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _EPS_MAX, _check, _positive_finite, _slack
from .mechanisms import MechanismPair
from .outcomes import TestOutcome, Verdict

#: Give up if the Poisson draw keeps coming back zero (rate would have to
#: be absurdly small for this to trigger).
_MAX_POISSON_RETRIES = 1000


@_positive_finite
def noinfo_rate(n: int, eps: float, alpha: float) -> float:
    """Poisson sampling rate max{4n(1+e^{2eps})^2, 12(1+e^{2eps})} / alpha^2.

    The squared factor on the n-dependent branch is what the variance
    argument needs for the stated 2/3 confidence; the weaker unsquared
    form undershoots it. A rate that is not a finite float (large eps,
    tiny alpha) raises ValueError.
    """
    n = _check("n", n, 1.0)
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    alpha = _check("alpha", alpha, 0.0, open_low=True)
    b = 1.0 + math.exp(2.0 * eps)
    return max(4.0 * n * b * b, 12.0 * b) / (alpha * alpha)


@dataclass
class AdpNiConfig:
    """Configuration for the no-information aDP tester.

    ``lambda_rate`` defaults to :func:`noinfo_rate`, which also checks
    ``n``, ``eps`` and ``alpha`` (so a claim whose default rate is not
    finite is rejected even with an explicit rate). ``both_directions``
    tests the slack in both orderings of the databases (the privacy
    definition is symmetric); turn it off to reproduce the literal
    one-direction listing. Both databases get the same Poisson sample
    count.
    """

    n: int
    eps: float
    delta: float
    alpha: float
    lambda_rate: float | None = None
    both_directions: bool = True

    def __post_init__(self) -> None:
        self.delta = _check("delta", self.delta, 0.0, 1.0)
        rate = noinfo_rate(self.n, self.eps, self.alpha)
        if self.lambda_rate is not None:
            rate = _check("lambda_rate", self.lambda_rate, 0.0, open_low=True)
        self.lambda_rate = rate


def poisson_nonzero(rate: float, rng: np.random.Generator) -> tuple[int, int]:
    """Poisson draw conditioned on being positive; returns (value, retries)."""
    _check("rate", rate, 0.0, open_low=True)
    retries = 0
    while True:
        r = int(rng.poisson(rate))
        if r > 0:
            return r, retries
        retries += 1
        if retries > _MAX_POISSON_RETRIES:
            raise ValueError(f"rate {rate!r} is too small: the Poisson draw stays zero")


def poissonized_histogram(
    mech: MechanismPair, db: int, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Draw r ~ Poisson(rate), then r samples from the database.

    Poissonization makes the per-outcome counts mutually independent
    Poisson(rate * p_i) variables, which is what every concentration
    argument in this package relies on. Returns (counts, r); r may be 0.
    """
    _check("rate", rate, 0.0, open_low=True)
    r = int(rng.poisson(rate))
    return mech.draw(db, r), r


def adp_statistic(x: np.ndarray, y: np.ndarray, r: int, eps: float) -> float:
    """Plug-in slack estimate sum_i max(0, x_i / r - e^eps * y_i / r)."""
    _check("r", r, 1.0)
    return _slack(x, y, _check("eps", eps, 0.0, _EPS_MAX), r)[0]


def _statistic_outcome(
    x: np.ndarray,
    y: np.ndarray,
    r: int,
    eps: float,
    delta: float,
    alpha: float,
    both_directions: bool,
    queries: tuple[int, int],
    extra: dict | None = None,
) -> TestOutcome:
    """Decision shared by the Poissonized and fixed-budget testers."""
    z_forward, z_reverse = _slack(x, y, eps, r)
    statistic = max(z_forward, z_reverse) if both_directions else z_forward
    threshold = delta + alpha
    verdict = Verdict.ACCEPT if statistic < threshold else Verdict.REJECT
    diagnostics = {
        "rule": "accept iff statistic < delta + alpha",
        "z_forward": z_forward,
        "z_reverse": z_reverse,
        "both_directions": both_directions,
        "r": (r, r),
    }
    if extra:
        diagnostics.update(extra)
    return TestOutcome(verdict, statistic, threshold, queries, diagnostics)


def adp_test_ni(
    mech: MechanismPair, cfg: AdpNiConfig, rng: np.random.Generator
) -> TestOutcome:
    """Poissonized no-information aDP test at claim (eps, delta).

    Draws the sample count r ~ Poisson(lambda_rate), redrawing on r = 0
    (retries are recorded in diagnostics), samples both databases, and
    accepts iff the slack statistic stays below delta + alpha.
    """
    if mech.n != cfg.n:
        raise ValueError("mechanism universe does not match config n")
    assert cfg.lambda_rate is not None
    r, retries = poisson_nonzero(cfg.lambda_rate, rng)
    x = mech.draw(0, r)
    y = mech.draw(1, r)
    return _statistic_outcome(
        x, y, r, cfg.eps, cfg.delta, cfg.alpha, cfg.both_directions,
        queries=(r, r), extra={"retries": retries},
    )


def adp_test_budgeted(
    mech: MechanismPair,
    eps: float,
    delta: float,
    alpha: float,
    r: int,
    both_directions: bool = True,
) -> TestOutcome:
    """Fixed-budget variant: exactly r samples per database, same decision.

    Useful where exact query accounting matters (reductions and the
    random-privacy conversion); the Poissonized form draws a random
    sample count by design.
    """
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    delta = _check("delta", delta, 0.0, 1.0)
    alpha = _check("alpha", alpha, 0.0, open_low=True)
    _check("r", r, 1.0)
    x = mech.draw(0, r)
    y = mech.draw(1, r)
    return _statistic_outcome(
        x, y, r, eps, delta, alpha, both_directions, queries=(r, r)
    )


def counts_tester(
    eps: float, delta: float, alpha: float, both_directions: bool = True
):
    """Decision function over pre-drawn histograms of r samples each.

    Returns a callable ``tester(x, y, r, rng=None) -> TestOutcome`` for
    use as the budgeted tester in reductions.
    """
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    delta = _check("delta", delta, 0.0, 1.0)
    alpha = _check("alpha", alpha, 0.0, open_low=True)

    def tester(x, y, r, rng=None) -> TestOutcome:
        _check("r", r, 1.0)
        return _statistic_outcome(
            x, y, r, eps, delta, alpha, both_directions, queries=(0, 0)
        )

    return tester
