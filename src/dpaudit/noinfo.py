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

from .mechanisms import MechanismPair
from .outcomes import TestOutcome, Verdict

#: Give up if the Poisson draw keeps coming back zero (rate would have to
#: be absurdly small for this to trigger).
_MAX_POISSON_RETRIES = 1000


def noinfo_rate(n: int, eps: float, alpha: float) -> float:
    """Poisson sampling rate max{4n(1+e^{2eps})^2, 12(1+e^{2eps})} / alpha^2.

    The squared factor on the n-dependent branch is what the variance
    argument needs for the stated 2/3 confidence; the weaker unsquared
    form undershoots it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    b = 1.0 + math.exp(2.0 * eps)
    return max(4.0 * n * b * b, 12.0 * b) / (alpha * alpha)


@dataclass
class AdpNiConfig:
    """Configuration for the no-information aDP tester.

    ``lambda_rate`` defaults to :func:`noinfo_rate`. ``both_directions``
    tests the slack in both orderings of the databases (the privacy
    definition is symmetric); turn it off to reproduce the literal
    one-direction listing. ``shared_r`` reuses a single Poisson draw for
    both databases; turn it off to draw per-database sample counts
    independently.
    """

    n: int
    eps: float
    delta: float
    alpha: float
    lambda_rate: float | None = None
    both_directions: bool = True
    shared_r: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.lambda_rate is None:
            self.lambda_rate = noinfo_rate(self.n, self.eps, self.alpha)
        elif self.lambda_rate <= 0:
            raise ValueError("lambda_rate must be positive")


def poisson_nonzero(rate: float, rng: np.random.Generator) -> tuple[int, int]:
    """Poisson draw conditioned on being positive; returns (value, retries)."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    retries = 0
    while True:
        r = int(rng.poisson(rate))
        if r > 0:
            return r, retries
        retries += 1
        if retries > _MAX_POISSON_RETRIES:
            raise RuntimeError("Poisson draw returned zero too many times")


def poissonized_histogram(
    mech: MechanismPair, db: int, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Draw r ~ Poisson(rate), then r samples from the database.

    Poissonization makes the per-outcome counts mutually independent
    Poisson(rate * p_i) variables, which is what every concentration
    argument in this package relies on. Returns (counts, r); r may be 0.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    r = int(rng.poisson(rate))
    return mech.draw(db, r), r


def _slack(x, y, r0: int, r1: int, eps: float) -> list[float]:
    """[z_forward, z_reverse] from the stacked frequencies [x / r0, y / r1]."""
    freqs = np.array((x, y), dtype=np.float64)
    freqs /= ((r0,), (r1,))
    return np.maximum(0.0, freqs - math.exp(eps) * freqs[::-1]).sum(axis=1).tolist()


def adp_statistic(x: np.ndarray, y: np.ndarray, r: int, eps: float) -> float:
    """Plug-in slack estimate sum_i max(0, x_i / r - e^eps * y_i / r)."""
    if r <= 0:
        raise ValueError("r must be positive")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return _slack(x, y, r, r, eps)[0]


def _statistic_outcome(
    x: np.ndarray,
    y: np.ndarray,
    r0: int,
    r1: int,
    eps: float,
    delta: float,
    alpha: float,
    both_directions: bool,
    queries: tuple[int, int],
    extra: dict | None = None,
) -> TestOutcome:
    """Decision shared by the Poissonized and fixed-budget testers."""
    z_forward, z_reverse = _slack(x, y, r0, r1, eps)
    statistic = max(z_forward, z_reverse) if both_directions else z_forward
    threshold = delta + alpha
    verdict = Verdict.ACCEPT if statistic < threshold else Verdict.REJECT
    diagnostics = {
        "rule": "accept iff statistic < delta + alpha",
        "z_forward": z_forward,
        "z_reverse": z_reverse,
        "both_directions": both_directions,
        "r": (r0, r1),
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
    r0, retries = poisson_nonzero(cfg.lambda_rate, rng)
    r1, extra_retries = (r0, 0) if cfg.shared_r else poisson_nonzero(cfg.lambda_rate, rng)
    x = mech.draw(0, r0)
    y = mech.draw(1, r1)
    return _statistic_outcome(
        x,
        y,
        r0,
        r1,
        cfg.eps,
        cfg.delta,
        cfg.alpha,
        cfg.both_directions,
        queries=(r0, r1),
        extra={"retries": retries + extra_retries, "shared_r": cfg.shared_r},
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
    if r <= 0:
        raise ValueError("r must be positive")
    x = mech.draw(0, r)
    y = mech.draw(1, r)
    return _statistic_outcome(
        x, y, r, r, eps, delta, alpha, both_directions, queries=(r, r)
    )


def counts_tester(
    eps: float, delta: float, alpha: float, both_directions: bool = True
):
    """Decision function over pre-drawn histograms of r samples each.

    Returns a callable ``tester(x, y, r, rng=None) -> TestOutcome`` for
    use as the budgeted tester in reductions.
    """

    def tester(x, y, r, rng=None) -> TestOutcome:
        if r <= 0:
            raise ValueError("r must be positive")
        return _statistic_outcome(
            x, y, r, r, eps, delta, alpha, both_directions, queries=(0, 0)
        )

    tester.budget_note = "caller supplies r samples per database"
    return tester
