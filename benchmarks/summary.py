"""Order statistics and gates shared by the benchmark runner and its tests."""

from __future__ import annotations

import math
import statistics

#: Two-sided 95% normal quantile for the Wilson gates.
Z95 = 1.959963984540054

#: Every tester in the package promises a correct verdict with probability
#: at least 2/3 on each ground-truth class; the gates check that promise.
PROMISED_RATE = 2.0 / 3.0

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(values) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). With n samples the value
    is the (n - TAIL_BEYOND)-th smallest, i.e. the percentile
    100 (n - TAIL_BEYOND) / n; it needs n > TAIL_BEYOND.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials and trials >= 1")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return (center - spread) / denom, (center + spread) / denom


def wilson_gate(correct: int, total: int) -> tuple[bool, float, float]:
    """Pass unless the 95% interval of the correct rate lies below 2/3.

    A verdict class fails only on evidence that the promise is broken,
    never on a point estimate. Returns (passed, low, high).
    """
    low, high = wilson_interval(correct, total)
    return high >= PROMISED_RATE, low, high


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
