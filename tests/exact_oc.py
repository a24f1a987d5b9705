"""Exact operating characteristics of ``adp_test_budgeted`` on
two-outcome pairs, and of ``random_privacy_test`` given its inner
rejection probabilities.

With two outcomes, r samples from database b form the histogram
(k, r - k) with k ~ Bin(r, p_b[0]), and the databases draw
independently. The tester's acceptance probability is then a sum over
the grid of count pairs, each weighted by two binomial masses. Counts
whose binomial tail mass lies below ``TAIL`` are dropped, so a
probability misses at most 4 * TAIL of mass.

The decision repeats the float operations of ``distributions._slack``
on whole count grids: u = x / r and v = y / r, each term u + v * (-e^eps)
clamped at 0 and summed in index order, and acceptance iff the larger
direction stays below delta + alpha.
"""

import math

import numpy as np
from scipy import stats

#: Binomial tail mass dropped on each side of each database's counts.
TAIL = 1e-13


def accepts(x, y, r: int, eps: float, delta: float, alpha: float) -> np.ndarray:
    """``noinfo._decide((x, r - x), (y, r - y), r, eps, delta, alpha)[0].accepted``
    for integer arrays ``x`` and ``y`` of outcome-0 counts, broadcast."""
    x, y, s, m = np.asarray(x), np.asarray(y), float(r), -math.exp(eps)
    u0, u1, v0, v1 = x / s, (r - x) / s, y / s, (r - y) / s
    forward = np.maximum(u0 + v0 * m, 0.0) + np.maximum(u1 + v1 * m, 0.0)
    reverse = np.maximum(v0 + u0 * m, 0.0) + np.maximum(v1 + u1 * m, 0.0)
    return np.maximum(forward, reverse) < delta + alpha


def _counts(r: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Outcome-0 counts of r samples outside the two tails, and their masses."""
    low, high = stats.binom.ppf(TAIL, r, p), stats.binom.isf(TAIL, r, p)
    k = np.arange(int(low), int(high) + 1)
    return k, stats.binom.pmf(k, r, p)


def acceptance(p0, p1, r: int, eps: float, delta: float, alpha: float) -> float:
    """Probability that ``adp_test_budgeted(MechanismPair(p0, p1), eps, delta,
    alpha, r)`` accepts, for two-outcome distributions ``p0`` and ``p1``."""
    (x, wx), (y, wy) = _counts(r, p0.probs[0]), _counts(r, p1.probs[0])
    return float(wx @ accepts(x[:, None], y[None, :], r, eps, delta, alpha) @ wy)


def marks(reject: float, reps: int) -> float:
    """Probability that ``random_privacy_test`` marks a pair whose inner test
    rejects with probability ``reject``: at least half of ``reps`` runs reject."""
    return float(stats.binom.sf(math.ceil(reps / 2) - 1, reps, reject))


def reduction_rejection(mark: float, pairs: int, threshold: float) -> float:
    """Probability that ``random_privacy_test`` rejects when each of its
    ``pairs`` sampled pairs is marked independently with probability ``mark``:
    the marked fraction, in the reduction's float division, exceeds ``threshold``."""
    least = next((c for c in range(pairs + 1) if c / pairs > threshold), pairs + 1)
    return float(stats.binom.sf(least - 1, pairs, mark))
