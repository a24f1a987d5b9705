"""Full-information testers: the claimed output distributions are known.

Two testers live here, each called as ``(mech, side, claim..., alpha,
rng)``. The aDP tester checks the claim analytically (the claimed
distributions are data, so their slack is computable exactly) and then
verifies, via amplified Poissonized identity tests at the rate
:func:`identity_budget`, that the black box actually produces the
claimed distributions. The pDP tester estimates every outcome
probability to within a small multiplicative band, at a rate set by the
smallest claimed probability, and reads the privacy ratio off the
empirical frequencies.

Identity-test thresholds are calibrated by Monte Carlo on fixed-size
row blocks of null counts and cached, keyed by a digest of the
distribution and the test parameters. The calibration RNG is seeded from
that key, so a threshold is a pure function of it: one process-wide
table holds every threshold calibrated in the process, and experiments
that repeat a claim (a sweep over seeds, trials or the claimed eps and
delta; a truthful and a lying box against one claimed side) simulate it
once. A cache file adds persistence across processes; values read from
a file stay with the cache that read them. The statistic is a sum of
independent per-bin terms, so its null law depends only on the multiset
of claimed masses: the cache keys and simulates each threshold on the
ascending-sorted mass vector, and a claim and any permutation of it (the
two databases of a mirror-image mechanism) share one Monte-Carlo run.
The aDP tester draws and scores each database's majority reps as one
block, through the same row-vectorised statistic.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .distributions import (
    _EPS_MAX,
    DiscreteDistribution,
    _check,
    _integer,
    _majority_reps,
    _positive_finite,
    delta_at_epsilon,
    min_mass,
)
from .mechanisms import MechanismPair, SideInfo
from .noinfo import _MAX_RATE, poisson_nonzero
from .outcomes import TestOutcome, Verdict

#: Bump when the identity statistic changes; invalidates cached thresholds.
#: Keying the cache on sorted masses is a cache-side choice, not a change
#: to the statistic, so it does not bump this: an already-sorted claim keeps
#: its key and threshold, and an entry under an unsorted vector is simply
#: never looked up.
STATISTIC_VERSION = 1

#: Sample-budget constant for the identity tester, fixed by Monte Carlo:
#: at max(1, ceil(6 sqrt(n) / alpha^2)) samples the calibrated test keeps
#: its two-sided guarantees with margin across the grid exercised in the
#: test suite. The asymptotic requirement is only O(sqrt(n) / alpha^2).
BUDGET_CONSTANT = 6.0

#: Per-call success probability the identity tester is calibrated for; it
#: is packed into every cache key.
IDENTITY_CONFIDENCE = 2.0 / 3.0

#: Exact slack on the claimed distributions is compared against
#: delta + this tolerance so that float noise in e^eps cannot flip an
#: exactly-tight claim to REJECT.
EXACT_CHECK_TOL = 1e-12


@_positive_finite
def identity_budget(n: int, alpha: float) -> int:
    """Poisson rate for one identity test on an n-outcome universe, calibrated
    to succeed with probability ``IDENTITY_CONFIDENCE``."""
    n = _integer("n", n)
    _check("n", n, 1.0)
    _check("alpha", alpha, 0.0, open_low=True)
    budget = max(1, math.ceil(BUDGET_CONSTANT * math.sqrt(n) / (alpha * alpha)))
    # a Poisson rate numpy can draw, packed as an int64 into cache keys
    _check("sample_budget", budget, 1.0, _MAX_RATE)
    return budget


@_positive_finite
def _rate(n: int, alpha: float, beta: float) -> float:
    """Poisson rate ln(n) / (alpha^2 beta^2) of the pDP tester, beta the
    smallest claimed probability: it makes every empirical frequency land
    within a multiplicative e^alpha of its claim with good probability."""
    if n < 2:
        raise ValueError("pDP testing needs a universe of size >= 2")
    return math.log(n) / (alpha * alpha * beta * beta)


#: Majority repetitions for each of the two per-database identity checks,
#: chosen so both succeed jointly with probability >= 2/3: each check is
#: amplified to confidence sqrt(2/3).
SUBTEST_REPS = _majority_reps(1.0 / (1.0 - math.sqrt(2.0 / 3.0)))


def identity_statistic(
    q: DiscreteDistribution, counts: np.ndarray, rate: float
) -> float | np.ndarray:
    """Debiased chi-squared statistic for Poissonized counts against q.

    sum over the support of ((X_i - rate q_i)^2 - X_i) / (rate q_i); each
    term has mean zero under the null, so the statistic concentrates near
    zero when the box matches q. Any observed mass outside q's support
    gives +inf (such an outcome is impossible under the claim).

    ``counts`` has shape (..., n): a 1-D histogram gives a float, a block
    of histograms one statistic per row.
    """
    _check("rate", rate, 0.0, open_low=True)
    c = np.asarray(counts)
    if c.ndim < 1 or c.shape[-1] != q.n:
        raise ValueError("counts length must match the distribution")
    support = q.probs > 0.0
    off_support = c[..., ~support].sum(axis=-1) > 0
    c = c if support.all() else c[..., support]
    means = rate * q.probs[support]
    terms = np.subtract(c, means, dtype=np.float64)
    np.square(terms, out=terms)
    terms -= c
    terms /= means
    stats = np.where(off_support, math.inf, terms.sum(axis=-1))
    return float(stats) if stats.ndim == 0 else stats


#: Rows of null counts simulated at a time in calibration, bounding its memory.
_CALIBRATION_BLOCK = 256


def calibrate_identity_threshold(
    q: DiscreteDistribution,
    alpha: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo null quantile of the identity statistic under q.

    Simulates the statistic under the null (counts are independent
    Poissons with mean rate * q_i, at the rate identity_budget(q.n,
    alpha)) and returns the empirical quantile at
    IDENTITY_CONFIDENCE plus 2.5 standard errors (capped at 0.995), nudged
    up one ulp so a simulated tie still accepts. The nudge covers ties in
    q's bin order: the same counts scored against a permutation of q sum
    their terms in another order and can differ in the last bits. The
    cushion keeps the realized null acceptance rate above
    IDENTITY_CONFIDENCE despite quantile estimation noise and such rare
    flips.
    Null counts are drawn in row blocks; zero-mean bins consume no
    randomness, so the result does not depend on the block size.
    """
    budget = identity_budget(q.n, alpha)
    trials = _integer("trials", trials)
    _check("trials", trials, 100.0)
    means = budget * q.probs
    stats = []
    for start in range(0, trials, _CALIBRATION_BLOCK):
        counts = rng.poisson(means, size=(min(_CALIBRATION_BLOCK, trials - start), q.n))
        stats.append(identity_statistic(q, counts, budget))
    se = math.sqrt(IDENTITY_CONFIDENCE * (1.0 - IDENTITY_CONFIDENCE) / trials)
    level = min(0.995, IDENTITY_CONFIDENCE + 2.5 * se)
    threshold = float(np.quantile(np.concatenate(stats), level, method="higher"))
    return float(np.nextafter(threshold, math.inf))


#: Thresholds calibrated in this process, by cache key. A key fixes its
#: threshold (the calibration RNG is seeded from it), so every
#: CalibrationCache shares this table and a claim is simulated once per
#: process. Only calibrated values enter it, never values read from a
#: cache file. An entry is one 64-character key and one float, so the
#: table is not bounded. Threads that miss on one key together each
#: calibrate it and store the same value.
_CALIBRATED: dict[str, float] = {}


class CalibrationCache:
    """Threshold cache keyed by (distribution, budget, alpha, confidence).

    The distribution enters the key, and the calibration, as its masses
    sorted ascending. This is exact: the null law of the identity statistic
    is symmetric in the bins, so a claim and every permutation of it share
    one key, one seeded Monte-Carlo run and one threshold.

    Calibration RNG is seeded from the cache key itself, so a given
    configuration always produces the same threshold no matter which
    process computes it first. A key missing from this cache's own table
    is looked up in the process-wide table of calibrated thresholds, and
    only calibrated on a miss there too; so fresh caches in one process
    share each Monte-Carlo run.

    Optionally persists to a JSON file so repeated CLI runs skip the
    Monte Carlo. The file receives every key this cache serves, also
    keys answered from the process table. Values read from the file stay
    in this cache's own table: they never reach the process table, so a
    stale or edited file cannot change another cache's thresholds. The
    file is replaced atomically on every write, and a file that cannot be
    read back as a JSON object of numbers is treated as empty, with a
    warning.
    """

    DEFAULT_TRIALS = 2000

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._table: dict[str, float] = {}
        if self.path is None or not self.path.exists():
            return
        try:
            doc = json.loads(self.path.read_text())
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
            self._table = {str(k): float(v) for k, v in doc.items()}
        except (OSError, ValueError, TypeError) as exc:
            warnings.warn(f"ignoring unreadable calibration cache {self.path}: {exc}")

    def threshold_for(
        self, q: DiscreteDistribution, alpha: float, trials: int | None = None
    ) -> float:
        budget = identity_budget(q.n, alpha)
        trials = self.DEFAULT_TRIALS if trials is None else _integer("trials", trials)
        # the null law is symmetric in the bins: calibrate on the sorted masses
        probs = np.sort(q.probs)
        h = hashlib.sha256(probs.tobytes())
        h.update(struct.pack("<qddqq", q.n, alpha, IDENTITY_CONFIDENCE, budget, trials))
        h.update(struct.pack("<q", STATISTIC_VERSION))
        key = h.hexdigest()
        if key not in self._table:
            threshold = _CALIBRATED.get(key)
            if threshold is None:
                rng = np.random.default_rng(int(key[:16], 16))
                sorted_q = DiscreteDistribution(probs)
                threshold = calibrate_identity_threshold(sorted_q, alpha, trials, rng)
                _CALIBRATED[key] = threshold
            self._table[key] = threshold
            if self.path is not None:
                fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w") as out:
                        out.write(json.dumps(self._table, indent=0, sort_keys=True))
                    os.replace(tmp, self.path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
        return self._table[key]


def adp_test_fi(
    mech: MechanismPair,
    side: SideInfo,
    eps: float,
    delta: float,
    alpha: float,
    rng: np.random.Generator,
    cache: CalibrationCache | None = None,
    calibration_trials: int | None = None,
) -> TestOutcome:
    """Full-information aDP test at claim (eps, delta).

    Step 1 costs no samples: the additive slack of the claimed pair is
    computed exactly (both orderings) and compared against delta; a claim
    that already violates the bound is rejected outright. Step 2 verifies
    each database against its claimed distribution with SUBTEST_REPS
    majority-amplified identity tests, so a box that accepts is, with
    probability >= 2/3, close enough to the claim that its true slack is
    at most delta + (1 + e^eps) * alpha.
    """
    delta = _check("delta", delta, 0.0, 1.0)
    _check("alpha", alpha, 0.0, open_low=True)
    if mech.n != side.n:
        raise ValueError("mechanism universe does not match the side information")

    claimed_slack = delta_at_epsilon(side.q0, side.q1, eps)  # checks eps
    if claimed_slack > delta + EXACT_CHECK_TOL:
        return TestOutcome(
            Verdict.REJECT,
            statistic=claimed_slack,
            threshold=delta,
            queries_used=(0, 0),
            diagnostics={
                "rule": "claimed distributions already violate the slack bound",
                "claimed_slack": claimed_slack,
            },
        )

    cache = cache if cache is not None else CalibrationCache()
    budget = identity_budget(mech.n, alpha)
    before = tuple(mech.query_counter)
    fractions = []
    thresholds = []
    for db, q in ((0, side.q0), (1, side.q1)):
        threshold = cache.threshold_for(q, alpha, calibration_trials)
        if not math.isfinite(threshold):
            raise ValueError("identity threshold is not finite")
        # SUBTEST_REPS Poissonized identity tests, drawn and scored as one block
        sizes = rng.poisson(budget, size=SUBTEST_REPS)
        stats = identity_statistic(q, mech.draw_many(db, sizes), budget)
        fractions.append(int(np.count_nonzero(stats >= threshold)) / SUBTEST_REPS)
        thresholds.append(threshold)
    after = tuple(mech.query_counter)

    statistic = max(fractions)
    verdict = Verdict.ACCEPT if statistic < 0.5 else Verdict.REJECT
    return TestOutcome(
        verdict,
        statistic=statistic,
        threshold=0.5,
        queries_used=(after[0] - before[0], after[1] - before[1]),
        diagnostics={
            "rule": "accept iff both identity majorities reject under half the time",
            "claimed_slack": claimed_slack,
            "rejection_fractions": tuple(fractions),
            "identity_thresholds": tuple(thresholds),
            "sample_budget": budget,
            "reps": SUBTEST_REPS,
        },
    )


def pdp_test_fi(
    mech: MechanismPair,
    side: SideInfo,
    eps: float,
    alpha: float,
    rng: np.random.Generator,
) -> TestOutcome:
    """Full-information pDP test at claim eps.

    Estimates both output distributions from Poissonized samples at the
    rate ln(n) / (alpha^2 beta^2), beta the smallest claimed probability,
    rejects if the worst empirical log-ratio exceeds eps + 2 alpha or if
    any frequency drifts outside the claimed value's e^{+-alpha} band.
    Acceptance certifies, with probability >= 2/3, that the box satisfies
    (eps + 10 alpha)-pDP; a box whose databases match the claims exactly
    and satisfy eps-pDP is accepted with probability >= 2/3. ``alpha`` is
    at most ln(max float), so that e^alpha is finite.
    """
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    alpha = _check("alpha", alpha, 0.0, _EPS_MAX, open_low=True)
    if mech.n != side.n:
        raise ValueError("mechanism universe does not match the side information")
    beta = min_mass([side.q0, side.q1])
    if beta <= 0.0:
        raise ValueError("claimed distributions must give every outcome positive mass")

    rate = _rate(mech.n, alpha, beta)
    r0, retries0 = poisson_nonzero(rate, rng)
    r1, retries1 = poisson_nonzero(rate, rng)
    x = mech.draw(0, r0)
    y = mech.draw(1, r1)
    xf = x / r0
    yf = y / r1

    with np.errstate(divide="ignore"):
        if np.any(x == 0) or np.any(y == 0):
            eps_hat = math.inf
        else:
            eps_hat = float(np.abs(np.log(xf) - np.log(yf)).max())
        band_lo, band_hi = math.exp(-alpha), math.exp(alpha)
        ratios0 = xf / side.q0.probs
        ratios1 = yf / side.q1.probs
        bands_ok = bool(
            np.all((ratios0 >= band_lo) & (ratios0 <= band_hi))
            and np.all((ratios1 >= band_lo) & (ratios1 <= band_hi))
        )

    threshold = eps + 2.0 * alpha
    if eps_hat > threshold:
        verdict = Verdict.REJECT
    elif not bands_ok:
        verdict = Verdict.REJECT
    else:
        verdict = Verdict.ACCEPT
    return TestOutcome(
        verdict,
        statistic=eps_hat,
        threshold=threshold,
        queries_used=(r0, r1),
        diagnostics={
            "rule": (
                "accept iff max |log frequency ratio| <= eps + 2 alpha and all "
                "frequencies sit within e^{+-alpha} of their claimed values"
            ),
            "r": (r0, r1),
            "retries": retries0 + retries1,
            "bands_ok": bands_ok,
            "rate": rate,
        },
    )
