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

One function, :func:`identity_threshold`, calibrates identity-test
thresholds: it checks its inputs, keys the claim by a digest of the
distribution and the test parameters, and on a miss simulates the null
by Monte Carlo on fixed-size row blocks of counts, with an RNG seeded
from that key. A threshold is thus a pure function of its key; it is
answered from one process-wide table of the thresholds calibrated in
the process, and experiments that repeat a claim (a sweep over seeds,
trials or the claimed eps and delta; a truthful and a lying box against
one claimed side) simulate it once. The statistic is a sum of
independent per-bin terms, so its null law depends only on the multiset
of claimed masses: each threshold is keyed and simulated on the
ascending-sorted mass vector, and a claim and any permutation of it (the
two databases of a mirror-image mechanism) share one Monte-Carlo run.

Each tester is a block runner, ``runner(n, side, **claim)``: ``_runner``
(aDP) and ``_pdp_runner`` (pDP) check the side with ``_side`` (a
``SideInfo`` on n outcomes, nothing else) and the claim, and derive
their rates, thresholds and null means, once per experiment.
``adp_test_fi`` and ``pdp_test_fi`` are blocks of one trial, and the
harness runs its seed blocks through them. The aDP runner draws and
scores each database's majority reps as one block, through the same
row-vectorised statistic; on at least ``_OVERLAP_BINS`` = 128 outcomes it
draws and scores database 0 on one helper thread while the caller does
database 1: two threads, from disjoint streams, with the bits of one.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading

import numpy as np

from .distributions import (
    _EPS_MAX,
    _MAX_SIZE,
    DiscreteDistribution,
    _check,
    _distribution,
    _integer,
    _majority_reps,
    _positive_finite,
    _rng,
    delta_at_epsilon,
    min_mass,
)
from .mechanisms import MechanismPair, SideInfo
from .noinfo import _MAX_RATE, _poisson_nonzero
from .outcomes import TestOutcome, Verdict

#: Bump when the identity statistic changes; it is packed into every
#: threshold key, so a new statistic gets new keys and new thresholds.
#: Keying on sorted masses is a choice of key, not a change to the
#: statistic, so it does not bump this: an already-sorted claim keeps its
#: key and threshold.
STATISTIC_VERSION = 1

#: Sample-budget constant for the identity tester, fixed by Monte Carlo:
#: at max(1, ceil(6 sqrt(n) / alpha^2)) samples the calibrated test keeps
#: its two-sided guarantees with margin across the grid exercised in the
#: test suite. The asymptotic requirement is only O(sqrt(n) / alpha^2).
BUDGET_CONSTANT = 6.0

#: Per-call success probability the identity tester is calibrated for; it
#: is packed into every threshold key.
IDENTITY_CONFIDENCE = 2.0 / 3.0

#: Exact slack on the claimed distributions is compared against
#: delta + this tolerance so that float noise in e^eps cannot flip an
#: exactly-tight claim to REJECT.
EXACT_CHECK_TOL = 1e-12


@_positive_finite
def identity_budget(n: int, alpha: float) -> int:
    """Poisson rate for one identity test on an n-outcome universe, calibrated
    to succeed with probability ``IDENTITY_CONFIDENCE``."""
    n = _integer("n", n, 1, _MAX_SIZE)
    _check("alpha", alpha, 0.0, open_low=True)
    budget = max(1, math.ceil(BUDGET_CONSTANT * math.sqrt(n) / (alpha * alpha)))
    # a Poisson rate numpy can draw, packed as an int64 into threshold keys
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
    if c.ndim < 1 or c.shape[-1] != _distribution("q", q).n:
        raise ValueError("counts length must match the distribution")
    stats = _identity_scores(c, *_null_means(q, rate))
    return float(stats) if stats.ndim == 0 else stats


def _null_means(q: DiscreteDistribution, rate: float) -> tuple[np.ndarray | None, np.ndarray]:
    """q's support mask (None when every outcome has mass) and the null
    means rate * q_i on it: the part of :func:`identity_statistic` that
    does not depend on the counts."""
    support = q.probs > 0.0
    return (None if support.all() else support), rate * q.probs[support]


def _identity_scores(c: np.ndarray, support: np.ndarray | None, means: np.ndarray):
    """:func:`identity_statistic` of the rows of ``c``, with
    :func:`_null_means` taken once; the caller checks the rate and shape."""
    if support is not None:
        off_support = c[..., ~support].sum(axis=-1) > 0
        c = c[..., support]
    terms = np.subtract(c, means, dtype=np.float64)
    np.square(terms, out=terms)
    terms -= c
    terms /= means
    stats = terms.sum(axis=-1)
    return stats if support is None else np.where(off_support, math.inf, stats)


#: Rows of null counts simulated at a time in calibration, bounding its memory.
_CALIBRATION_BLOCK = 256

#: Most Monte-Carlo trials of one calibration: its statistics take 8 B per
#: trial, so they stay within 128 MiB.
_MAX_CALIBRATION_TRIALS = 2**24

#: Monte-Carlo null draws behind each identity threshold unless a caller
#: asks for another count.
CALIBRATION_TRIALS = 2000

#: Thresholds calibrated in this process, by key. A key fixes its
#: threshold (the calibration RNG is seeded from it), so a claim is
#: simulated once per process. An entry is one 64-character key and one
#: float, so the table is not bounded. Threads that miss on one key
#: together each calibrate it and store the same value.
_CALIBRATED: dict[str, float] = {}


def identity_threshold(
    q: DiscreteDistribution, alpha: float, trials: int = CALIBRATION_TRIALS
) -> float:
    """The identity threshold of ``q`` at ``alpha``: the Monte-Carlo null
    quantile of :func:`identity_statistic` over ``trials`` null draws (an
    integer in [100, ``_MAX_CALIBRATION_TRIALS`` = 2^24], checked before
    any key is packed or any draw simulated; the kept statistics grow by
    8 B per trial).

    The key is a sha256 digest of q's masses sorted ascending, the test
    parameters (n, alpha, confidence, budget, trials) and
    ``STATISTIC_VERSION``. Sorting is exact: the null law of the identity
    statistic is symmetric in the bins, so a claim and every permutation
    of it share one key, one seeded Monte-Carlo run and one threshold.
    On a miss the null counts (independent Poissons with mean budget *
    q_i, at the rate identity_budget(q.n, alpha)) are drawn from an RNG
    seeded from the key, in row blocks of ``_CALIBRATION_BLOCK``;
    zero-mean bins consume no randomness, so a threshold does not depend
    on the block size and is the same in every process, whichever
    computes it first.

    The threshold is the empirical quantile at IDENTITY_CONFIDENCE plus
    2.5 standard errors (capped at 0.995), nudged up one ulp so a
    simulated tie still accepts. The cushion keeps the realized null
    acceptance rate above IDENTITY_CONFIDENCE despite quantile estimation
    noise and rare last-bit flips: the same counts scored against q in its
    own bin order sum their terms in another order. A threshold that is
    not finite is refused before it is stored.
    """
    budget = identity_budget(_distribution("q", q).n, alpha)
    trials = _integer("trials", trials, 100, _MAX_CALIBRATION_TRIALS)
    probs = np.sort(q.probs)
    h = hashlib.sha256(probs.tobytes())
    h.update(struct.pack("<qddqq", q.n, alpha, IDENTITY_CONFIDENCE, budget, trials))
    h.update(struct.pack("<q", STATISTIC_VERSION))
    key = h.hexdigest()
    threshold = _CALIBRATED.get(key)
    if threshold is not None:
        return threshold
    rng = np.random.default_rng(int(key[:16], 16))
    null, means = DiscreteDistribution(probs), budget * probs
    stats = []
    for start in range(0, trials, _CALIBRATION_BLOCK):
        counts = rng.poisson(means, size=(min(_CALIBRATION_BLOCK, trials - start), q.n))
        stats.append(identity_statistic(null, counts, budget))
    se = math.sqrt(IDENTITY_CONFIDENCE * (1.0 - IDENTITY_CONFIDENCE) / trials)
    level = min(0.995, IDENTITY_CONFIDENCE + 2.5 * se)
    quantile = np.quantile(np.concatenate(stats), level, method="higher")
    threshold = float(np.nextafter(quantile, math.inf))
    if not math.isfinite(threshold):
        raise ValueError("identity threshold is not finite")
    _CALIBRATED[key] = threshold
    return threshold


#: Outcomes from which ``_runner`` draws and scores database 0 on a
#: helper thread while the caller does database 1. numpy's multinomial
#: and the statistic's array passes release the GIL, so the two
#: databases overlap; on few outcomes a trial is mostly Python work under
#: the GIL, and starting the thread (~85 µs) costs more than the overlap
#: saves. Overlapped against serial at claim (0.5, 0, 0.3) on the
#: geometric ladder (at n = 3, a pair of its shape), 2 vCPUs, the caller
#: plus one helper against the caller alone:
#:
#: - one ``adp_test_fi`` call (``timeit``): 520 against 726 µs at
#:   n = 1,024, 207 against 190 at n = 64, 155 against 60 at n = 3;
#: - wall per trial of a block (``perf_counter``): at n = 128, 0.93 of
#:   serial on one trial, 0.78 on 2 and 0.56 on 200; at n = 64, 0.82 on 2
#:   and 0.57 on 200; at n = 3, 2.07 on 2 and 1.38 on 200.
#:
#: From 128 outcomes up no block size loses. The overlap costs CPU time:
#: +6% per trial at n = 1,024 on 20 trials, more on short blocks.
_OVERLAP_BINS = 128


def _overlap(first, second):
    """``(first(), second())``, ``first`` run on a helper thread while
    ``second`` runs here. An error of either is raised here once the
    helper has ended; no thread outlives the call."""
    out = []

    def helper():
        try:
            out.append((first(), None))
        except BaseException as exc:  # re-raised by the caller
            out.append((None, exc))

    thread = threading.Thread(target=helper, name="dpaudit-database-0")
    thread.start()
    try:
        second_result = second()
    finally:
        thread.join()
    first_result, error = out[0]
    if error is not None:
        raise error
    return first_result, second_result


def _side(kind: str, n: int, side) -> SideInfo:
    """``side``, once it is a ``SideInfo`` on the n outcomes that the
    full-information ``kind`` tests."""
    if not isinstance(side, SideInfo):
        raise ValueError(f"{kind} needs side information")
    if n != side.n:
        raise ValueError("mechanism universe does not match the side information")
    return side


def _runner(n: int, side: SideInfo, eps: float, delta: float, alpha: float):
    """The full-information aDP tester over blocks of trials on n outcomes.

    Once, before any trial: the side and claim are checked (``_side``),
    the claim's exact slack taken, and the budget, both identity
    thresholds and each side's support and null means derived. A claim
    whose slack already exceeds delta gets a runner that draws nothing and
    rejects every trial. Otherwise the callable returned takes a block of
    ``(pair, rng)`` streams, draws each trial's two ``SUBTEST_REPS``
    Poisson size vectors from its rng (database 0's, then database 1's),
    and then draws and scores database 0 of every trial and database 1 of
    every trial, on a helper thread and on the caller at once when trials
    have at least ``_OVERLAP_BINS`` bins. The two touch disjoint streams
    and counters and call no public function. Outcomes and query counts
    are bit for bit those of each trial alone.
    """
    side = _side("adp-fi", n, side)
    delta = _check("delta", delta, 0.0, 1.0)
    _check("alpha", alpha, 0.0, open_low=True)

    claimed_slack = delta_at_epsilon(side.q0, side.q1, eps)  # checks eps
    if claimed_slack > delta + EXACT_CHECK_TOL:
        diagnostics = {
            "rule": "claimed distributions already violate the slack bound",
            "claimed_slack": claimed_slack,
        }
        return lambda streams: [
            TestOutcome(Verdict.REJECT, claimed_slack, delta, (0, 0), dict(diagnostics))
            for _ in streams
        ]

    budget = identity_budget(n, alpha)
    claims = (side.q0, side.q1)
    thresholds = tuple(identity_threshold(q, alpha) for q in claims)
    nulls = [_null_means(q, budget) for q in claims]

    def fractions(db, pairs, sizes):
        """Each trial's share of identity reps on database ``db`` that reject."""
        null, threshold = nulls[db], thresholds[db]
        return [
            int(np.count_nonzero(_identity_scores(pair._multinomial(db, size), *null) >= threshold))
            / SUBTEST_REPS
            for pair, size in zip(pairs, sizes)
        ]

    def run(streams):
        pairs, rngs = zip(*streams)
        # each trial's rng draws database 0's sizes, then database 1's
        sizes0, sizes1 = zip(*[
            (rng.poisson(budget, size=SUBTEST_REPS), rng.poisson(budget, size=SUBTEST_REPS))
            for rng in rngs
        ])
        before = [tuple(pair.query_counter) for pair in pairs]
        first, second = (lambda: fractions(0, pairs, sizes0)), (lambda: fractions(1, pairs, sizes1))
        both = _overlap(first, second) if n >= _OVERLAP_BINS else (first(), second())
        outcomes = []
        for pair, start, pair_fractions in zip(pairs, before, zip(*both)):
            statistic = max(pair_fractions)
            outcomes.append(TestOutcome(
                Verdict.ACCEPT if statistic < 0.5 else Verdict.REJECT,
                statistic=statistic,
                threshold=0.5,
                queries_used=(pair.query_counter[0] - start[0], pair.query_counter[1] - start[1]),
                diagnostics={
                    "rule": "accept iff both identity majorities reject under half the time",
                    "claimed_slack": claimed_slack,
                    "rejection_fractions": pair_fractions,
                    "identity_thresholds": thresholds,
                    "sample_budget": budget,
                    "reps": SUBTEST_REPS,
                },
            ))
        return outcomes

    return run


def adp_test_fi(
    mech: MechanismPair, side: SideInfo, eps: float, delta: float, alpha: float,
    rng: np.random.Generator,
) -> TestOutcome:
    """Full-information aDP test at claim (eps, delta).

    Step 1 costs no samples: the additive slack of the claimed pair is
    computed exactly (both orderings) and compared against delta; a claim
    that already violates the bound is rejected outright. Step 2 verifies
    each database against its claimed distribution with SUBTEST_REPS
    majority-amplified identity tests, so a box that accepts is, with
    probability >= 2/3, close enough to the claim that its true slack is
    at most delta + (1 + e^eps) * alpha. Each identity threshold is
    :func:`identity_threshold` over ``CALIBRATION_TRIALS`` null draws.

    The call is :func:`_runner` on a block of one trial. From
    ``_OVERLAP_BINS`` = 128 outcomes up, database 0 is drawn and scored on
    one helper thread while the caller does database 1 (two threads; at
    n = 1,024 a call takes ~520 µs against ~726 on one), and the helper
    has ended when the call returns. Below that the call stays on the
    caller's thread.
    """
    return _runner(mech.n, side, eps, delta, alpha)([(mech, _rng(rng))])[0]


def _pdp_runner(n: int, side: SideInfo, eps: float, alpha: float):
    """The full-information pDP tester over blocks of trials on n outcomes.

    The side, eps and alpha are checked and the rate derived, and checked
    against ``_MAX_RATE``, once. The callable returned tests each ``(pair,
    rng)`` stream of a block in turn: the rng draws database 0's sample
    count, then database 1's, and the pair draws database 0, then 1.
    """
    side = _side("pdp-fi", n, side)
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    alpha = _check("alpha", alpha, 0.0, _EPS_MAX, open_low=True)
    beta = min_mass([side.q0, side.q1])
    if beta <= 0.0:
        raise ValueError("claimed distributions must give every outcome positive mass")
    rate = _check("rate", _rate(n, alpha, beta), 0.0, _MAX_RATE, open_low=True)
    band_lo, band_hi = math.exp(-alpha), math.exp(alpha)
    threshold = eps + 2.0 * alpha

    def trial(pair, rng):
        r0, retries0 = _poisson_nonzero(rate, rng)
        r1, retries1 = _poisson_nonzero(rate, rng)
        x, y = pair.draw(0, r0), pair.draw(1, r1)
        xf, yf = x / r0, y / r1
        if np.any(x == 0) or np.any(y == 0):
            eps_hat = math.inf
        else:
            eps_hat = float(np.abs(np.log(xf) - np.log(yf)).max())
        # every claimed mass is > 0 (beta above), so these divide by no zero
        bands_ok = all(
            bool(np.all((ratios >= band_lo) & (ratios <= band_hi)))
            for ratios in (xf / side.q0.probs, yf / side.q1.probs)
        )
        verdict = Verdict.ACCEPT if eps_hat <= threshold and bands_ok else Verdict.REJECT
        return TestOutcome(verdict, eps_hat, threshold, (r0, r1), {
            "rule": (
                "accept iff max |log frequency ratio| <= eps + 2 alpha and all "
                "frequencies sit within e^{+-alpha} of their claimed values"
            ),
            "r": (r0, r1),
            "retries": retries0 + retries1,
            "bands_ok": bands_ok,
            "rate": rate,
        })

    return lambda streams: [trial(*stream) for stream in streams]


def pdp_test_fi(
    mech: MechanismPair, side: SideInfo, eps: float, alpha: float, rng: np.random.Generator
) -> TestOutcome:
    """Full-information pDP test at claim eps.

    Estimates both output distributions from Poissonized samples at the
    rate ln(n) / (alpha^2 beta^2), beta the smallest claimed probability,
    rejects if the worst empirical log-ratio exceeds eps + 2 alpha or if
    any frequency drifts outside the claimed value's e^{+-alpha} band.
    Acceptance certifies, with probability >= 2/3, that the box satisfies
    (eps + 10 alpha)-pDP; a box whose databases match the claims exactly
    and satisfy eps-pDP is accepted with probability >= 2/3. ``alpha`` is
    at most ln(max float), so that e^alpha is finite. The call is
    :func:`_pdp_runner` on a block of one trial.
    """
    return _pdp_runner(mech.n, side, eps, alpha)([(mech, _rng(rng))])[0]
