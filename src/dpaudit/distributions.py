"""Discrete distributions and exact privacy-parameter arithmetic.

Everything in this module is a pure function of explicit probability
vectors: total-variation and KL divergences, the max divergence that
defines pure differential privacy, the additive slack ``delta_at_epsilon``
that defines approximate differential privacy, and 2^n event-enumeration
oracles that cross-check the closed forms on small outcome spaces. Those
walk the events in blocks of 2^14 and hold no 2^n vector, so one call
peaks under 768 KiB at any n up to ``BRUTE_FORCE_MAX_N``.

Conventions used throughout the package:

* outcomes are indexed ``0 .. n-1``;
* infinite divergences are reported as ``math.inf`` and NaN never escapes;
* in ratio conventions, ``x/0`` is infinite for ``x > 0`` and ``0/0``
  contributes nothing to a maximum.

All functions are safe for concurrent use: distributions are immutable
after construction and nothing here mutates shared state.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Tolerance for accepting a probability vector as normalized.
NORMALIZATION_TOL = 1e-9

#: Largest universe size accepted by the 2^n event-enumeration oracles.
BRUTE_FORCE_MAX_N = 20

#: Largest outcome universe or database size a constructor builds; a
#: 256-row calibration block of counts at this size holds 128 MiB.
_MAX_SIZE = 2**16

#: Recognized privacy notions. The random notions weigh privacy failures
#: over a data distribution instead of over worst-case neighbors.
NOTIONS = ("pDP", "aDP", "RpDP", "RaDP")

_FLOAT_MAX = sys.float_info.max

#: Largest eps (or pDP alpha) whose e^eps is finite.
_EPS_MAX = math.log(_FLOAT_MAX)


def _check(name: str, value, low: float, high: float = _FLOAT_MAX,
           open_low: bool = False, open_high: bool = False) -> float:
    """``float(value)`` if ``value`` is a real number in [low, high];
    ``open_low`` and ``open_high`` leave out the bound.

    The one range check of the package's parameters: NaN, +-inf, values
    out of range and anything but a real number (``None``; strings, bytes
    and booleans, which ``float`` reads) raise ValueError naming ``name``;
    against [-inf, inf], which every number but NaN meets, the message
    says that ``value`` is not a real number.
    """
    v = value
    if type(v) is not float:  # the hot path passes floats, which need no type test
        real = type(v) is int or isinstance(v, numbers.Real) and not isinstance(v, bool)
        try:
            v = float(v) if real else math.nan
        except OverflowError:  # an int beyond the float range
            v = math.nan
    if (v > low if open_low else v >= low) and (v < high if open_high else v <= high):
        return v
    if (low, high, open_low, open_high) == (-math.inf, math.inf, False, False):
        raise ValueError(f"{name} must be a real number; got {value!r}")
    bounds = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
    raise ValueError(f"{name} must lie in {bounds}; got {value!r}")


def _integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``int(value)`` for an integer or an integral float such as 18.0.

    The one integer check of the package's documents and parameters: a
    fractional part, NaN, +-inf, ``None``, a string, a boolean and any
    other non-number raise ValueError naming the parameter, and so do a
    value below ``low`` or above ``high`` and a float above 2^53, where
    floats stop holding every integer (1e308).
    """
    whole = type(value) is int or isinstance(value, np.integer) or (
        isinstance(value, float) and value.is_integer() and abs(value) <= 2.0**53
    )
    if not whole:
        raise ValueError(f"{name} must be an integer; got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be an integer >= {low}; got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be an integer <= {high}; got {value!r}")
    return int(value)


def _holds_bool(values) -> bool:
    """Whether a list or tuple holds a boolean, which numpy reads as a number."""
    return isinstance(values, (list, tuple)) and any(type(v) in (bool, np.bool_) for v in values)


def _numbers(name: str, values) -> np.ndarray:
    """``values`` as a new float64 array, if its entries are real numbers.
    numpy alone reads "0.5" as 0.5, None as NaN and [True, 0.5] as
    [1.0, 0.5], so strings, ``None`` and booleans raise ValueError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or _holds_bool(values):
        raise ValueError(f"{name} must hold numbers only; got {values!r}")
    return arr.astype(np.float64)


def _object(value) -> dict:
    """A nested JSON object as is, for its own reader; anything else is refused."""
    if not isinstance(value, dict):
        raise TypeError(f"must be an object; got {value!r}")
    return value


def _fields(kind: str, doc, spec: dict) -> dict:
    """The one reader of the package's documents: the keys ``spec`` names in
    the JSON object ``doc``, each converted by ``spec[key]`` or, if optional,
    ``(conversion, default)``; other keys are ignored. ``int`` converts through
    :func:`_integer`, ``float`` through :func:`_check` (no NaN, ``true`` or
    ``"0.25"``). A non-object, a missing key or a value its conversion
    refuses raises ValueError naming the key and, but for ``int``, ``kind``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} must be an object; got {doc!r}")
    fields = {}
    for key, rule in spec.items():
        convert, *default = rule if isinstance(rule, tuple) else (rule,)
        if key not in doc:
            if not default:
                raise ValueError(f"{kind} needs {key!r}")
            fields[key] = default[0]
        elif convert is int:
            fields[key] = _integer(key, doc[key])
        else:
            try:
                fields[key] = (_check(key, doc[key], -math.inf, math.inf) if convert is float
                               else convert(doc[key]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{kind} {key!r}: {exc}") from None
    return fields


def _entry(registry: dict, what: str, name):
    """``registry[name]``; any other name raises ValueError listing the names."""
    if not isinstance(name, str) or name not in registry:
        raise ValueError(f"{what} must be one of {tuple(registry)}; got {name!r}")
    return registry[name]


def _majority_reps(odds: float) -> int:
    """max(1, ceil(18 ln(odds))): majority-vote repetitions of a test that
    is right with probability >= 2/3, so that the vote errs with
    probability <= 1 / odds (Hoeffding: exp(-k/18) <= 1 / odds)."""
    return max(1, math.ceil(18.0 * math.log(odds)))


def _positive_finite(formula):
    """Make a rate or count formula raise ValueError unless its result is
    a finite number > 0, also where the arithmetic overflows or divides by
    a square that underflowed to zero. The error names the formula without
    a leading underscore."""

    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            value = formula(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        _check(formula.__name__.lstrip("_"), value, 0.0, open_low=True)
        return value

    return checked


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over the finite outcome set {0, ..., n-1}.

    The vector must hold numbers only (no string, ``None`` or boolean),
    be non-negative and sum to 1 within ``NORMALIZATION_TOL``. The
    underlying array is made read-only, so instances can be shared freely
    between threads.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = _numbers("probs", self.probs)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("probs must be a non-empty one-dimensional vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probs must be finite")
        if np.any(arr < 0):
            raise ValueError("probs must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"probs must sum to 1 within {NORMALIZATION_TOL}; got {total!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        """Number of outcomes."""
        return int(self.probs.size)

    def to_json(self) -> dict:
        """The document ``{"n": ..., "probs": [...]}`` that
        :meth:`from_json` reads, as an object, not its text.

        ``json.dumps`` writes the floats with shortest round-trip precision
        (up to 17 significant digits), so the vector survives the text
        bit-exactly.
        """
        return {"n": self.n, "probs": self.probs.tolist()}

    @classmethod
    def from_json(cls, doc: str | dict) -> "DiscreteDistribution":
        data = json.loads(doc) if isinstance(doc, str) else doc
        spec = {"probs": functools.partial(_numbers, "probs"), "n": (int, None)}
        fields = _fields("distribution", data, spec)
        if fields["n"] not in (None, fields["probs"].size):
            raise ValueError("n field disagrees with probs length")
        return cls(fields["probs"])


@dataclass(frozen=True)
class PrivacyParams:
    """A privacy claim: notion plus the parameters that notion uses.

    Fields not used by the notion must be left at their neutral values
    (``delta=0``, ``gamma=0``), which keeps claims canonical and
    comparable. ``penalty_weight`` is the weight that converts measure of
    failing neighbor pairs into the random notions' test distance.
    """

    epsilon: float = 0.0
    delta: float = 0.0
    gamma: float = 0.0
    penalty_weight: float = 1.0
    notion: str = "pDP"

    def __post_init__(self) -> None:
        if self.notion not in NOTIONS:
            raise ValueError(f"notion must be one of {NOTIONS}")
        _check("epsilon", self.epsilon, 0.0, _EPS_MAX)
        _check("delta", self.delta, 0.0, 1.0)
        _check("gamma", self.gamma, 0.0, 1.0)
        _check("penalty_weight", self.penalty_weight, 0.0, open_low=True)
        if self.notion in ("pDP", "RpDP") and self.delta != 0.0:
            raise ValueError(f"{self.notion} does not use delta; it must be 0")
        if self.notion in ("pDP", "aDP") and self.gamma != 0.0:
            raise ValueError(f"{self.notion} does not use gamma; it must be 0")


def make_distribution(weights: Sequence[float] | np.ndarray) -> DiscreteDistribution:
    """Normalize non-negative weights into a DiscreteDistribution.

    Raises ValueError on an empty vector, an entry that is not a number
    (a string, ``None``, a boolean), a negative entry, or an all-zero vector.
    """
    arr = _numbers("weights", weights)
    total = float(arr.sum())
    if not total > 0:
        raise ValueError("weights must have positive total mass")
    # DiscreteDistribution rejects what is not a finite non-negative vector
    return DiscreteDistribution(arr / total)


def _distribution(name: str, value) -> DiscreteDistribution:
    """``value``, once it is a DiscreteDistribution; ValueError naming ``name`` otherwise."""
    if not isinstance(value, DiscreteDistribution):
        raise ValueError(f"{name} must be a DiscreteDistribution; got {value!r}")
    return value


def _instance(name: str, value) -> tuple:
    """``value``, once it is a pair (p0, p1) of DiscreteDistributions."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2
            and all(isinstance(p, DiscreteDistribution) for p in value)):
        raise ValueError(f"{name} must be a pair (p0, p1) of distributions; got {value!r}")
    return value


def _rng(rng) -> np.random.Generator:
    """``rng``, once it is a ``numpy.random.Generator``."""
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator; got {rng!r}")
    return rng


def _paired(p: DiscreteDistribution, q: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    pa = _distribution("each distribution", p).probs
    qa = _distribution("each distribution", q).probs
    if pa.size != qa.size:
        raise ValueError("distributions must share an outcome universe")
    return pa, qa


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, half the L1 distance of the vectors."""
    pa, qa = _paired(p, q)
    return float(0.5 * np.abs(pa - qa).sum())


def _log_ratio(p: DiscreteDistribution, q: DiscreteDistribution):
    """(p_i, ln(p_i / q_i)) on p's support; None if q misses mass there."""
    pa, qa = _paired(p, q)
    support = pa > 0
    if np.any(qa[support] == 0):
        return None
    ps = pa[support]
    # ratios of subnormals can overflow to inf; the resulting inf is the
    # correct value, so only the warning is suppressed
    with np.errstate(over="ignore"):
        return ps, np.log(ps / qa[support])


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """KL divergence sum_i p_i ln(p_i / q_i); inf on support mismatch."""
    ratio = _log_ratio(p, q)
    return math.inf if ratio is None else float(np.sum(ratio[0] * ratio[1]))


def max_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Worst-case log likelihood ratio max_{i: p_i > 0} ln(p_i / q_i).

    The maximum over events equals the maximum over single outcomes, so
    this pointwise form is exact. Returns inf if q misses mass somewhere
    p has it.
    """
    ratio = _log_ratio(p, q)
    return math.inf if ratio is None else float(np.max(ratio[1]))


def exact_pdp_epsilon(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Smallest eps such that the pair satisfies eps-pDP in both directions."""
    return max(max_divergence(p, q), max_divergence(q, p))


#: A single row shorter than this many outcomes takes ``_slack``'s scalar
#: loop. numpy's ``add.reduce`` sums a row of fewer than 8 elements in
#: index order (its pairwise summation starts at 8 elements), so the loop's
#: sequential sum reproduces the numpy path's bits there.
_SHORT_ROW = 8


def _slack(a, b, eps: float, r=1) -> list:
    """[sum_i max(0, u_i - e^eps v_i), the same with u, v swapped] for
    u = a / r, v = b / r: probability vectors, or counts over their
    sample size. ``a`` and ``b`` are one 1-D row each, with one number
    ``r``, or (k, n) blocks of count rows, with a length-k array of
    per-row ``r``; a block gives [forward sums, reverse sums], k of each.
    The caller checks eps; rows of unequal length raise ValueError.

    A single row shorter than ``_SHORT_ROW`` outcomes is summed by a
    Python loop, since there numpy's six dispatches cost more than the
    dozen float operations. The loop is bit-exact with the numpy path:
    each term is u_i + v_i * (-e^eps) after the same float64 rounding of
    the counts and of r, terms that the clamp would zero are skipped
    (adding +0.0 changes no sum), and the positive ones are added in
    index order, as ``add.reduce`` does on short rows. NaN must not reach
    the loop, which drops it where numpy propagates it; the callers pass
    finite values. Any block takes the numpy path, which reduces each
    row along the last axis just as it reduces a single row, so a block
    row has the bits of the same row passed alone.
    """
    n = len(a)
    if n < _SHORT_ROW and len(b) == n and not isinstance(r, np.ndarray):
        if isinstance(a, np.ndarray):
            a = a.tolist()  # Python numbers: numpy scalars are slow here
        if isinstance(b, np.ndarray):
            b = b.tolist()
        m = -math.exp(eps)
        s = float(r)  # the float64 that numpy divides by
        forward = reverse = 0.0
        for x, y in zip(a, b):
            u = x / s
            v = y / s
            t = u + v * m
            if t > 0.0:
                forward += t
            t = v + u * m
            if t > 0.0:
                reverse += t
        return [forward, reverse]
    rows = np.array((b, a, b), dtype=np.float64)
    if isinstance(r, np.ndarray):  # one sample size per row of a block
        rows /= r[:, None]
    elif r != 1:  # x / 1 is exact, so the division only costs time
        rows /= r
    # stacked once as (v, u, v), both orderings are [v, u] * -e^eps + [u, v]
    # on contiguous halves; u + (-(e^eps v)) rounds as u - e^eps v does,
    # signed zeros included
    d = rows[:2] * -math.exp(eps)
    d += rows[1:]
    np.maximum(0.0, d, out=d)
    return np.add.reduce(d, axis=-1).tolist()


def delta_at_epsilon_directed(
    p: DiscreteDistribution, q: DiscreteDistribution, eps: float
) -> float:
    """Additive slack of the ordered direction p against e^eps * q.

    This is the mass of the worst event for the one-directional constraint
    P(E) <= e^eps Q(E) + delta: the pointwise sum of positive parts equals
    the single worst event {i : p_i > e^eps q_i}.
    """
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    return _slack(*_paired(p, q), eps)[0]


def delta_at_epsilon(p: DiscreteDistribution, q: DiscreteDistribution, eps: float) -> float:
    """Smallest delta making the pair (eps, delta)-aDP, both directions.

    Non-increasing in eps; at eps = 0 it equals the total variation
    distance.
    """
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    return max(_slack(*_paired(p, q), eps))


def _event_masses(probs: np.ndarray) -> np.ndarray:
    """Mass of every one of the 2^n events, indexed by outcome bitmask.

    Filled in place by doubling: the events that contain outcome i are
    those without it, plus p_i.
    """
    sums = np.empty(1 << len(probs), dtype=np.float64)
    sums[0] = 0.0
    k = 1
    for p in probs:
        np.add(sums[:k], p, out=sums[k : 2 * k])
        k *= 2
    return sums


#: The brute-force oracles walk the events in blocks of 2^14: 128 KiB per
#: vector, small enough to stay in cache and to be reused, not faulted
#: in afresh, from one block to the next. At n = 18 on 2 vCPUs, one
#: thread, 2^14 measured best (~1.1 ms per ``brute_force_delta`` call,
#: against ~1.9 ms at 2^12 and ~1.3 ms at 2^15).
_EVENT_BLOCK_BITS = 14


def _event_blocks(p: DiscreteDistribution, q: DiscreteDistribution):
    """Yield (P(E), Q(E)) for all 2^n events, 2^min(n, 14) at a time.

    The first block is the events over the outcomes below
    k = min(n, _EVENT_BLOCK_BITS). Each later block adds one nonempty set
    h of the outcomes k and above, in ascending order of h: the first
    block plus h's masses, added in ascending order of outcome. So every
    event mass is the same left-to-right sum that ``_event_masses`` forms
    over all n outcomes. The later blocks share one buffer pair, so a call
    holds at most four block vectors (512 KiB). A yielded pair is
    overwritten by the next block: read it before asking for that one.
    Raises ValueError unless the pair shares a universe of at most
    ``BRUTE_FORCE_MAX_N`` outcomes.
    """
    pa, qa = _paired(p, q)
    n = len(pa)
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute-force enumeration is capped at n <= {BRUTE_FORCE_MAX_N}")
    k = min(n, _EVENT_BLOCK_BITS)
    lp, lq = _event_masses(pa[:k]), _event_masses(qa[:k])
    yield lp, lq
    if k == n:
        return
    bp, bq = np.empty_like(lp), np.empty_like(lq)
    for h in range(1, 1 << (n - k)):
        first, *rest = (i for i in range(k, n) if h >> (i - k) & 1)
        np.add(lp, pa[first], out=bp)
        np.add(lq, qa[first], out=bq)
        for i in rest:
            bp += pa[i]
            bq += qa[i]
        yield bp, bq


def brute_force_delta(
    p: DiscreteDistribution, q: DiscreteDistribution, eps: float
) -> float:
    """Independent oracle for delta_at_epsilon by enumerating all events.

    Maximizes P(E) - e^eps Q(E) over all 2^n events and both ordered
    directions, floored at zero. Only valid for n <= BRUTE_FORCE_MAX_N.
    The events are walked in blocks of 2^14, so a call holds no 2^n
    vector: five block vectors at most, 640 KiB.
    """
    eps = _check("eps", eps, 0.0, _EPS_MAX)
    scale = math.exp(eps)
    fwd = rev = 0.0
    d = None
    for mp, mq in _event_blocks(p, q):
        # both directed differences in one scratch buffer
        d = np.multiply(mq, scale, out=d)
        fwd = max(fwd, float(np.subtract(mp, d, out=d).max()))
        np.multiply(mp, scale, out=d)
        rev = max(rev, float(np.subtract(mq, d, out=d).max()))
    return max(fwd, rev)


def approx_max_divergence_bruteforce(
    p: DiscreteDistribution, q: DiscreteDistribution, delta: float
) -> float:
    """Delta-approximate max divergence by enumerating all events.

    Computes sup over events E with P(E) >= delta of
    ln((P(E) - delta) / Q(E)). An event with positive numerator and zero
    Q-mass drives the supremum to inf; events whose numerator is zero
    contribute ln 0 and are dominated unless no event has a positive
    numerator, in which case the supremum is -inf. That includes delta = 1
    when the masses sum to just under 1 in float64. Raises if delta lies
    outside [0, 1] or n exceeds BRUTE_FORCE_MAX_N. The events are walked
    in blocks of 2^14, so a call holds no 2^n vector: five block vectors
    and four boolean masks at most, about 704 KiB.
    """
    delta = _check("delta", delta, 0.0, 1.0)
    best = -math.inf
    numer = None
    for mp, mq in _event_blocks(p, q):
        # numerators in a scratch buffer; a positive one marks a
        # qualifying event, since x - delta > 0 exactly when x > delta
        numer = np.subtract(mp, delta, out=numer)
        positive = numer > 0
        if np.any(positive & (mq == 0)):
            return math.inf
        usable = positive & (mq > 0)
        # as in _log_ratio, a ratio over a subnormal mass may overflow
        # to inf, which is the correct value
        with np.errstate(over="ignore"):
            np.divide(numer, mq, out=numer, where=usable)
        np.log(numer, out=numer, where=usable)
        best = max(best, float(np.max(numer, where=usable, initial=-math.inf)))
    return best


def min_mass(dists: Iterable[DiscreteDistribution]) -> float:
    """Minimum entry across all given distributions (zero entries count)."""
    values = [float(_distribution("each of dists", d).probs.min()) for d in dists]
    if not values:
        raise ValueError("min_mass needs at least one distribution")
    return min(values)
