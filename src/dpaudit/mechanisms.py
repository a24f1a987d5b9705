"""Two-database mechanisms as seeded sampling oracles.

A mechanism pair wraps the two output distributions a randomized
algorithm induces on a pair of neighboring databases. Testers interact
with a pair exclusively through :meth:`MechanismPair.draw`; the ``truth``
attribute exists so harnesses and certification code can reach the
underlying distributions, and is off limits to testers by convention.

The zoo constructors below cover the standard simulation subjects:
randomized response, a truncated geometric ladder, a mechanism leaking
through a rare outcome, and explicit distribution pairs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _MAX_SIZE, DiscreteDistribution, _check, _distribution, _entry, _fields, _integer, _slack,
    make_distribution,
)

_TINY = np.finfo(np.float64).tiny

#: Largest eps of the truncated geometric ladder: its two central outcomes
#: weigh e^-eps in one database at every n, and a weight below the smallest
#: normal float is dropped, so above this no outcome is left.
_GEOMETRIC_EPS_MAX = -float(np.log(_TINY))

#: Largest sample count numpy's multinomial takes, an int64. Counts are
#: compared as Python ints: as a float, 2^63 rounds onto this bound.
_MAX_COUNT = 2**63 - 1

#: Counts per database that one block of drawn rows holds at most: 512 KiB
#: of int64 rows. The harness's seed blocks and a read-ahead pair's blocks
#: keep to it.
_BLOCK_COUNTS = 2**16

#: numpy's SeedSequence hash: pool size and constants.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED


def _hashmix(x: np.ndarray, first: int, calls: int, init=_INIT_A, mult=_MULT_A) -> np.ndarray:
    """numpy's hashmix calls first, first + 1, ... along the last axis: call
    k xors init * mult^k into x and multiplies by init * mult^(k + 1)."""
    k = range(first, first + calls + 1)
    c = np.array([init * pow(mult, j, 2**32) % 2**32 for j in k], dtype=np.uint32)
    x = (x ^ c[:-1]) * c[1:]
    return x ^ x >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return m ^ m >> 16


def _words(values) -> list[int]:
    """Little-endian 32-bit words of each non-negative int in turn; 0 is [0]."""
    words = []
    for v in values:
        words.append(v & 0xFFFFFFFF)
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return words


def _seed_rows(seeds, rng_seeds) -> list[list[int]]:
    """The words that ``SeedSequence(e)``, ``SeedSequence(s, spawn_key=(0,))``
    and ``SeedSequence(s, spawn_key=(1,))`` hash, three rows for each ``s, e``
    of two equally long lists. With a key, the run entropy is zero-padded to
    the pool size before the key, so the two key rows differ in their last
    word only."""
    rows = []
    for s, e in zip(seeds, rng_seeds, strict=True):
        key = _words((s,))
        key += [0] * (_POOL - len(key))
        rows += (_words(e), key + [0], key + [1])
    return rows


def _seed_states(rows) -> np.ndarray:
    """``SeedSequence(...).generate_state(4, np.uint64)`` for every row at once.

    Each row is a word list from :func:`_seed_rows`. numpy's mix_entropy and
    generate_state run column-wise over a (rows, width) block. A row's words
    past the pool are mixed in under a length mask; the hash constant they
    advance is not used after the mix, so rows of any lengths share a call.
    """
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    width = max(_POOL, int(lengths.max()))
    block = np.zeros((len(rows), width), dtype=np.uint32)
    block[np.arange(width) < lengths[:, None]] = np.fromiter(itertools.chain(*rows), np.uint32)
    pool = _hashmix(block[:, :_POOL], 0, _POOL)
    for src in range(_POOL):  # each pool word into the other three
        dst = [i for i in range(_POOL) if i != src]
        h = _hashmix(pool[:, src, None], _POOL + (_POOL - 1) * src, _POOL - 1)
        pool[:, dst] = _mix(pool[:, dst], h)
    for src in range(_POOL, width):
        mixed = _mix(pool, _hashmix(block[:, src, None], _POOL * src, _POOL))
        pool = np.where((lengths > src)[:, None], mixed, pool)
    words = _hashmix(np.tile(pool, 2), 0, 2 * _POOL, _INIT_B, _MULT_B)
    return words[:, 0::2].astype(np.uint64) | words[:, 1::2].astype(np.uint64) << np.uint64(32)


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A feed of states from :func:`_seed_states`, handed in row order to
    each PCG64 built on it.

    The k-th ``Generator(PCG64(feed))`` is the generator that row k's
    ``SeedSequence`` seeds. The feed serves only PCG64's request, 4 uint64
    words, and cannot spawn: ``bit_generator.seed_seq`` of a harness trial's
    generator is the feed of its seed block, and no package code asks it
    for more.
    """

    def __init__(self, states: np.ndarray) -> None:
        self._rows = iter(states)  # the rows of a C-ordered block are contiguous

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL or dtype is not np.uint64:
            raise ValueError("a derived seed state holds exactly 4 uint64 words")
        return next(self._rows)


def _generator(feed: _SeedState) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(feed))


def _database(db) -> None:
    """Raise ValueError unless ``db`` is the integer 0 or 1; numpy integers
    pass. A boolean (its type is bool, not int) or a float is refused, as
    True would index database 1 and 1.0 fail with TypeError."""
    if not (type(db) is int or isinstance(db, np.integer)) or db not in (0, 1):
        raise ValueError(f"db must be the integer 0 or 1; got {db!r}")


class MechanismPair:
    """Sampling access to the two databases of a mechanism.

    ``seed`` is an integer >= 0 (5.0 passes; ``None``, which would draw
    from OS entropy, raises ValueError), and the same seed reproduces
    identical sample streams. Database b's stream is
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(b,))))``, exactly the
    b-th child of ``SeedSequence(seed).spawn(2)``, so the two databases'
    draws are independent. Query accounting is exact: ``query_counter[b]``
    is the total number of samples drawn from database ``b``.

    A pair owns mutable stream and counter state and must not be shared
    by concurrent callers: each trial builds its own,
    ``MechanismPair(*mech.truth, seed=s)``, or the harness derives a block
    of them at once, with the same bits (``_spawn_many``).
    """

    def __init__(self, p0: DiscreteDistribution, p1: DiscreteDistribution, seed: int = 0) -> None:
        seed = _integer("seed", seed, 0)
        if _distribution("p0", p0).n != _distribution("p1", p1).n:
            raise ValueError("databases must share an outcome universe")
        self.n = p0.n
        self.truth: tuple[DiscreteDistribution, DiscreteDistribution] = (p0, p1)
        # multinomial requires exactly normalized pvals
        self._pvals = (p0.probs / p0.probs.sum(), p1.probs / p1.probs.sum())
        self.seed = seed
        self._rngs = tuple(
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
            for b in (0, 1)
        )
        self.query_counter = [0, 0]

    def draw(self, db: int, count: int) -> np.ndarray:
        """Histogram of ``count`` fresh i.i.d. samples from database ``db``."""
        # the hot path passes ints in range, which need no further check
        if not (type(db) is int and 0 <= db <= 1
                and type(count) is int and 0 <= count <= _MAX_COUNT):
            _database(db)
            count = _integer("count", count)
            if not 0 <= count <= _MAX_COUNT:
                raise ValueError(f"count must lie in [0, 2**63 - 1]; got {count}")
        self.query_counter[db] += count
        return self._rngs[db].multinomial(count, self._pvals[db])

    def draw_many(self, db: int, counts: np.ndarray) -> np.ndarray:
        """Histograms of ``counts[j]`` fresh samples from database ``db``.

        One multinomial call for a 1-D array of integer counts in [0, 2^63 - 1]:
        row j of the (len(counts), n) result, the stream state after the call
        and the query count equal those of ``draw(db, counts[j])`` in turn.
        """
        _database(db)
        counts = np.asarray(counts)
        integral = counts.size == 0 or counts.dtype.kind in "iu"
        if counts.ndim != 1 or not integral or (
            counts.size and not 0 <= int(counts.min()) <= int(counts.max()) <= _MAX_COUNT
        ):
            raise ValueError("counts must be a 1-D array of integers in [0, 2**63 - 1]")
        return self._multinomial(db, counts.astype(np.int64))

    def _multinomial(self, db: int, counts: np.ndarray) -> np.ndarray:
        """:meth:`draw_many` on a 1-D int64 array of counts that the caller
        has checked. It touches only database ``db``'s stream and counter,
        so the two databases of one pair can draw on two threads at once."""
        # summed as Python ints: an int64 sum of valid counts can wrap
        self.query_counter[db] += sum(counts.tolist())
        return self._rngs[db].multinomial(counts, self._pvals[db])

    def _spawn_many(self, seeds, states):
        """Yield ``(MechanismPair(*truth, seed=s), rng)``, draw for draw, for
        each ``s`` of ``seeds``; ``states`` holds three :func:`_seed_states`
        rows per item, in turn those of ``rng`` and of database 0 and 1.

        With ``states = _seed_states(_seed_rows(seeds, rng_seeds))``, each
        ``rng`` is ``np.random.default_rng(e)`` for its ``e`` of ``rng_seeds``.
        A fresh feed hands the rows out and each item's generators are built
        only when it is yielded, so ``states`` is only read and may be shared.
        """
        feed = _SeedState(states)
        for seed in seeds:
            rng = _generator(feed)  # the feed's rows per item: rng, database 0, database 1
            # a clone without __init__, whose SeedSequence costs more than the kernel's share
            pair = object.__new__(type(self))
            pair.__dict__ = self.__dict__.copy()
            pair.seed = seed
            pair._rngs = (_generator(feed), _generator(feed))
            pair.query_counter = [0, 0]
            yield pair, rng

    def __repr__(self) -> str:
        return f"MechanismPair(n={self.n}, seed={self.seed})"


class _ReadAheadPair(MechanismPair):
    """A :class:`MechanismPair` whose :meth:`_scored` reads ahead for a
    caller that runs ``noinfo.adp_test_budgeted`` about ``reps`` times at
    one claim and count, as ``random_privacy_test``'s amplified inner
    tester does; it serves the bits of ``MechanismPair(p0, p1, seed)``.

    The second :meth:`_scored` call in a row at one eps and count saves
    both databases' ``bit_generator.state``, draws the next rows of that
    count, the one asked included, with one ``multinomial`` call per
    database, scores them with one ``_slack`` pass and keeps only the
    scores. A block holds at most the calls left and at most ``max(1,
    _BLOCK_COUNTS // n)`` rows, so at most 2^16 counts per database
    whatever ``reps`` and ``n``, and scoring it allocates a (3, k, n) and a
    (2, k, n) float64 temporary, at most 2.5 MiB. Row j of a ``multinomial``
    block is the j-th successive draw (see :meth:`draw_many`) and
    ``_slack`` gives a block row the bits of the row passed alone, so every
    score and query count is that of two draws and a ``_slack`` on them.

    A :meth:`_scored` call at another eps or count, and any :meth:`draw`,
    :meth:`draw_many` or :meth:`_multinomial`, first rewind: the saved
    state is restored and the rows served are drawn again, so the stream
    stands where single draws leave it, and the pair draws singly from
    then on; at most one block is wasted. :meth:`draw` and
    :meth:`_multinomial` rewind only their own database, so the two
    databases may still draw on two threads at once.
    """

    def __init__(self, p0: DiscreteDistribution, p1: DiscreteDistribution, seed: int,
                 reps: int) -> None:
        super().__init__(p0, p1, seed)
        self._rows = max(1, _BLOCK_COUNTS // self.n)
        self._left = reps  # calls left to read ahead for; at most 0 once drawing singly
        self._key = None  # the (eps, count) of the last _scored call
        self._block = None  # [rows served, forward, reverse, [state 0, state 1]]

    def draw(self, db: int, count: int) -> np.ndarray:
        _database(db)
        self._rewind(db)
        return super().draw(db, count)

    def _multinomial(self, db: int, counts: np.ndarray) -> np.ndarray:
        self._rewind(db)
        return super()._multinomial(db, counts)

    def _scored(self, eps: float, count: int):
        """``_slack(self.draw(0, count), self.draw(1, count), eps, count)``,
        from the block's scores where it can serve them. eps and ``count``
        are checked by the caller, and both databases' state is touched."""
        key = (eps, count)
        block = self._block
        if block is not None and (key != self._key or self._left <= 0 or block[0] == len(block[1])):
            if key == self._key and self._left > 0:  # used up: both streams stand past it
                self._left -= block[0]
            else:
                self._rewind(0)
                self._rewind(1)
            block = self._block = None
        if block is None:
            if key != self._key or (size := min(self._left, self._rows)) < 2:
                self._key = key
                self._left -= 1
                return _slack(MechanismPair.draw(self, 0, count),
                              MechanismPair.draw(self, 1, count), eps, count)
            rngs, pvals = self._rngs, self._pvals
            states = [rngs[0].bit_generator.state, rngs[1].bit_generator.state]
            block = self._block = [0, *_slack(rngs[0].multinomial(count, pvals[0], size=size),
                                              rngs[1].multinomial(count, pvals[1], size=size),
                                              eps, np.full(size, count)), states]
        served, forward, reverse, _ = block
        block[0] = served + 1
        self.query_counter[0] += count
        self.query_counter[1] += count
        return forward[served], reverse[served]

    def _rewind(self, db: int) -> None:
        """Put database ``db``'s stream where single draws of the rows served
        leave it, and draw singly from then on."""
        self._left = 0
        block = self._block
        if block is not None and (state := block[3][db]) is not None:
            block[3][db] = None
            if block[0] < len(block[1]):
                rng = self._rngs[db]
                rng.bit_generator.state = state
                rng.multinomial(self._key[1], self._pvals[db], size=block[0])


def randomized_response(flip_prob: float, seed: int = 0) -> MechanismPair:
    """Binary randomized response: report the bit, flipped w.p. flip_prob.

    flip_prob must lie strictly inside (0, 0.5); the pair is exactly
    eps-pDP with eps = ln((1-flip_prob)/flip_prob).
    """
    _check("flip_prob", flip_prob, 0.0, 0.5, open_low=True, open_high=True)
    p0 = DiscreteDistribution(np.array([1.0 - flip_prob, flip_prob]))
    p1 = DiscreteDistribution(np.array([flip_prob, 1.0 - flip_prob]))
    return MechanismPair(p0, p1, seed=seed)


def truncated_geometric(eps: float, n: int, seed: int = 0) -> MechanismPair:
    """Two-sided geometric ladder truncated to n outcomes, adjacent centers.

    Database b puts mass proportional to exp(-eps * |i - c_b|) on outcome
    i, with centers c0 = n/2 - 1 and c1 = n/2 (zero-based). n must be even
    and >= 2: even n makes the two normalizers equal by symmetry, which is
    what keeps every outcome ratio within e^{+-eps}; odd n would break the
    eps-pDP contract through unequal normalization. Database 1 is built as
    database 0 reversed, so the two are exact mirror images and share one
    identity calibration at every eps. Outcomes with a
    subnormal weight, whose ratio is distorted, get no mass in either
    database; eps above -ln(smallest normal float) ~708.396, where none
    is left, raises ValueError.
    """
    _check("eps", eps, 0.0, _GEOMETRIC_EPS_MAX, open_low=True)
    n = _integer("n", n, 2, _MAX_SIZE)
    if n % 2:
        raise ValueError(f"n must be even; got {n}")
    w = np.exp(-eps * np.abs(np.arange(n, dtype=np.float64) - (n // 2 - 1)))
    w[np.minimum(w, w[::-1]) < _TINY] = 0.0
    p0 = make_distribution(w)
    # reversal moves the centre c0 to n - 1 - c0 = c1
    return MechanismPair(p0, DiscreteDistribution(p0.probs[::-1]), seed=seed)


def leaky_mechanism(delta: float, n: int = 3, seed: int = 0) -> MechanismPair:
    """Identical mechanisms except a mass-delta leak onto distinct outcomes.

    Database 0 puts delta on outcome 1 and database 1 puts it on outcome 2;
    both put 1-delta on outcome 0. The pair has additive slack exactly
    delta at every eps, making it a clean soundness target.
    """
    _check("delta", delta, 0.0, 1.0, open_low=True, open_high=True)
    n = _integer("n", n, 3, _MAX_SIZE)
    v0 = np.zeros(n)
    v1 = np.zeros(n)
    v0[0] = v1[0] = 1.0 - delta
    v0[1] = delta
    v1[2] = delta
    return MechanismPair(DiscreteDistribution(v0), DiscreteDistribution(v1), seed=seed)


@dataclass(frozen=True)
class SideInfo:
    """Claimed output distributions handed to full-information testers."""

    q0: DiscreteDistribution
    q1: DiscreteDistribution

    def __post_init__(self) -> None:
        if _distribution("q0", self.q0).n != _distribution("q1", self.q1).n:
            raise ValueError("claimed distributions must share an outcome universe")

    @property
    def n(self) -> int:
        return self.q0.n

    def to_json(self) -> dict:
        """The ``--side`` document ``{"q0": ..., "q1": ...}``, as an object,
        each entry in DiscreteDistribution's format."""
        return {"q0": self.q0.to_json(), "q1": self.q1.to_json()}

    @classmethod
    def from_json(cls, doc: str | dict) -> "SideInfo":
        data = json.loads(doc) if isinstance(doc, str) else doc
        dist = DiscreteDistribution.from_json
        return cls(**_fields("side info", data, {"q0": dist, "q1": dist}))


#: Mechanism registry: config "mechanism" field -> (builder, fields).
_MECHANISMS = {
    "randomized_response": (randomized_response, {"flip_prob": float}),
    "truncated_geometric": (truncated_geometric, {"eps": float, "n": int}),
    "leaky_mechanism": (leaky_mechanism, {"delta": float, "n": (int, 3)}),
    "explicit": (MechanismPair, {"p0": DiscreteDistribution.from_json,
                                 "p1": DiscreteDistribution.from_json}),
}


def mechanism_from_config(config: dict) -> MechanismPair:
    """Build a zoo mechanism from a JSON-style config document, at seed 0.

    Recognized forms:

    * ``{"mechanism": "randomized_response", "flip_prob": 0.25}``
    * ``{"mechanism": "truncated_geometric", "eps": 0.1, "n": 4}``
    * ``{"mechanism": "leaky_mechanism", "delta": 0.2, "n": 3}``
    * ``{"mechanism": "explicit", "p0": {...}, "p1": {...}}``

    A config holds no seed: callers that sample build their own pair,
    ``MechanismPair(*mech.truth, seed=s)``. The package's document reader
    reads it: an unknown kind, a missing field and a value of the wrong
    type (``null``, ``Infinity`` or ``4.5`` as ``n``) raise ValueError
    naming the kind and the field.
    """
    kind = _fields("mechanism config", config, {"mechanism": str})["mechanism"]
    builder, spec = _entry(_MECHANISMS, "mechanism field", kind)
    return builder(**_fields(f"{kind} mechanism", config, spec))
