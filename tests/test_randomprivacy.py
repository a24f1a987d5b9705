"""Reduction from random-neighbor privacy to two-database testing."""

import hashlib
import itertools
import math
import sys

import numpy as np
import pytest

from dpaudit import (
    MechanismPair,
    TestOutcome,
    Verdict,
    adp_test_budgeted,
    adp_test_ni,
    amplification_reps,
    constant_family,
    data_distribution,
    leaky_mechanism,
    make_distribution,
    random_privacy_test,
    sample_neighbor_pair,
    trial_count,
    value_flag_family,
)
from dpaudit import distributions
from dpaudit.randomprivacy import DataDistribution


def test_trial_count_frozen():
    # ceil(ln 3 (2 (a/2 + gamma)^2 + 2a) / a^2) with a = alpha / w
    assert trial_count(1, 1, 0) == 3
    assert trial_count(2, 0.2, 0.1) == 27
    with pytest.raises(ValueError):
        trial_count(0, 0.2, 0.1)
    with pytest.raises(ValueError):
        trial_count(2, 0.0, 0.1)
    with pytest.raises(ValueError):
        trial_count(2, 0.2, -0.1)


def test_amplification_reps_frozen():
    # ceil(18 ln(2 w / alpha)), floored at 1
    assert amplification_reps(1, 2) == 1
    assert amplification_reps(10, 0.1) == 96
    assert amplification_reps(2, 0.2) == 54
    with pytest.raises(ValueError):
        amplification_reps(0, 0.1)


def test_data_distribution_validation():
    dd = data_distribution(["a", "b"], [3, 1], db_size=4)
    assert dd.entry_dist.probs[0] == pytest.approx(0.75)
    with pytest.raises(ValueError):
        DataDistribution(("a",), make_distribution([1, 1]))
    with pytest.raises(ValueError):
        data_distribution(["a"], db_size=0)
    # db_size is a whole number: rejected when built, not when sampled
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match="^db_size must be an integer"):
            data_distribution([0, 1], db_size=bad)
    dd = data_distribution([0, 1], db_size=2.0)
    assert dd.db_size == 2 and type(dd.db_size) is int


def test_neighbor_pairs_differ_in_first_entry_only():
    dd = data_distribution(range(5), db_size=6)
    rng = np.random.default_rng(0)
    for _ in range(200):
        d0, d1 = sample_neighbor_pair(dd, rng)
        assert len(d0) == len(d1) == 6
        assert d0[1:] == d1[1:]
        assert all(v in range(5) for v in d0)


@pytest.mark.parametrize("weights, db_size", [
    ([1.0], 1), ([0.8, 0.2], 3), ([1.0, 2.0, 3.0], 7), ([0.1, 0.0, 0.6, 0.3], 5),
])
def test_neighbor_pairs_are_drawn_as_rng_choice_draws_them(weights, db_size):
    dd = data_distribution(range(len(weights)), weights, db_size)
    for seed in range(300):
        got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        d0, d1 = sample_neighbor_pair(dd, got)
        entries = ref.choice(len(weights), size=db_size, p=dd.entry_dist.probs)
        fresh = ref.choice(len(weights), p=dd.entry_dist.probs)
        assert d0 == tuple(entries.tolist()) and d1 == (int(fresh),) + d0[1:]
        assert got.bit_generator.state == ref.bit_generator.state


def test_neighbor_sampling_matches_entry_distribution():
    dd = data_distribution([0, 1], [0.8, 0.2], db_size=1)
    rng = np.random.default_rng(1)
    draws = [sample_neighbor_pair(dd, rng)[0][0] for _ in range(5000)]
    assert np.mean(draws) == pytest.approx(0.2, abs=0.02)


def test_family_resolvers():
    flat = make_distribution([1, 1])
    fam = constant_family(flat)
    assert fam(("x",)) is flat

    spiky = make_distribution([9, 1])
    vf = value_flag_family({1}, spiky, flat)
    assert vf((1, 0)) is spiky
    assert vf((0, 1)) is flat  # only entry 0 matters

    with pytest.raises(ValueError):
        value_flag_family({1}, spiky, make_distribution([1, 1, 1]))


def test_family_universe_mismatch_raises():
    # entry value v maps to a universe of v + 2 outcomes, so a neighbor
    # pair whose first entries differ has no common universe
    def family(db):
        return make_distribution([1] * (db[0] + 2))

    def inner(mech, rng):
        return adp_test_budgeted(mech, 0.0, 0.0, 0.4, 10)

    with pytest.raises(ValueError, match="share an outcome universe"):
        random_privacy_test(
            family, data_distribution([0, 1]), inner, gamma=0.0, alpha=0.5,
            penalty_weight=1.0, rng=np.random.default_rng(8),
        )


def test_constant_family_accepts():
    fam = constant_family(make_distribution([0.75, 0.25]))
    dd = data_distribution([0, 1])

    def inner(mech, rng):
        return adp_test_budgeted(mech, 0.0, 0.0, 0.4, 300)

    out = random_privacy_test(
        fam, dd, inner, gamma=0.0, alpha=0.5, penalty_weight=1.0,
        rng=np.random.default_rng(2),
    )
    assert out.verdict is Verdict.ACCEPT
    assert out.statistic == 0.0


def test_flagged_family_rejected_when_violation_measure_is_large():
    # flag probability 0.5: half of sampled neighbor pairs straddle the
    # boundary in expectation, far above gamma + alpha / w = 0.35
    private = leaky_mechanism(0.5).truth
    fam = value_flag_family({1}, private[1], private[0])
    dd = data_distribution([0, 1], [0.5, 0.5])

    def inner(mech, rng):
        return adp_test_budgeted(mech, 0.0, 0.05, 0.1, 800)

    out = random_privacy_test(
        fam, dd, inner, gamma=0.1, alpha=0.25, penalty_weight=1.0,
        rng=np.random.default_rng(3),
    )
    assert out.verdict is Verdict.REJECT
    assert out.diagnostics["marked"] > 0


def test_tie_counts_as_marked():
    # inner tester alternates, so with even reps the vote ties: at w = 1
    # and alpha = 0.95 the formulas give 14 reps on each of 3 pairs
    assert amplification_reps(1.0, 0.95) == 14
    assert trial_count(1.0, 0.95, 0.0) == 3
    state = {"flip": False}

    def alternating(mech, rng):
        state["flip"] = not state["flip"]
        verdict = Verdict.REJECT if state["flip"] else Verdict.ACCEPT
        return TestOutcome(verdict, 0.0, 1.0, (0, 0), {})

    fam = constant_family(make_distribution([1, 1]))
    dd = data_distribution([0])
    out = random_privacy_test(
        fam, dd, alternating, gamma=0.0, alpha=0.95, penalty_weight=1.0,
        rng=np.random.default_rng(4),
    )
    assert out.diagnostics["marked"] == 3
    assert out.verdict is Verdict.REJECT


def test_query_aggregation_identity():
    fam = constant_family(make_distribution([1, 1]))
    dd = data_distribution([0, 1])
    m, k, r = trial_count(1.0, 0.5, 0.0), amplification_reps(1.0, 0.5), 50
    assert (m, k) == (5, 25)

    def inner(mech, rng):
        return adp_test_budgeted(mech, 0.0, 0.0, 0.9, r)

    out = random_privacy_test(
        fam, dd, inner, gamma=0.0, alpha=0.5, penalty_weight=1.0,
        rng=np.random.default_rng(5),
    )
    assert out.diagnostics["inner_tests"] == m * k
    assert out.queries_used == (m * k * r, m * k * r)


def test_defaults_come_from_formulas():
    fam = constant_family(make_distribution([1, 1]))
    dd = data_distribution([0])

    def inner(mech, rng):
        return adp_test_budgeted(mech, 0.0, 0.0, 0.9, 5)

    out = random_privacy_test(
        fam, dd, inner, gamma=0.1, alpha=0.2, penalty_weight=2.0,
        rng=np.random.default_rng(6),
    )
    assert out.diagnostics["trials"] == trial_count(2.0, 0.2, 0.1) == 27
    assert out.diagnostics["reps"] == amplification_reps(2.0, 0.2) == 54
    assert out.diagnostics["inner_tests"] == 27 * 54


class Recording:
    """Forwards an inner tester's draws to its pair, keeping each call and
    a copy of what it returned."""

    def __init__(self, pair, log):
        self.n = pair.n
        self._pair = pair
        self._log = log

    def draw(self, db, count):
        row = self._pair.draw(db, count)
        self._log.append(("draw", db, count, row.copy()))
        return row

    def draw_many(self, db, counts):
        rows = self._pair.draw_many(db, counts)
        self._log.append(("draw_many", db, counts, rows.copy()))
        return rows


def budgeted(mech, rng, r=40):
    return adp_test_budgeted(mech, 0.0, 0.05, 0.1, r)


def alternating_counts():
    calls = itertools.count()
    return lambda mech, rng: budgeted(mech, rng, (100, 200)[next(calls) % 2])


def two_draws_per_call(mech, rng):
    first = budgeted(mech, rng)
    second = budgeted(mech, rng)
    return first if first.rejected else second


def draw_many_then_draw():
    calls = itertools.count()

    def inner(mech, rng):
        if next(calls) % 5 == 2:
            mech.draw_many(0, np.array([40, 40]))
            mech.draw_many(1, np.array([40]))
        return budgeted(mech, rng)

    return inner


#: Inner testers of every draw shape: one count per call, Poisson counts
#: that now and then repeat, two alternating counts, two draws of one count
#: per call, and draw_many between draws.
INNER_SHAPES = {
    "budgeted": lambda: budgeted,
    "adp_test_ni": lambda: lambda mech, rng: adp_test_ni(mech, 0.0, 0.05, 0.9, rng),
    "alternating": alternating_counts,
    "twice": lambda: two_draws_per_call,
    "draw_many": draw_many_then_draw,
}


def recorded_reduction(shape, seed):
    """Run the reduction with the shape's inner tester on a family that is
    private on half of the neighbor pairs; return the outcome and, for each
    pair, the pair and its log of draw calls."""
    inner = INNER_SHAPES[shape]()
    pairs = {}

    def wrapped(mech, rng):
        _, log = pairs.setdefault(id(mech), (mech, []))
        return inner(Recording(mech, log), rng)

    leaky = leaky_mechanism(0.5).truth
    out = random_privacy_test(
        value_flag_family({1}, leaky[1], leaky[0]), data_distribution([0, 1]), wrapped,
        gamma=0.0, alpha=0.5, penalty_weight=1.0, rng=np.random.default_rng([33, seed]),
    )
    return out, list(pairs.values())


@pytest.mark.parametrize("shape", sorted(INNER_SHAPES))
def test_every_row_a_reduction_pair_serves_is_the_plain_pairs(shape):
    for seed in range(3):
        out, pairs = recorded_reduction(shape, seed)
        assert len(pairs) == out.diagnostics["trials"] == 5
        for pair, log in pairs:
            plain = MechanismPair(*pair.truth, seed=pair.seed)
            for method, db, arg, rows in log:
                assert np.array_equal(getattr(plain, method)(db, arg), rows)
            assert plain.query_counter == pair.query_counter
        assert out.queries_used == tuple(map(sum, zip(*(p.query_counter for p, _ in pairs))))


REDUCTION_PIN = "753b0dbd82f9b0b5271fd1bb750d34aa683812ccffef8610bd008f94676a7884"


def test_reduction_outcomes_and_rows_are_pinned():
    # every outcome and every row the inner testers saw, over each shape;
    # the digest was taken when each pair drew every row singly
    digest = hashlib.sha256()
    for shape in sorted(INNER_SHAPES):
        for seed in range(3):
            out, pairs = recorded_reduction(shape, seed)
            summary = (shape, out.verdict.name, out.statistic, out.queries_used,
                       out.diagnostics["marked"])
            digest.update(repr(summary).encode())
            for _, log in pairs:
                for *_, rows in log:
                    digest.update(rows.astype("<i8").tobytes())
    assert digest.hexdigest() == REDUCTION_PIN


def criterion_08_digest(runs):
    """sha256 of every inner outcome and every reduction outcome over the
    first ``runs`` seeds of each of criterion 08's two families, with the
    inner tester called on the reduction's own pairs."""
    leaky = leaky_mechanism(0.5).truth
    s = (1.0 - math.sqrt(0.4)) / 2.0
    cases = (
        (constant_family(leaky[0]), data_distribution([0]), 81),
        (value_flag_family({1}, leaky[1], leaky[0]), data_distribution([0, 1], [1.0 - s, s]), 82),
    )
    digest = hashlib.sha256()

    def record(outcome):
        digest.update(repr((outcome.verdict.name, outcome.statistic, outcome.threshold,
                            outcome.queries_used, outcome.diagnostics)).encode())
        return outcome

    def inner(mech, rng):
        return record(adp_test_budgeted(mech, 0.0, 0.05, 0.1, 4800))

    for family, dd, seed in cases:
        for run in range(runs):
            record(random_privacy_test(family, dd, inner, gamma=0.1, alpha=0.2,
                                       penalty_weight=2.0, rng=np.random.default_rng([seed, run])))
    return digest.hexdigest()


#: taken when every inner call drew and scored its two rows one by one
CRITERION_08_PIN = "4b835876b67e7e8ad1ddb98e11406fdcd46c2e858829c466377462d84b9ccdd3"


def test_criterion_08_inner_outcomes_are_pinned():
    assert criterion_08_digest(100) == CRITERION_08_PIN


def test_a_reduction_scores_each_pairs_blocks_in_one_slack_call(monkeypatch):
    # on criterion 08's flagged family, the first inner call on a pair scores
    # its two rows alone; the second draws both databases' block and scores
    # it with one _slack call. Per-row scoring would make 54 calls per pair.
    slack = distributions._slack
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return slack(*args)

    for module in list(sys.modules.values()):  # each module that binds the kernel
        if module.__name__.startswith("dpaudit") and getattr(module, "_slack", None) is slack:
            monkeypatch.setattr(module, "_slack", counted)
    pairs = {}

    def inner(mech, rng):
        before = calls[0]
        outcome = adp_test_budgeted(mech, 0.0, 0.05, 0.1, 4800)
        _, blocks, slacks = pairs.setdefault(id(mech), (mech, {}, [0]))
        if mech._block is not None:
            blocks[id(mech._block)] = mech._block
        slacks[0] += calls[0] - before
        return outcome

    leaky = leaky_mechanism(0.5).truth
    s = (1.0 - math.sqrt(0.4)) / 2.0
    random_privacy_test(value_flag_family({1}, leaky[1], leaky[0]),
                        data_distribution([0, 1], [1.0 - s, s]), inner, gamma=0.1, alpha=0.2,
                        penalty_weight=2.0, rng=np.random.default_rng([82, 0]))
    assert len(pairs) == 27
    for _, blocks, (slacks,) in pairs.values():
        assert len(blocks) == 1 and slacks <= 1 + len(blocks)
