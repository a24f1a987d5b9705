"""Reduction from random-neighbor privacy to two-database testing."""

import math

import numpy as np
import pytest

from dpaudit import (
    TestOutcome,
    Verdict,
    adp_test_budgeted,
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
