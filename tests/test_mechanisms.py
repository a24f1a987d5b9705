"""Sampling oracles: reproducibility, stream independence, query
accounting, and exact privacy parameters of the mechanism zoo."""

import math

import numpy as np
import pytest
from scipy import stats

from dpaudit import (
    DiscreteDistribution,
    MechanismPair,
    SideInfo,
    delta_at_epsilon,
    exact_pdp_epsilon,
    leaky_mechanism,
    make_distribution,
    mechanism_from_config,
    randomized_response,
    truncated_geometric,
)


def test_same_seed_reproduces_streams():
    a = randomized_response(0.25, seed=42)
    b = randomized_response(0.25, seed=42)
    for db in (0, 1):
        assert np.array_equal(a.draw(db, 1000), b.draw(db, 1000))


def test_databases_use_independent_streams():
    a = randomized_response(0.25, seed=7)
    b = randomized_response(0.25, seed=7)
    # drawing from db 0 must not perturb db 1's stream
    a.draw(0, 500)
    assert np.array_equal(a.draw(1, 200), b.draw(1, 200))


def test_query_accounting_is_exact():
    mech = leaky_mechanism(0.2, seed=0)
    mech.draw(0, 10)
    mech.draw(0, 5)
    mech.draw(1, 7)
    mech.draw(1, 0)
    assert mech.query_counter == [15, 7]
    assert np.array_equal(mech.draw(0, 0), np.zeros(3, dtype=np.int64))


def test_draw_returns_histogram_of_count_samples():
    mech = truncated_geometric(0.5, 6, seed=1)
    counts = mech.draw(0, 1234)
    assert counts.sum() == 1234
    assert counts.shape == (6,)
    assert np.all(counts >= 0)


def test_draw_validation():
    mech = randomized_response(0.1)
    with pytest.raises(ValueError):
        mech.draw(2, 1)
    with pytest.raises(ValueError):
        mech.draw(0, -1)


@pytest.mark.parametrize(
    "make", [lambda: truncated_geometric(0.5, 6, seed=4), lambda: leaky_mechanism(0.2, 5, seed=4)]
)
def test_draw_many_equals_sequential_draws(make):
    counts = np.array([5, 0, 1234, 0, 1, 77])
    batched, sequential = make(), make()
    block = batched.draw_many(1, counts)
    assert block.shape == (counts.size, batched.n)
    for row, count in zip(block, counts):
        assert np.array_equal(row, sequential.draw(1, count))
    assert batched.query_counter == sequential.query_counter == [0, int(counts.sum())]
    # the stream carries on exactly where the sequential draws left it
    assert np.array_equal(batched.draw(1, 500), sequential.draw(1, 500))
    assert batched.draw_many(0, []).shape == (0, batched.n)


def test_draw_many_validation():
    mech = randomized_response(0.1)
    for db, counts in ((0, [3, -1]), (0, [[1, 2]]), (2, [1]), (0, [1.5])):
        with pytest.raises(ValueError):
            mech.draw_many(db, counts)
    assert mech.query_counter == [0, 0]


def test_spawn_resets_state_and_keeps_truth():
    mech = randomized_response(0.25, seed=3)
    mech.draw(0, 100)
    child = mech.spawn(seed=99)
    assert child.query_counter == [0, 0]
    assert child.truth == mech.truth
    # a spawn with a different seed is a different stream
    assert not np.array_equal(child.draw(0, 1000), mech.spawn(5).draw(0, 1000))


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 - 1])
def test_streams_are_the_children_of_a_spawned_seed_sequence(seed):
    # reference: default_rng over the children of a spawned seed sequence
    mech = truncated_geometric(0.5, 6, seed=seed)
    children = np.random.SeedSequence(seed).spawn(2)
    pvals = [d.probs / d.probs.sum() for d in mech.truth]
    counts = np.array([5, 0, 300])

    def same_streams(pair):
        rngs = [np.random.default_rng(child) for child in children]
        for db in (0, 1):
            rng, p = rngs[db], pvals[db]
            assert np.array_equal(pair.draw(db, 1000), rng.multinomial(1000, p))
            assert np.array_equal(pair.draw_many(db, counts), rng.multinomial(counts, p))

    same_streams(mech)
    same_streams(mech.spawn(seed))  # spawned after mech's streams moved on


def test_mismatched_universes_rejected():
    with pytest.raises(ValueError):
        MechanismPair(make_distribution([1, 1]), make_distribution([1, 1, 1]))


def test_randomized_response_exact_epsilon():
    mech = randomized_response(0.25)
    assert np.array_equal(mech.truth[0].probs, [0.75, 0.25])
    assert np.array_equal(mech.truth[1].probs, [0.25, 0.75])
    assert exact_pdp_epsilon(*mech.truth) == pytest.approx(math.log(3.0), abs=1e-15)
    with pytest.raises(ValueError):
        randomized_response(0.5)
    with pytest.raises(ValueError):
        randomized_response(0.0)


def test_truncated_geometric_exact_epsilon():
    for eps, n in [(0.5, 4), (1.0, 8), (0.1, 20)]:
        mech = truncated_geometric(eps, n)
        assert exact_pdp_epsilon(*mech.truth) == pytest.approx(eps, abs=1e-12)
    with pytest.raises(ValueError):
        truncated_geometric(0.5, 5)
    with pytest.raises(ValueError):
        truncated_geometric(0.0, 4)


@pytest.mark.parametrize("eps, n", [(1.5, 1024), (2.0, 1024), (2.5, 1024), (700.0, 4)])
def test_truncated_geometric_tails_that_underflow_keep_the_exact_epsilon(eps, n):
    # weights below the smallest normal float lose the e^{+-eps} ratio;
    # the ladder drops those outcomes from both databases
    mech = truncated_geometric(eps, n)
    assert exact_pdp_epsilon(*mech.truth) == pytest.approx(eps, abs=1e-12)


@pytest.mark.parametrize("n", [4, 6, 64, 1024])
def test_truncated_geometric_database_1_mirrors_database_0(n):
    for eps in np.random.default_rng(n).uniform(0.01, 5.0, 200):
        p0, p1 = truncated_geometric(float(eps), n).truth
        assert p1.probs.tobytes() == p0.probs[::-1].tobytes()


def test_truncated_geometric_raises_where_no_outcome_survives():
    with pytest.raises(ValueError):
        truncated_geometric(708.5, 4)


@pytest.mark.parametrize("n", [2, 4, 1024])
def test_truncated_geometric_eps_bound_is_where_the_centre_underflows(n):
    # the two central outcomes weigh e^-eps in one database at every n
    bound = -math.log(np.finfo(float).tiny)
    assert np.count_nonzero(truncated_geometric(bound, n).truth[0].probs) == 2
    with pytest.raises(ValueError, match="eps"):
        truncated_geometric(math.nextafter(bound, math.inf), n)


def test_leaky_mechanism_exact_slack():
    mech = leaky_mechanism(0.5, 3)
    assert np.array_equal(mech.truth[0].probs, [0.5, 0.5, 0.0])
    assert np.array_equal(mech.truth[1].probs, [0.5, 0.0, 0.5])
    # additive slack is delta at every eps
    for eps in (0.0, 0.3, 1.0):
        assert delta_at_epsilon(*mech.truth, eps) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        leaky_mechanism(0.0)
    with pytest.raises(ValueError):
        leaky_mechanism(0.2, n=2)


def test_draw_frequencies_match_truth():
    # fixed seed keeps this deterministic; 1e5 draws, chi-squared GOF
    mech = truncated_geometric(0.7, 6, seed=2024)
    for db in (0, 1):
        counts = mech.draw(db, 100_000)
        expected = mech.truth[db].probs * 100_000
        _, pvalue = stats.chisquare(counts, expected)
        assert pvalue > 1e-6


def test_mechanism_from_config_kinds():
    rr = mechanism_from_config({"mechanism": "randomized_response", "flip_prob": 0.25})
    assert exact_pdp_epsilon(*rr.truth) == pytest.approx(math.log(3.0))

    tg = mechanism_from_config({"mechanism": "truncated_geometric", "eps": 0.5, "n": 4})
    assert tg.n == 4

    lk = mechanism_from_config({"mechanism": "leaky_mechanism", "delta": 0.2})
    assert lk.n == 3

    ex = mechanism_from_config(
        {
            "mechanism": "explicit",
            "p0": {"n": 2, "probs": [0.9, 0.1]},
            "p1": {"n": 2, "probs": [0.5, 0.5]},
        }
    )
    assert np.array_equal(ex.truth[0].probs, [0.9, 0.1])

    with pytest.raises(ValueError):
        mechanism_from_config({"mechanism": "laplace"})
    with pytest.raises(ValueError):
        mechanism_from_config({"flip_prob": 0.25})

    # a fractional n is rejected, not truncated; an integral float is the integer
    for config in (
        {"mechanism": "truncated_geometric", "eps": 0.5, "n": 4.9},
        {"mechanism": "leaky_mechanism", "delta": 0.2, "n": 3.7},
    ):
        with pytest.raises(ValueError, match="n must be an integer"):
            mechanism_from_config(config)
    same = mechanism_from_config({"mechanism": "truncated_geometric", "eps": 0.5, "n": 4.0})
    for mine, theirs in zip(same.truth, tg.truth):
        assert mine.probs.tobytes() == theirs.probs.tobytes()


def test_side_info_round_trip():
    side = SideInfo(make_distribution([3, 1]), make_distribution([1, 3]))
    back = SideInfo.from_json(side.to_json())
    assert np.array_equal(back.q0.probs, side.q0.probs)
    assert np.array_equal(back.q1.probs, side.q1.probs)
    assert side.n == 2
    with pytest.raises(ValueError):
        SideInfo(make_distribution([1, 1]), make_distribution([1, 1, 1]))
    with pytest.raises(ValueError):
        SideInfo.from_json({"q0": {"n": 2, "probs": [0.5, 0.5]}})


def test_side_info_json_is_pinned():
    # built from DiscreteDistribution.to_json: one serialisation of a vector
    side = SideInfo(make_distribution([3, 1]), make_distribution([1, 3]))
    assert side.to_json() == (
        '{"q0": {"n": 2, "probs": [0.75, 0.25]}, "q1": {"n": 2, "probs": [0.25, 0.75]}}'
    )
