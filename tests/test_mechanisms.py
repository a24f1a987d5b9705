"""Sampling oracles: reproducibility, stream independence, query
accounting, and exact privacy parameters of the mechanism zoo."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dpaudit import (
    DiscreteDistribution,
    MechanismPair,
    SideInfo,
    adp_test_budgeted,
    delta_at_epsilon,
    exact_pdp_epsilon,
    leaky_mechanism,
    make_distribution,
    mechanism_from_config,
    randomized_response,
    truncated_geometric,
)
from dpaudit import harness
from dpaudit.harness import ExperimentConfig, run_experiment
from dpaudit.distributions import _integer
from dpaudit.mechanisms import (
    _MAX_COUNT, _database, _ReadAheadPair, _seed_rows, _seed_states, _SeedState
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


@pytest.mark.parametrize("make", [lambda: randomized_response(0.3, seed=4),
                                  lambda: leaky_mechanism(0.2, seed=4)])
def test_draw_of_zero_samples_draws_nothing(make):
    mech, fresh = make(), make()
    for db in (0, 1):
        zeros = mech.draw(db, 0)
        assert zeros.dtype == np.int64 and np.array_equal(zeros, np.zeros(mech.n, np.int64))
        assert mech.query_counter == fresh.query_counter
        # the stream is where a fresh pair's is
        assert np.array_equal(mech.draw(db, 50), fresh.draw(db, 50))


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


def test_draw_count_is_a_whole_number():
    # a fractional, string or boolean count is rejected, not truncated
    mech = randomized_response(0.1)
    for bad in (2.5, "3", True, math.nan):
        with pytest.raises(ValueError, match="^count must be an integer"):
            mech.draw(0, bad)
    assert mech.query_counter == [0, 0]
    # an integral float and a numpy integer draw like the int
    for count in (2.0, np.int64(2)):
        ref = randomized_response(0.1, seed=3)
        fresh = randomized_response(0.1, seed=3)
        assert np.array_equal(fresh.draw(0, count), ref.draw(0, 2))
        assert fresh.query_counter == [2, 0]


def test_draw_rejects_counts_beyond_int64():
    # numpy's multinomial takes int64 counts; 2^63 rounds onto 2^63 - 1
    # as a float, so the cap must compare ints
    mech = randomized_response(0.1)
    for bad in (2**63, 10**19):
        with pytest.raises(ValueError, match="^count must lie in"):
            mech.draw(0, bad)
    for counts in ([1, 2**63], np.array([5, 2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match="^counts must"):
            mech.draw_many(1, counts)
    assert mech.query_counter == [0, 0]
    assert mech.draw(0, 2**63 - 1).sum() == 2**63 - 1
    assert mech.draw_many(1, np.array([2**63 - 1], dtype=np.uint64)).sum() == 2**63 - 1
    # a block whose total passes 2^63 - 1 is still counted exactly
    mech.draw_many(1, np.array([2**62, 2**62]))
    assert mech.query_counter == [2**63 - 1, 2**63 - 1 + 2**63]


#: Inputs around draw's bounds: ints and numpy integers at and beside 0, 1
#: and 2^63 - 1, booleans, integral, fractional and NaN floats, and non-numbers.
_BOUNDS = (-1, 0, 1, 2, _MAX_COUNT, 2**63)
_DRAW_INPUTS = (
    _BOUNDS
    + (True, False)
    + tuple(np.int64(v) for v in _BOUNDS if v < 2**63)
    + tuple(np.uint64(v) for v in _BOUNDS if v >= 0)
    + tuple(np.uint8(v) for v in _BOUNDS if 0 <= v < 256)
    + (0.0, 1.0, 2.0, -1.0, 2.0**63, 0.5, 2.5, math.nan)
    + ("1", None)
)


def _draw_refusal(db, count):
    """The message of the first check that ``draw(db, count)`` fails, or None."""
    try:
        _database(db)
        whole = _integer("count", count)
        if not 0 <= whole <= _MAX_COUNT:
            raise ValueError(f"count must lie in [0, 2**63 - 1]; got {whole}")
    except ValueError as exc:
        return str(exc)
    return None


# 1,000 examples exhaust the 31 x 31 pairs of inputs
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(db=st.sampled_from(_DRAW_INPUTS), count=st.sampled_from(_DRAW_INPUTS))
def test_draw_checks_like_database_then_integer_then_range(db, count):
    mech = leaky_mechanism(0.2, 4, seed=9)
    refusal = _draw_refusal(db, count)
    if refusal is not None:
        with pytest.raises(ValueError) as caught:
            mech.draw(db, count)
        assert str(caught.value) == refusal
        assert mech.query_counter == [0, 0]
        return
    twin = leaky_mechanism(0.2, 4, seed=9)
    assert np.array_equal(mech.draw(db, count), twin.draw(int(db), int(count)))
    assert mech.query_counter == twin.query_counter
    assert all(type(c) is int for c in mech.query_counter)
    assert np.array_equal(mech.draw(db, 3), twin.draw(int(db), 3))


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


#: A read-ahead pair's calls: a plain draw, a draw whose arguments are
#: numpy or float numbers, and a draw_many of two rows.
READ_AHEAD_CALLS = {
    "draw": lambda db, count: ("draw", (db, count)),
    "odd": lambda db, count: ("draw", (np.int64(db), float(count))),
    "draw_many": lambda db, count: ("draw_many", (db, np.array([count, count]))),
}


@settings(max_examples=80, deadline=None)
@given(
    reps=st.integers(1, 12),
    calls=st.lists(st.tuples(st.sampled_from(sorted(READ_AHEAD_CALLS)), st.integers(0, 1),
                             st.sampled_from([0, 3, 3, 3, 40])), max_size=40),
)
def test_a_read_ahead_pair_serves_the_plain_pairs_rows(reps, calls):
    p0, p1 = leaky_mechanism(0.3, 4).truth
    pair, plain = _ReadAheadPair(p0, p1, 11, reps), MechanismPair(p0, p1, seed=11)
    for kind, db, count in calls:
        method, args = READ_AHEAD_CALLS[kind](db, count)
        assert np.array_equal(getattr(pair, method)(*args), getattr(plain, method)(*args))
        assert pair.query_counter == plain.query_counter
    # a count not asked before rewinds any block: the streams stand level
    for db in (0, 1):
        assert np.array_equal(pair.draw(db, 7), plain.draw(db, 7))


@pytest.mark.parametrize("n, reps, rows", [(2**15, 50, 2), (2**15, 12_800, 2), (4, 9, 8)])
def test_a_read_ahead_block_holds_the_reps_left_and_at_most_2_to_the_16_counts(n, reps, rows):
    # a block starts at the second draw of a count, so it holds reps - 1 rows
    # unless 2^16 counts bound it: 2 rows of 2^15 outcomes
    p0 = make_distribution(np.arange(1, n + 1, dtype=float))
    p1 = make_distribution(np.ones(n))
    pair = _ReadAheadPair(p0, p1, 7, reps)
    plain = MechanismPair(p0, p1, seed=7)
    sizes = set()
    for _ in range(9):
        for db in (0, 1):
            assert np.array_equal(pair.draw(db, 3), plain.draw(db, 3))
            block = pair._blocks[db]
            sizes.add(0 if block is None else len(block[0]))
    assert sizes == {0, rows}
    assert pair.query_counter == plain.query_counter == [27, 27]


#: Calls between budgeted tests on a pair: (kind, eps, count, db, repeats).
SCORED_CALLS = st.tuples(
    st.sampled_from(["budgeted"] * 4 + ["draw", "draw_many"]), st.sampled_from([0.0, 0.5]),
    st.sampled_from([40, 41]), st.integers(0, 1), st.integers(1, 6),
)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 2**15]), reps=st.integers(1, 12), seed=st.integers(0, 2**63 - 1),
       calls=st.lists(SCORED_CALLS, max_size=12))
@example(n=3, reps=9, seed=5, calls=[("budgeted", 0.0, 40, 0, 3), ("budgeted", 0.5, 40, 0, 2),
                                     ("budgeted", 0.0, 40, 0, 6)])
@example(n=3, reps=12, seed=7, calls=[("draw", 0.0, 41, 1, 1), ("budgeted", 0.0, 40, 0, 4)])
@example(n=2**15, reps=7, seed=6, calls=[("budgeted", 0.5, 41, 0, 6), ("draw", 0.5, 41, 1, 1),
                                         ("budgeted", 0.5, 41, 0, 4)])
def test_budgeted_tests_on_a_read_ahead_pair_match_the_plain_pairs(n, reps, seed, calls):
    # adp_test_budgeted reads a read-ahead pair's scored blocks where it can;
    # every outcome, row, query count and stream state is the plain pair's
    p0 = make_distribution(np.arange(1, n + 1, dtype=float))
    p1 = make_distribution(np.ones(n))
    pair, plain = _ReadAheadPair(p0, p1, seed, reps), MechanismPair(p0, p1, seed=seed)
    for kind, eps, count, db, repeats in calls:
        for _ in range(repeats):
            if kind == "budgeted":
                outcomes = [adp_test_budgeted(m, eps, 0.05, 0.1, count) for m in (pair, plain)]
                assert repr(outcomes[0]) == repr(outcomes[1])  # bits, signed zeros included
            elif kind == "draw":
                assert np.array_equal(pair.draw(db, count), plain.draw(db, count))
            else:
                counts = np.array([count, count])
                assert np.array_equal(pair.draw_many(db, counts), plain.draw_many(db, counts))
    assert pair.query_counter == plain.query_counter
    for db in (0, 1):  # a draw_many rewinds any block: the streams stand level
        assert np.array_equal(pair.draw_many(db, np.array([3])), plain.draw_many(db, np.array([3])))
        assert pair._rngs[db].bit_generator.state == plain._rngs[db].bit_generator.state


def test_database_index_is_an_integer():
    # True would index database 1 and 1.0 fail with TypeError; both are refused
    mech = randomized_response(0.1)
    for bad in (1.0, 0.0, True, False, np.True_, "1", None, np.int64(2)):
        with pytest.raises(ValueError, match="^db must be the integer 0 or 1"):
            mech.draw(bad, 5)
        with pytest.raises(ValueError, match="^db must be the integer 0 or 1"):
            mech.draw_many(bad, [5])
    assert mech.query_counter == [0, 0]
    # a numpy integer draws like the int
    ref, fresh = randomized_response(0.1, seed=3), randomized_response(0.1, seed=3)
    assert np.array_equal(fresh.draw(np.int64(1), 4), ref.draw(1, 4))
    assert np.array_equal(fresh.draw_many(np.uint8(0), [4]), ref.draw_many(0, [4]))
    assert fresh.query_counter == [4, 4]


def test_spawn_resets_state_and_keeps_truth():
    mech = randomized_response(0.25, seed=3)
    mech.draw(0, 100)
    child = MechanismPair(*mech.truth, seed=99)
    assert child.query_counter == [0, 0]
    assert child.truth == mech.truth
    # a fresh pair with a different seed is a different stream
    other = MechanismPair(*mech.truth, seed=5)
    assert not np.array_equal(child.draw(0, 1000), other.draw(0, 1000))


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
    same_streams(MechanismPair(*mech.truth, seed=seed))  # built after mech's streams moved on


SEED_EDGES = [0, 1, 2**32 - 1, 2**32 + 1, 2**63 - 1, 2**64, 2**96, 2**128, 2**200]


def test_seed_states_equal_seed_sequence_states():
    rng = np.random.default_rng(5)
    entropies = [(s, t) for s in SEED_EDGES for t in (0, 2**32)]
    # random seeds of 0 to 300 bits, so that rows of many widths share the batch
    entropies += [
        (int(rng.integers(2**62)) << int(rng.integers(240)), int(rng.integers(2**33)))
        for _ in range(500)
    ]
    # three rows per entry: the entropy (seed, trial), then seed under keys 0 and 1
    rows, expected = _seed_rows([seed for seed, _ in entropies], entropies), []
    for seed, trial in entropies:
        expected.append(np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64))
        for key in (0, 1):
            expected.append(
                np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(4, np.uint64)
            )
    states = _seed_states(rows)
    assert states.dtype == np.uint64
    assert np.array_equal(states, np.array(expected))


def test_spawn_many_equals_spawn():
    mech = truncated_geometric(0.5, 6, seed=1)
    seeds, rng_seeds = SEED_EDGES, [(s, t) for t, s in enumerate(SEED_EDGES)]
    states = _seed_states(_seed_rows(seeds, rng_seeds))
    for seed, rng_seed, (pair, rng) in zip(seeds, rng_seeds, mech._spawn_many(seeds, states)):
        ref = MechanismPair(*mech.truth, seed=seed)
        assert pair.seed == seed and pair.query_counter == [0, 0] and pair.truth == mech.truth
        for db in (0, 1):
            assert np.array_equal(pair.draw(db, 1000), ref.draw(db, 1000))
            assert np.array_equal(pair.draw_many(db, [3, 0, 40]), ref.draw_many(db, [3, 0, 40]))
        assert np.array_equal(rng.random(20), np.random.default_rng(list(rng_seed)).random(20))


def test_harness_trial_streams_cross_blocks_unchanged(monkeypatch):
    monkeypatch.setattr(harness, "_SEED_BLOCK", 3)
    seen = []
    real = MechanismPair._spawn_many

    def recording(self, *args):
        for mech, rng in real(self, *args):
            seen.append((mech, [g.bit_generator.state for g in (*mech._rngs, rng)]))
            yield mech, rng

    monkeypatch.setattr(MechanismPair, "_spawn_many", recording)
    seed, trials = 2**40 + 3, 8
    target = {"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25}}
    tester = {"kind": "adp-ni", "eps": 1.0, "alpha": 0.3}
    run_experiment(ExperimentConfig(tester, target, trials, seed))
    base = randomized_response(0.25)
    assert len(seen) == trials
    for trial, (mech, states) in enumerate(seen):
        ref = MechanismPair(*base.truth, seed=seed * 1_000_003 + trial + 1)
        rng = np.random.default_rng([seed, trial])
        assert mech.seed == ref.seed
        assert states == [g.bit_generator.state for g in (*ref._rngs, rng)]


def test_seed_state_serves_only_four_uint64_words():
    # a feed of three states: default_rng(7), then seed 7's two database streams
    states = _seed_states(_seed_rows([7], [(7,)]))
    feed = _SeedState(states)
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError):
            feed.generate_state(n_words, dtype)
    assert np.array_equal(
        np.random.Generator(np.random.PCG64(feed)).random(5), np.random.default_rng(7).random(5)
    )
    assert np.array_equal(feed.generate_state(4, np.uint64), states[1])
    ref = MechanismPair(*randomized_response(0.25).truth, seed=7)
    assert np.array_equal(
        np.random.Generator(np.random.PCG64(feed)).random(5), ref._rngs[1].random(5)
    )


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
    assert json.dumps(side.to_json()) == (
        '{"q0": {"n": 2, "probs": [0.75, 0.25]}, "q1": {"n": 2, "probs": [0.25, 0.75]}}'
    )
