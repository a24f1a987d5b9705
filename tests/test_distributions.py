"""Exact divergence and slack arithmetic against frozen values and the
event-enumeration oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpaudit import (
    BRUTE_FORCE_MAX_N,
    DiscreteDistribution,
    PrivacyParams,
    approx_max_divergence_bruteforce,
    brute_force_delta,
    delta_at_epsilon,
    delta_at_epsilon_directed,
    exact_pdp_epsilon,
    kl_divergence,
    make_distribution,
    max_divergence,
    min_mass,
    tv_distance,
)
from dpaudit.distributions import _SHORT_ROW, _event_masses, _integer, _slack

P = make_distribution([0.9, 0.1])
Q = make_distribution([0.5, 0.5])


@st.composite
def dist_pairs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    weights = st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=n,
        max_size=n,
    )
    wp = draw(weights)
    wq = draw(weights)
    assume(sum(wp) > 1e-3 and sum(wq) > 1e-3)
    return make_distribution(wp), make_distribution(wq)


def test_tv_distance_frozen():
    assert tv_distance(P, Q) == pytest.approx(0.4, abs=1e-15)
    assert tv_distance(P, P) == 0.0


def test_kl_divergence_frozen():
    # 0.9 ln(0.9/0.5) + 0.1 ln(0.1/0.5)
    assert kl_divergence(P, Q) == pytest.approx(0.3680642071684971, abs=1e-15)
    assert kl_divergence(P, P) == 0.0


def test_kl_divergence_infinite_on_support_mismatch():
    r = DiscreteDistribution(np.array([1.0, 0.0]))
    assert kl_divergence(Q, r) == math.inf
    # support of r is inside support of Q, so this direction is finite
    assert math.isfinite(kl_divergence(r, Q))


def test_max_divergence_frozen():
    assert max_divergence(P, Q) == pytest.approx(math.log(1.8), abs=1e-15)
    assert max_divergence(Q, P) == pytest.approx(math.log(5.0), abs=1e-15)
    assert exact_pdp_epsilon(P, Q) == pytest.approx(math.log(5.0), abs=1e-15)


def test_exact_pdp_infinite_when_support_differs():
    r = DiscreteDistribution(np.array([1.0, 0.0]))
    assert exact_pdp_epsilon(r, Q) == math.inf


def test_delta_at_epsilon_frozen():
    assert delta_at_epsilon(P, Q, 0.0) == pytest.approx(0.4, abs=1e-15)
    # binding direction is Q against P on event {1}: 0.5 - e^0.1 * 0.1
    expect = 0.5 - math.exp(0.1) * 0.1
    assert delta_at_epsilon(P, Q, 0.1) == pytest.approx(expect, abs=1e-15)
    # e^(ln 5) rounds below 5, leaving one-ulp residue at the boundary
    assert delta_at_epsilon(P, Q, math.log(5.0)) == pytest.approx(0.0, abs=1e-15)
    assert delta_at_epsilon(P, Q, 2.0) == 0.0


def test_delta_directed_is_one_sided():
    # at eps = ln 1.8 the P-against-Q direction is exactly tight
    assert delta_at_epsilon_directed(P, Q, math.log(1.8)) == pytest.approx(0.0, abs=1e-15)
    assert delta_at_epsilon_directed(Q, P, math.log(1.8)) > 0.0


@given(dist_pairs())
def test_delta_at_zero_equals_tv(pair):
    p, q = pair
    assert delta_at_epsilon(p, q, 0.0) == pytest.approx(tv_distance(p, q), abs=1e-12)


@given(dist_pairs(), st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=3.0))
def test_delta_at_epsilon_monotone(pair, e1, e2):
    p, q = pair
    lo, hi = sorted((e1, e2))
    assert delta_at_epsilon(p, q, hi) <= delta_at_epsilon(p, q, lo) + 1e-12


@settings(max_examples=60)
@given(dist_pairs(), st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_closed_form_matches_event_enumeration(pair, eps):
    p, q = pair
    assert delta_at_epsilon(p, q, eps) == pytest.approx(
        brute_force_delta(p, q, eps), abs=1e-12
    )


@settings(max_examples=40)
@given(dist_pairs(max_n=6))
def test_approx_divergence_at_zero_delta_is_max_divergence(pair):
    p, q = pair
    exact = max_divergence(p, q)
    assume(math.isfinite(exact))
    assert approx_max_divergence_bruteforce(p, q, 0.0) == pytest.approx(exact, abs=1e-12)


def test_approx_divergence_saturates_at_delta_one():
    assert approx_max_divergence_bruteforce(P, Q, 1.0) == -math.inf


def test_approx_divergence_infinite_branch():
    p = make_distribution([0.5, 0.5])
    q = make_distribution([1.0, 0.0])
    assert approx_max_divergence_bruteforce(p, q, 0.2) == math.inf


def test_brute_force_rejects_large_universe():
    big = make_distribution(np.ones(BRUTE_FORCE_MAX_N + 1))
    with pytest.raises(ValueError):
        brute_force_delta(big, big, 0.0)


def test_negative_eps_rejected():
    with pytest.raises(ValueError):
        delta_at_epsilon(P, Q, -0.1)
    with pytest.raises(ValueError):
        delta_at_epsilon_directed(P, Q, -1e-9)


def test_mismatched_universes_rejected():
    r = make_distribution([1.0, 1.0, 1.0])
    for fn in (tv_distance, kl_divergence, max_divergence):
        with pytest.raises(ValueError):
            fn(P, r)
    with pytest.raises(ValueError):
        delta_at_epsilon(P, r, 0.0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([]))
    with pytest.raises(ValueError):
        make_distribution([0.0, 0.0])
    with pytest.raises(ValueError):
        make_distribution([1.0, math.nan])


def test_distribution_is_read_only():
    d = make_distribution([2.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        d.probs[0] = 0.7


def test_json_round_trip_is_bit_exact():
    d = make_distribution([1.0, math.pi, math.e])
    back = DiscreteDistribution.from_json(d.to_json())
    assert np.array_equal(back.probs, d.probs)


def test_from_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        DiscreteDistribution.from_json({"n": 3, "probs": [0.5, 0.5]})
    with pytest.raises(ValueError):
        DiscreteDistribution.from_json({"n": 2})
    # n is a whole number; an integral float still passes
    with pytest.raises(ValueError, match="n must be an integer"):
        DiscreteDistribution.from_json({"n": 2.5, "probs": [0.5, 0.5]})
    assert DiscreteDistribution.from_json({"n": 2.0, "probs": [0.5, 0.5]}).n == 2


def test_integer_check():
    assert _integer("n", 18) == 18
    assert _integer("n", 18.0) == 18 and type(_integer("n", 18.0)) is int
    assert _integer("n", np.int64(4)) == 4
    assert _integer("n", 2**70) == 2**70
    assert _integer("n", 2.0**53) == 2**53
    # above 2^53 a float cannot say which integer it means
    for bad in (18.5, math.nan, math.inf, None, "3", True, [2], 2.0**53 + 2, 1e308):
        with pytest.raises(ValueError, match=r"^n must be an integer; got "):
            _integer("n", bad)


def test_privacy_params_validation():
    PrivacyParams(epsilon=0.5, notion="pDP")
    PrivacyParams(epsilon=0.5, delta=0.1, notion="aDP")
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=0.5, delta=0.1, notion="pDP")
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=0.5, gamma=0.1, notion="aDP")
    with pytest.raises(ValueError):
        PrivacyParams(notion="DP")
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=-1.0)
    with pytest.raises(ValueError):
        PrivacyParams(penalty_weight=0.0)


def test_min_mass_counts_zero_entries():
    zero = DiscreteDistribution(np.array([1.0, 0.0]))
    assert min_mass([Q, zero]) == 0.0
    assert min_mass([P]) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        min_mass([])


# -- the in-place oracles reproduce these expressions bit for bit


def slack_reference(a, b, eps, r=1):
    rows = np.array((a, b), dtype=np.float64)
    rows /= r
    return np.maximum(0.0, rows - math.exp(eps) * rows[::-1]).sum(axis=1).tolist()


def event_masses_reference(probs):
    sums = np.zeros(1, dtype=np.float64)
    for p in probs:
        sums = np.concatenate([sums, sums + p])
    return sums


def brute_force_delta_reference(p, q, eps):
    mp = event_masses_reference(p.probs)
    mq = event_masses_reference(q.probs)
    scale = math.exp(eps)
    return max(0.0, float(np.max(mp - scale * mq)), float(np.max(mq - scale * mp)))


def approx_max_divergence_reference(p, q, delta):
    mp = event_masses_reference(p.probs)
    mq = event_masses_reference(q.probs)
    qualifying = mp >= delta
    best = -math.inf
    numer = mp[qualifying] - delta
    denom = mq[qualifying]
    positive = numer > 0
    if np.any(positive & (denom == 0)):
        return math.inf
    usable = positive & (denom > 0)
    if np.any(usable):
        best = float(np.max(np.log(numer[usable] / denom[usable])))
    return best


def bits(values) -> bytes:
    """The float64 bytes, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=np.float64).tobytes()


def seeded_pairs(max_n, count=6, seed=11):
    """Distribution pairs of every size up to max_n, some with zero masses."""
    rng = np.random.default_rng(seed)
    for n in range(1, max_n + 1):
        for _ in range(count):
            weights = rng.random((2, n)) * (rng.random((2, n)) > 0.25)
            weights[:, 0] += 1e-3  # keep some mass
            yield make_distribution(weights[0]), make_distribution(weights[1])


SLACK_EPS = (0.0, 0.3, 5.0, 700.0)


def test_slack_matches_reference_on_probabilities():
    for p, q in seeded_pairs(64, count=3):
        for eps in SLACK_EPS:
            assert bits(_slack(p.probs, q.probs, eps)) == bits(
                slack_reference(p.probs, q.probs, eps)
            )


def test_slack_matches_reference_on_counts():
    rng = np.random.default_rng(12)
    for p, q in seeded_pairs(16, count=2):
        for r in (2, 7, 1000):
            x, y = rng.multinomial(r, p.probs), rng.multinomial(r, q.probs)
            for eps in SLACK_EPS:
                assert bits(_slack(x, y, eps, r)) == bits(slack_reference(x, y, eps, r))


# -- rows shorter than _SHORT_ROW take a scalar loop; numpy sums 8 and more


@pytest.mark.parametrize("n", [_SHORT_ROW - 1, _SHORT_ROW])
def test_slack_matches_reference_on_both_sides_of_the_loop_cutoff(n):
    rng = np.random.default_rng(14)
    for _ in range(200):
        # masses spread over many binades, some exactly zero
        w = rng.random((2, n)) * 10.0 ** rng.integers(-12, 1, (2, n))
        w *= rng.random((2, n)) > 0.2
        w[:, 0] += 1e-3
        p, q = make_distribution(w[0]), make_distribution(w[1])
        x, y = rng.multinomial(1000, p.probs), rng.multinomial(1000, q.probs)
        for eps in SLACK_EPS:
            assert bits(_slack(p.probs, q.probs, eps)) == bits(
                slack_reference(p.probs, q.probs, eps)
            )
            assert bits(_slack(x, y, eps, 1000)) == bits(slack_reference(x, y, eps, 1000))


@pytest.mark.parametrize("r", [2**53 + 1, 2**62])
def test_slack_rounds_large_counts_as_numpy_does(r):
    # counts and r above 2^53 round on their way to float64
    rng = np.random.default_rng(15)
    for n in (2, 3, _SHORT_ROW - 1, _SHORT_ROW):
        for _ in range(20):
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            x, y = rng.multinomial(r, p), rng.multinomial(r, q)
            for eps in SLACK_EPS:
                assert bits(_slack(x, y, eps, r)) == bits(slack_reference(x, y, eps, r))


def test_slack_takes_list_rows():
    rng = np.random.default_rng(16)
    for n in (1, 3, _SHORT_ROW - 1, _SHORT_ROW, 12):
        x, y = rng.multinomial(97, np.ones(n) / n), rng.multinomial(97, np.ones(n) / n)
        p, q = make_distribution(rng.random(n)), make_distribution(rng.random(n))
        for eps in SLACK_EPS:
            got = _slack(x.tolist(), y.tolist(), eps, 97)
            assert bits(got) == bits(slack_reference(x, y, eps, 97))
            assert all(type(v) is float for v in got)
            got = _slack(p.probs.tolist(), q.probs.tolist(), eps)
            assert bits(got) == bits(slack_reference(p.probs, q.probs, eps))


@pytest.mark.parametrize("n", [1, 3, _SHORT_ROW - 1, _SHORT_ROW, 12])
def test_slack_rejects_ragged_rows(n):
    for a, b in (([1] * n, [1] * (n + 1)), ([1] * (n + 1), [1] * n)):
        for row_a, row_b in ((a, b), (np.array(a), np.array(b))):
            with pytest.raises(ValueError):
                _slack(row_a, row_b, 0.0, n + 1)


def test_event_masses_match_reference():
    for p, _q in seeded_pairs(16, count=2):
        assert bits(_event_masses(p.probs)) == bits(event_masses_reference(p.probs))


def test_brute_force_oracles_match_reference():
    for p, q in seeded_pairs(16, count=2):
        for eps in (0.0, 0.3, 5.0):
            assert bits(brute_force_delta(p, q, eps)) == bits(
                brute_force_delta_reference(p, q, eps)
            )
        for delta in (0.0, 0.1, 0.5, 0.9):
            assert bits(approx_max_divergence_bruteforce(p, q, delta)) == bits(
                approx_max_divergence_reference(p, q, delta)
            )


def test_approx_divergence_at_delta_one_where_masses_sum_under_one():
    rng = np.random.default_rng(0)
    pairs = [(make_distribution(rng.random(8)), make_distribution(rng.random(8))) for _ in range(200)]
    # no event of these reaches mass 1 in float64, so none has a positive numerator
    short = [(p, q) for p, q in pairs if _event_masses(p.probs).max() < 1.0]
    assert len(short) == 52
    for p, q in short:
        assert bits(approx_max_divergence_bruteforce(p, q, 1.0)) == bits(
            approx_max_divergence_reference(p, q, 1.0)
        )


@pytest.mark.parametrize(
    "oracle, arg", [(brute_force_delta, 0.3), (approx_max_divergence_bruteforce, 0.1)]
)
def test_brute_force_oracles_peak_at_three_event_vectors(oracle, arg):
    rng = np.random.default_rng(13)
    p, q = make_distribution(rng.random(16)), make_distribution(rng.random(16))
    oracle(p, q, arg)  # first-call allocations do not count
    tracemalloc.start()
    try:
        oracle(p, q, arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three 2^16 float64 vectors, plus 4 KiB for scalars and masks' headers
    assert peak <= 3 * 2**16 * 8 + 4096


@pytest.mark.parametrize("n", [16, 18, 20])
@pytest.mark.parametrize(
    "oracle, arg", [(brute_force_delta, 0.3), (approx_max_divergence_bruteforce, 0.1)]
)
def test_brute_force_oracles_peak_at_five_block_vectors(oracle, arg, n):
    rng = np.random.default_rng(n)
    p, q = make_distribution(rng.random(n)), make_distribution(rng.random(n))
    oracle(p, q, arg)  # first-call allocations do not count
    tracemalloc.start()
    try:
        oracle(p, q, arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first block's pair, the later blocks' shared pair and one scratch
    # vector of 2^14 float64s each, plus 128 KiB for masks and scalars
    assert peak <= 5 * 2**14 * 8 + 128 * 1024


# -- the oracles walk 2^n events in blocks of 2^14; sizes around and
# -- above one block must give the whole-vector references' bits


def block_pairs(n, seed):
    """Pairs with zero masses, and one whose mass sits only on the
    outcomes from 14 up, so that every block above the first counts."""
    rng = np.random.default_rng(seed)
    for _ in range(2):
        weights = rng.random((2, n)) * (rng.random((2, n)) > 0.25)
        weights[:, 0] += 1e-3
        yield make_distribution(weights[0]), make_distribution(weights[1])
    if n > 14:
        weights = np.zeros((2, n))
        weights[:, 14:] = rng.random((2, n - 14)) * (rng.random((2, n - 14)) > 0.3)
        weights[:, -1] += 1e-3
        yield make_distribution(weights[0]), make_distribution(weights[1])


@pytest.mark.parametrize("n", [13, 14, 15, 16, 18, 20])
def test_brute_force_oracles_match_reference_across_blocks(n):
    for p, q in block_pairs(n, seed=n):
        for eps in SLACK_EPS:
            assert bits(brute_force_delta(p, q, eps)) == bits(
                brute_force_delta_reference(p, q, eps)
            )
        for delta in (0.0, 0.1, 0.5, 0.9):
            assert bits(approx_max_divergence_bruteforce(p, q, delta)) == bits(
                approx_max_divergence_reference(p, q, delta)
            )


@pytest.mark.parametrize(
    "oracle, arg", [(brute_force_delta, 0.3), (approx_max_divergence_bruteforce, 0.1)]
)
def test_brute_force_oracles_hold_no_event_vector(oracle, arg):
    rng = np.random.default_rng(17)
    n = BRUTE_FORCE_MAX_N
    p, q = make_distribution(rng.random(n)), make_distribution(rng.random(n))
    tracemalloc.start()
    try:
        oracle(p, q, arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2^20 float64 vector alone is 8 MiB
    assert peak < 4 * 2**20
