"""Metamorphic properties that the definitions of differential privacy
imply: post-processing cannot raise the exact privacy parameters, a
looser claim cannot turn a tester's ACCEPT into REJECT at one seed, the
slack statistic and the exact acceptance are symmetric in the two
databases and in the outcomes' order, and every tester reports as
queries exactly the samples it drew."""

import exact_oc
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpaudit import (
    DiscreteDistribution,
    MechanismPair,
    SideInfo,
    adp_test_budgeted,
    adp_test_fi,
    adp_test_ni,
    data_distribution,
    delta_at_epsilon,
    exact_pdp_epsilon,
    leaky_mechanism,
    make_distribution,
    pdp_test_fi,
    random_privacy_test,
    randomized_response,
    truncated_geometric,
    value_flag_family,
)
from dpaudit.fixtures import CERT_TOL
from dpaudit.noinfo import _decide

EPS = st.floats(min_value=0.0, max_value=2.0)


@st.composite
def merged_pairs(draw):
    """A distribution pair over 2..11 outcomes and the pair after a random
    merge of its outcomes (each outcome mapped to one of n bins)."""
    n = draw(st.integers(min_value=2, max_value=11))
    weights = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)
    wp, wq = draw(weights), draw(weights)
    assume(sum(wp) > 1e-3 and sum(wq) > 1e-3)
    p, q = make_distribution(wp), make_distribution(wq)
    bins = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    merged = [DiscreteDistribution(np.bincount(bins, d.probs, minlength=n)) for d in (p, q)]
    return (p, q), tuple(merged)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(merged_pairs(), EPS)
def test_merging_outcomes_never_raises_the_privacy_parameters(pairs, eps):
    (p, q), (mp, mq) = pairs
    assert delta_at_epsilon(mp, mq, eps) <= delta_at_epsilon(p, q, eps) + CERT_TOL
    assert exact_pdp_epsilon(mp, mq) <= exact_pdp_epsilon(p, q) + CERT_TOL


#: (truth, full support): pdp_test_fi needs every claimed mass positive
ZOO = [
    (randomized_response(0.25).truth, True),
    (truncated_geometric(0.5, 4).truth, True),
    (leaky_mechanism(0.2).truth, False),
]


@st.composite
def claim_pairs(draw):
    """A tight and a loose (eps, delta) claim, the loose one no tighter in
    either; eps spans the zoo's exact pDP levels (ln 3 and 0.5)."""
    eps = sorted(draw(st.tuples(*[st.floats(min_value=0.0, max_value=1.5)] * 2)))
    delta = sorted(draw(st.tuples(*[st.floats(min_value=0.0, max_value=0.3)] * 2)))
    return (eps[0], delta[0]), (eps[1], delta[1])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.sampled_from(ZOO),
    claim_pairs(),
    st.sampled_from((0.1, 0.3)),
    st.integers(min_value=0, max_value=2**32),
)
def test_a_looser_claim_never_turns_accept_into_reject(zoo, claims, alpha, seed):
    truth, full_support = zoo
    side = SideInfo(*truth)
    testers = {
        "adp_test_budgeted": lambda mech, eps, delta: adp_test_budgeted(
            mech, eps, delta, alpha, 200),
        "adp_test_fi": lambda mech, eps, delta: adp_test_fi(
            mech, side, eps, delta, alpha, np.random.default_rng(seed)),
    }
    if full_support:
        testers["pdp_test_fi"] = lambda mech, eps, delta: pdp_test_fi(
            mech, side, eps, alpha, np.random.default_rng(seed))
    for name, test in testers.items():
        # the same seed for both claims: the samples do not depend on the claim
        tight, loose = (test(MechanismPair(*truth, seed=seed), *claim) for claim in claims)
        assert loose.accepted or not tight.accepted, (name, claims)


@st.composite
def histogram_pairs(draw):
    """Two histograms of the same r samples (1..60) over 1..12 outcomes,
    both sides of the short-row cut of ``distributions._slack``, and a
    permutation of the outcomes."""
    n = draw(st.integers(min_value=1, max_value=12))
    r = draw(st.integers(min_value=1, max_value=60))
    samples = st.lists(st.integers(0, n - 1), min_size=r, max_size=r)
    x, y = (np.bincount(draw(samples), minlength=n) for _ in range(2))
    return x, y, r, np.array(draw(st.permutations(range(n))))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(histogram_pairs(), EPS, st.floats(min_value=0.0, max_value=0.5))
def test_the_slack_statistic_is_symmetric(histograms, eps, delta):
    x, y, r, perm = histograms

    def statistic(a, b):
        return _decide(a, b, r, eps, delta, 0.1)[0].statistic

    # swapping the databases swaps the two directions: the max keeps its bits
    assert statistic(y, x) == statistic(x, y)
    # relabelling the outcomes only reorders the sums
    assert statistic(x[perm], y[perm]) == pytest.approx(statistic(x, y), abs=1e-12)


def swapped_outcomes(d):
    return DiscreteDistribution(d.probs[::-1].copy())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 2),
    st.integers(min_value=1, max_value=200),
    EPS,
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=0.05, max_value=0.5),
)
def test_the_exact_acceptance_is_symmetric(heads, r, eps, delta, alpha):
    p0, p1 = (DiscreteDistribution(np.array([h, 1.0 - h])) for h in heads)
    claim = (r, eps, delta, alpha)
    accepted = exact_oc.acceptance(p0, p1, *claim)
    assert exact_oc.acceptance(p1, p0, *claim) == pytest.approx(accepted, abs=1e-12)
    swapped = exact_oc.acceptance(swapped_outcomes(p0), swapped_outcomes(p1), *claim)
    assert swapped == pytest.approx(accepted, abs=1e-12)


def spent(mech, run):
    """``run(mech)``'s outcome and the change it made to ``mech.query_counter``."""
    before = tuple(mech.query_counter)
    outcome = run(mech)
    return outcome, tuple(after - b for after, b in zip(mech.query_counter, before))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.sampled_from(ZOO),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=0.3),
    st.sampled_from((0.2, 0.3)),
    st.integers(min_value=0, max_value=2**32),
)
def test_queries_used_are_the_samples_drawn(zoo, eps, delta, alpha, seed):
    truth, full_support = zoo
    side = SideInfo(*truth)
    testers = {
        "adp_test_ni": lambda mech, rng: adp_test_ni(mech, eps, delta, alpha, rng),
        "adp_test_budgeted": lambda mech, rng: adp_test_budgeted(mech, eps, delta, alpha, 50),
        "adp_test_fi": lambda mech, rng: adp_test_fi(mech, side, eps, delta, alpha, rng),
    }
    if full_support:
        testers["pdp_test_fi"] = lambda mech, rng: pdp_test_fi(mech, side, eps, alpha, rng)
    for name, test in testers.items():
        mech = MechanismPair(*truth, seed=seed)
        mech.draw(0, 3)  # a box already queried: count the change, not the total
        mech.draw(1, 2)
        outcome, used = spent(mech, lambda m: test(m, np.random.default_rng(seed)))
        assert outcome.queries_used == used, name

    # the reduction builds its own pairs: it reports what its inner tests
    # drew, here a different count from each database
    pairs = {}

    def inner(mech, rng):
        pairs[id(mech)] = mech
        outcome, used = spent(
            mech, lambda m: adp_test_fi(m, SideInfo(*m.truth), eps, 1.0, alpha, rng))
        assert outcome.queries_used == used
        return outcome

    family = value_flag_family({1}, *truth[::-1])
    dd = data_distribution([0, 1], [0.5, 0.5])
    outcome = random_privacy_test(family, dd, inner, gamma=0.0, alpha=0.5, penalty_weight=1.0,
                                  rng=np.random.default_rng(seed))
    assert len(pairs) == outcome.diagnostics["trials"]
    drawn = tuple(sum(mech.query_counter[db] for mech in pairs.values()) for db in (0, 1))
    assert outcome.queries_used == drawn
