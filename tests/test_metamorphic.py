"""Metamorphic properties that the definitions of differential privacy
imply: post-processing cannot raise the exact privacy parameters, and a
looser claim cannot turn a tester's ACCEPT into REJECT at one seed."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpaudit import (
    DiscreteDistribution,
    MechanismPair,
    SideInfo,
    adp_test_budgeted,
    adp_test_fi,
    delta_at_epsilon,
    exact_pdp_epsilon,
    leaky_mechanism,
    make_distribution,
    pdp_test_fi,
    randomized_response,
    truncated_geometric,
)
from dpaudit.fixtures import CERT_TOL

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
