"""Adversarial fixture constructions and their certification gates."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpaudit import (
    CertificationError,
    DiscreteDistribution,
    FIXTURE_NAMES,
    MechanismPair,
    adp_lowfreq_fixture,
    adp_twopoint_fixture,
    brute_force_delta,
    build_fixture,
    counts_tester,
    delta_at_epsilon,
    distinguish,
    exact_pdp_epsilon,
    fi_pdp_fixture,
    make_distribution,
    mean_sideinfo_fixture,
    mechanism_from_config,
    noinfo_rate,
    pdp_unverifiable_fixture,
    tight_perturbation,
    tv_distance,
)


def test_pdp_unverifiable_certified_values():
    pair = pdp_unverifiable_fixture(0.5, 0.2, 2.0)
    cert = pair.certification
    assert cert["eps_private"] == pytest.approx(0.5, abs=1e-12)
    assert cert["eps_far"] == pytest.approx(1.5, abs=1e-12)  # A - eps
    assert cert["rare_outcome_mass"] == pytest.approx(math.exp(-2.0), abs=1e-15)
    # both instances share database 0
    assert np.array_equal(
        pair.private_instance[0].probs, pair.far_instance[0].probs
    )
    assert pair.claim.notion == "pDP"
    assert pair.claim.epsilon == 0.5


def test_pdp_unverifiable_preconditions():
    with pytest.raises(ValueError):
        pdp_unverifiable_fixture(0.5, 0.2, 1.2)  # A <= 2 eps + alpha
    with pytest.raises(ValueError):
        pdp_unverifiable_fixture(0.5, 0.2, -1.0)
    with pytest.raises(ValueError):
        pdp_unverifiable_fixture(-0.1, 0.2, 2.0)


def test_adp_twopoint_certified_values():
    pair = adp_twopoint_fixture(0.1, 0.05, 0.1)
    cert = pair.certification
    assert cert["delta_directed_private"] == pytest.approx(0.05, abs=1e-12)
    assert cert["delta_directed_far"] == pytest.approx(0.15, abs=1e-12)
    # the direction-symmetric slack of the private pair is strictly larger
    # than delta; frozen from the exact oracle
    assert cert["delta_two_sided_private"] == pytest.approx(
        0.0607890069082197, abs=1e-15
    )
    assert pair.private_instance[0].probs[0] == 0.5
    assert pair.claim.delta == 0.05


def test_adp_twopoint_preconditions():
    with pytest.raises(ValueError):
        adp_twopoint_fixture(0.1, 0.3, 0.2)  # e^eps/2 + delta + alpha >= 1
    with pytest.raises(ValueError):
        adp_twopoint_fixture(0.1, 0.05, 0.0)


def test_adp_lowfreq_certified_values():
    pair = adp_lowfreq_fixture(6, 0.3, 0.15)
    a = (2 * 0.3 + 0.15) / 3
    cert = pair.certification
    assert cert["delta_private"] == 0.0
    assert cert["delta_far_forward"] == pytest.approx(a, abs=1e-12)
    assert cert["delta_far_reverse"] == pytest.approx(a, abs=1e-12)
    assert cert["delta_far_direction_sum"] >= 0.3 + 0.15 - 1e-12
    assert cert["brute_force_checked"] is True
    # private pair is literally the same distribution twice
    assert pair.private_instance[0] is pair.private_instance[1]
    # the two pairs agree on every outcome above the low-mass level
    x = pair.far_instance[0].probs
    y = pair.far_instance[1].probs
    level = pair.params["low_mass"]
    agree = x == y
    assert np.all(agree | (x <= level + 1e-15) | (y <= level + 1e-15))


def test_adp_lowfreq_large_universe_skips_brute_force():
    pair = adp_lowfreq_fixture(30, 0.3, 0.15)
    assert pair.certification["brute_force_checked"] is False
    assert pair.far_instance[0].n == 30


def test_adp_lowfreq_preconditions():
    with pytest.raises(ValueError):
        adp_lowfreq_fixture(7, 0.3, 0.15)  # not a multiple of 3
    with pytest.raises(ValueError):
        adp_lowfreq_fixture(6, 0.15, 0.3)  # alpha must be below delta
    with pytest.raises(ValueError):
        adp_lowfreq_fixture(6, 1.2, 0.15)


def test_fi_pdp_certified_values():
    pair = fi_pdp_fixture(0.5, 0.2, 0.1)
    side = pair.side
    cert = pair.certification
    assert cert["eps_side"] == pytest.approx(0.5, abs=1e-12)
    assert cert["eps_far"] == pytest.approx(0.7, abs=1e-12)  # eps + alpha
    assert cert["min_mass_side"] == pytest.approx(0.1 * math.exp(-0.5), abs=1e-15)
    # the claimed pair IS the private truth
    assert side.q0 is pair.private_instance[0]
    assert side.q1 is pair.private_instance[1]
    # indistinguishability gap: KL within beta * alpha^2
    assert pair.params["kl_p0far_q0"] <= 0.1 * 0.2**2 + 1e-12


def test_fi_pdp_preconditions():
    with pytest.raises(ValueError):
        fi_pdp_fixture(0.8, 0.2, 0.1)  # eps must stay below ln 2
    with pytest.raises(ValueError):
        fi_pdp_fixture(0.5, 0.2, 0.5)
    with pytest.raises(ValueError):
        fi_pdp_fixture(0.5, 0.2, 0.45)  # beta > 1/(1+e^eps)
    with pytest.raises(ValueError):
        fi_pdp_fixture(0.5, 0.0, 0.1)


def test_mean_sideinfo_certified_values():
    base = mechanism_from_config(
        {
            "mechanism": "explicit",
            "p0": {"n": 3, "probs": [0.6, 0.4, 0.0]},
            "p1": {"n": 3, "probs": [0.4, 0.6, 0.0]},
        }
    )
    pair = mean_sideinfo_fixture(0.5, 0.1, 3.0, base.truth)
    cert = pair.certification
    assert math.isinf(cert["eps_far"])
    assert cert["tv_p0_q0"] == pytest.approx(math.exp(-3.0), abs=1e-12)
    assert cert["eps_private"] <= 0.5
    # the leak sits on the last outcome, which database 1 never emits
    q0 = pair.far_instance[0].probs
    assert q0[-1] == pytest.approx(math.exp(-3.0), abs=1e-15)
    assert pair.far_instance[1].probs[-1] == 0.0


def test_mean_sideinfo_preconditions():
    leaky_base = mechanism_from_config(
        {
            "mechanism": "explicit",
            "p0": {"n": 3, "probs": [0.5, 0.3, 0.2]},
            "p1": {"n": 3, "probs": [0.5, 0.3, 0.2]},
        }
    )
    with pytest.raises(ValueError):
        mean_sideinfo_fixture(0.5, 0.1, 3.0, leaky_base.truth)  # last outcome not zero
    loud_base = mechanism_from_config(
        {
            "mechanism": "explicit",
            "p0": {"n": 3, "probs": [0.9, 0.1, 0.0]},
            "p1": {"n": 3, "probs": [0.1, 0.9, 0.0]},
        }
    )
    with pytest.raises(ValueError):
        mean_sideinfo_fixture(0.5, 0.1, 3.0, loud_base.truth)  # base is not eps-pDP


def test_tight_perturbation_drain_branch():
    p0 = make_distribution([0.6, 0.4])
    p1 = make_distribution([0.2, 0.8])
    q0, q1, info = tight_perturbation(p0, p1, 0.0, 0.1)
    assert info["branch"] == "drain_low"
    assert info["achieved"] == pytest.approx(0.5, abs=1e-12)  # 0.4 + 0.1
    assert delta_at_epsilon(q0, q1, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert tv_distance(p0, q0) <= 0.1 + 1e-12
    assert tv_distance(p1, q1) <= 0.1 + 1e-12


def test_tight_perturbation_drain_branch_without_low_mass_outside_the_event():
    # both inputs sum to 1 within NORMALIZATION_TOL; the low distribution
    # has no mass outside the witness event
    p1 = DiscreteDistribution(np.array([0.3, 0.7, 0.0]))
    p0 = DiscreteDistribution(np.array([0.3 + 1e-10, 0.7 + 1e-10, 0.0]))
    base = delta_at_epsilon(p0, p1, 0.0)
    q0, q1, info = tight_perturbation(p0, p1, 0.0, 0.1)
    assert info["branch"] == "drain_low"
    # the drained mass goes to the one outcome outside the event
    assert q1.probs[2] == pytest.approx(0.1, abs=1e-12)
    assert delta_at_epsilon(q0, q1, 0.0) == pytest.approx(base + 0.1, abs=1e-12)
    assert tv_distance(p1, q1) <= 0.1 + 1e-12
    # every outcome lies in the event: nowhere to put the drained mass
    p0 = DiscreteDistribution(np.array([0.5 + 1e-10, 0.5 + 1e-10]))
    p1 = DiscreteDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="^no room outside the witness event$"):
        tight_perturbation(p0, p1, 0.0, 0.1)


def test_tight_perturbation_grow_branch():
    # witness event {0} holds only 0.05 of the low distribution, below
    # alpha e^{-eps} = 0.075, so draining cannot reach the target
    eps = math.log(2.0)
    p0 = make_distribution([0.5, 0.4, 0.1])
    p1 = make_distribution([0.05, 0.5, 0.45])
    base = delta_at_epsilon(p0, p1, eps)
    assert base == pytest.approx(0.4, abs=1e-12)
    q0, q1, info = tight_perturbation(p0, p1, eps, 0.15)
    assert info["branch"] == "grow_high"
    assert info["achieved"] == pytest.approx(0.55, abs=1e-12)
    assert tv_distance(p0, q0) <= 0.15 + 1e-12
    assert tv_distance(p1, q1) <= 0.15 + 1e-12


def test_tight_perturbation_handles_swapped_direction():
    p0 = make_distribution([0.8, 0.2])
    p1 = make_distribution([0.5, 0.5])
    base = delta_at_epsilon(p0, p1, 0.5)
    q0, q1, info = tight_perturbation(p0, p1, 0.5, 0.05)
    assert info["base_slack"] == pytest.approx(base)
    assert delta_at_epsilon(q0, q1, 0.5) == pytest.approx(base + 0.05, abs=1e-12)


def test_tight_perturbation_preconditions():
    flat = make_distribution([1, 1])
    with pytest.raises(ValueError):
        tight_perturbation(flat, flat, 0.0, 0.1)  # zero slack
    p0 = make_distribution([0.6, 0.4])
    p1 = make_distribution([0.2, 0.8])
    with pytest.raises(ValueError):
        tight_perturbation(p0, p1, 0.0, 0.31)  # above (1 - slack)/(1 + e^eps)
    with pytest.raises(ValueError):
        tight_perturbation(p0, p1, -1.0, 0.1)


@st.composite
def slack_instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    weights = st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
    )
    p0 = make_distribution(draw(weights.filter(lambda w: sum(w) > 1e-3)))
    p1 = make_distribution(draw(weights.filter(lambda w: sum(w) > 1e-3)))
    eps = draw(st.sampled_from([0.0, 0.2, 0.7]))
    base = delta_at_epsilon(p0, p1, eps)
    assume(1e-6 < base < 0.9)
    cap = (1.0 - base) / (1.0 + math.exp(eps))
    assume(cap > 1e-6)
    frac = draw(st.floats(min_value=0.05, max_value=1.0))
    return p0, p1, eps, frac * cap


@settings(max_examples=80, deadline=None)
@given(slack_instances())
def test_tight_perturbation_is_exact_on_random_pairs(instance):
    p0, p1, eps, alpha = instance
    base = delta_at_epsilon(p0, p1, eps)
    q0, q1, info = tight_perturbation(p0, p1, eps, alpha)
    achieved = delta_at_epsilon(q0, q1, eps)
    assert achieved == pytest.approx(base + alpha, abs=1e-12)
    assert tv_distance(p0, q0) <= alpha + 1e-12
    assert tv_distance(p1, q1) <= alpha + 1e-12
    if q0.n <= 6:
        assert brute_force_delta(q0, q1, eps) == pytest.approx(achieved, abs=1e-12)


def test_distinguish_separates_far_pair():
    pair = adp_twopoint_fixture(0.1, 0.05, 0.3)
    tester = counts_tester(0.1, 0.05, 0.15)
    r = math.ceil(noinfo_rate(2, 0.1, 0.15))
    mech = MechanismPair(*pair.far_instance, seed=21)
    from_db0 = mech.draw(0, r)
    reference = MechanismPair(*mech.truth, seed=23)
    assert distinguish(tester, reference, from_db0) == 0
    # the reference batch has the unknown batch's size r
    assert reference.query_counter == [r, 0]
    from_db1 = mech.draw(1, r)
    assert distinguish(tester, MechanismPair(*mech.truth, seed=24), from_db1) == 1


def test_build_fixture_dispatch():
    assert set(FIXTURE_NAMES) == {
        "pdp-unverifiable",
        "adp-twopoint",
        "adp-lowfreq",
        "fi-pdp",
        "mean-sideinfo",
    }
    pair, side = build_fixture("adp-twopoint", {"eps": 0.1, "delta": 0.05, "alpha": 0.1})
    assert side is None
    assert pair.claim.notion == "aDP"

    pair, side = build_fixture("fi-pdp", {"eps": 0.5, "alpha": 0.2, "beta": 0.1})
    assert side is pair.side is not None
    assert side.n == 3

    base_config = {
        "mechanism": "explicit",
        "p0": {"n": 3, "probs": [0.6, 0.4, 0.0]},
        "p1": {"n": 3, "probs": [0.4, 0.6, 0.0]},
    }
    pair, side = build_fixture(
        "mean-sideinfo", {"eps": 0.5, "alpha": 0.1, "A": 3.0, "base": base_config}
    )
    assert pair.params["base"] == base_config  # kept for round-trip rebuilds

    with pytest.raises(ValueError):
        build_fixture("unknown-fixture", {})


def test_fixture_json_document_shape():
    pair, _ = build_fixture("adp-lowfreq", {"n": 6, "delta": 0.3, "alpha": 0.15})
    doc = pair.to_json_dict()
    assert set(doc) == {"claim", "params", "private", "far", "certification"}
    assert doc["claim"]["notion"] == "aDP"
    assert set(doc["private"]) == {"p0", "p1"}
    rebuilt = make_distribution(json.loads(doc["far"]["p1"])["probs"])
    assert rebuilt.n == 6
