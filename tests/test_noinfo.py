"""Sample-only aDP tester: rate formula, plug-in statistic, decision rule."""

import math

import numpy as np
import pytest

from dpaudit import (
    Verdict,
    adp_test_budgeted,
    adp_test_ni,
    counts_tester,
    leaky_mechanism,
    noinfo_rate,
    randomized_response,
)
from dpaudit.noinfo import poisson_nonzero


def test_rate_formula_frozen():
    # max{4n(1+e^{2 eps})^2, 12(1+e^{2 eps})} / alpha^2
    assert noinfo_rate(2, 0.1, 0.1) == pytest.approx(3947.7041711692864, rel=1e-15)
    assert noinfo_rate(2, 0.1, 0.05) == pytest.approx(15790.816684677146, rel=1e-15)
    assert noinfo_rate(3, 0.0, 0.1) == pytest.approx(4800.0, rel=1e-12)
    # the 12 b branch dominates only when 4 n b < 12, i.e. tiny n
    assert noinfo_rate(1, 0.0, 1.0) == 24.0


def test_rate_validation():
    with pytest.raises(ValueError):
        noinfo_rate(0, 0.0, 0.1)
    with pytest.raises(ValueError):
        noinfo_rate(2, -0.1, 0.1)
    with pytest.raises(ValueError):
        noinfo_rate(2, 0.0, 0.0)


def test_statistic_worked_example():
    def z_forward(x, y, r, eps):
        return counts_tester(eps, 0.0, 0.1)(x, y, r).diagnostics["z_forward"]

    # (9 - 5)/10 on outcome 0, (1 - 5)/10 clipped to 0 on outcome 1
    assert z_forward([9, 1], [5, 5], 10, 0.0) == pytest.approx(0.4)
    assert z_forward([5, 5], [5, 5], 10, 0.0) == 0.0
    # e^eps scaling kills the positive part entirely
    assert z_forward([9, 1], [5, 5], 10, 1.0) == 0.0
    with pytest.raises(ValueError):
        z_forward([1], [1], 0, 0.0)
    with pytest.raises(ValueError):
        z_forward([1, 2], [1], 5, 0.0)


def test_config_defaults_and_validation():
    # the tester samples at the formula rate: the same stream, the same r
    mech = randomized_response(0.25)
    out = adp_test_ni(mech, 0.1, 0.0, 0.1, np.random.default_rng(0))
    r, _retries = poisson_nonzero(noinfo_rate(2, 0.1, 0.1), np.random.default_rng(0))
    assert out.diagnostics["r"] == (r, r)
    # delta is checked first, so a claim with several bad values names it
    with pytest.raises(ValueError, match="^delta"):
        adp_test_ni(mech, math.nan, 1.5, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="noinfo_rate"):
        # a claim whose rate is not finite
        adp_test_ni(mech, 400.0, 0.0, 0.1, np.random.default_rng(0))


def test_poisson_nonzero_never_returns_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        value, retries = poisson_nonzero(0.5, rng)
        assert value > 0
        assert retries >= 0
    with pytest.raises(ValueError):
        poisson_nonzero(0.0, rng)


def test_poissonized_histogram_counts_match_r():
    mech = randomized_response(0.25, seed=1)
    r = int(np.random.default_rng(2).poisson(100.0))
    counts = mech.draw(0, r)
    assert counts.sum() == r
    assert mech.query_counter[0] == r


def test_accepts_private_mechanism():
    # randomized response meets its own (ln 3, 0) claim exactly
    mech = randomized_response(0.25, seed=11)
    out = adp_test_ni(mech, math.log(3.0), 0.0, 0.2, np.random.default_rng(0))
    assert out.verdict is Verdict.ACCEPT
    assert out.statistic < out.threshold
    assert out.queries_used == (out.diagnostics["r"][0], out.diagnostics["r"][1])


def test_rejects_blatant_leak():
    # slack is 0.5 at every eps; threshold here is 0 + 0.2
    mech = leaky_mechanism(0.5, seed=4)
    out = adp_test_ni(mech, 0.0, 0.0, 0.2, np.random.default_rng(1))
    assert out.verdict is Verdict.REJECT


def test_reverse_leak_is_caught():
    # at eps = ln 2 these counts violate only the reverse ordering:
    # forward positive part is empty, reverse has (50 - 2*10)/100 on outcome 0
    eps = math.log(2.0)
    x = np.array([10, 90])
    y = np.array([50, 50])
    out_two = counts_tester(eps, 0.0, 0.1)(x, y, 100)
    # a one-direction test would see only z_forward, and accept
    assert out_two.diagnostics["z_forward"] == pytest.approx(0.0)
    assert out_two.verdict is Verdict.REJECT
    assert out_two.statistic == pytest.approx(0.3)
    assert out_two.diagnostics["z_reverse"] == pytest.approx(0.3)


def test_budgeted_variant_uses_exactly_r():
    mech = randomized_response(0.25, seed=8)
    out = adp_test_budgeted(mech, math.log(3.0), 0.0, 0.3, 2000)
    assert out.queries_used == (2000, 2000)
    assert mech.query_counter == [2000, 2000]
    with pytest.raises(ValueError):
        adp_test_budgeted(mech, 0.0, 0.0, 0.3, 0)
    # a fractional budget is rejected, not truncated by the draw
    with pytest.raises(ValueError, match="r must be an integer"):
        adp_test_budgeted(mech, 0.0, 0.0, 0.3, 2.5)
    assert mech.query_counter == [2000, 2000]


def test_counts_tester_closure():
    tester = counts_tester(0.0, 0.05, 0.1)
    out = tester(np.array([60, 40]), np.array([50, 50]), 100)
    assert out.statistic == pytest.approx(0.1)
    assert out.verdict is Verdict.ACCEPT  # 0.1 < delta + alpha = 0.15
    assert out.queries_used == (0, 0)  # caller already paid for the samples
    rejecting = tester(np.array([70, 30]), np.array([50, 50]), 100)
    assert rejecting.verdict is Verdict.REJECT
    with pytest.raises(ValueError):
        tester([1], [1], 0)
