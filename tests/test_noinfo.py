"""Sample-only aDP tester: rate formula, plug-in statistic, decision rule."""

import math

import numpy as np
import pytest

from dpaudit import (
    MechanismPair,
    Verdict,
    adp_test_budgeted,
    adp_test_ni,
    leaky_mechanism,
    noinfo_rate,
    randomized_response,
    truncated_geometric,
)
from dpaudit.noinfo import _decide, _poisson_nonzero, _runner


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
        return _decide(x, y, r, eps, 0.0, 0.1)[0].diagnostics["z_forward"]

    # (9 - 5)/10 on outcome 0, (1 - 5)/10 clipped to 0 on outcome 1
    assert z_forward([9, 1], [5, 5], 10, 0.0) == pytest.approx(0.4)
    assert z_forward([5, 5], [5, 5], 10, 0.0) == 0.0
    # e^eps scaling kills the positive part entirely
    assert z_forward([9, 1], [5, 5], 10, 1.0) == 0.0
    with pytest.raises(ValueError):
        z_forward([1, 2], [1], 5, 0.0)


def test_config_defaults_and_validation():
    # the tester samples at the formula rate: the same stream, the same r
    mech = randomized_response(0.25)
    out = adp_test_ni(mech, 0.1, 0.0, 0.1, np.random.default_rng(0))
    r, _retries = _poisson_nonzero(noinfo_rate(2, 0.1, 0.1), np.random.default_rng(0))
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
        value, retries = _poisson_nonzero(0.5, rng)
        assert value > 0
        assert retries >= 0
    with pytest.raises(ValueError, match="the Poisson draw stays zero"):
        _poisson_nonzero(0.0, rng)


def test_rate_above_the_cap_is_refused_before_any_draw():
    # n = 2, eps 0, alpha 1e-9: the rate 32 / alpha^2 lies above 2^62
    mech = randomized_response(0.25)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as caught:
        adp_test_ni(mech, 0.0, 0.1, 1e-9, rng)
    assert str(caught.value) == "rate must lie in (0, 4.61169e+18]; got 3.1999999999999996e+19"
    assert mech.query_counter == [0, 0]
    assert rng.bit_generator.state == state


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
    [out_two] = _decide(x, y, 100, eps, 0.0, 0.1)
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


# -- one decision over a block of count rows equals one call per row


def _block_and_rows(x, y, r, claim, retries=None):
    block = _decide(x, y, r, *claim, retries)
    rows = [
        _decide(x[i], y[i], int(r[i]), *claim, retries and [retries[i]])[0]
        for i in range(len(r))
    ]
    return block, rows


def test_block_decision_equals_single_calls_on_criterion_08_inputs():
    # criterion 08's inner tester, adp_test_budgeted(mech, 0.0, 0.05, 0.1, 4800),
    # on the output pairs of its constant and flagged families
    leaky, r, claim = leaky_mechanism(0.5), 4800, (0.0, 0.05, 0.1)
    p0, p1 = leaky.truth
    verdicts = set()
    for pair in ((p0, p0), (p0, p1), (p1, p0)):
        x, y, single = [], [], []
        for seed in range(40):
            single.append(adp_test_budgeted(MechanismPair(*pair, seed=seed), *claim, r))
            mech = MechanismPair(*pair, seed=seed)
            x.append(mech.draw(0, r))
            y.append(mech.draw(1, r))
        block, rows = _block_and_rows(np.array(x), np.array(y), np.full(40, r), claim)
        assert repr(block) == repr(rows) == repr(single)
        verdicts |= {outcome.verdict for outcome in block}
    assert verdicts == {Verdict.ACCEPT, Verdict.REJECT}


@pytest.mark.parametrize("n", [2, 3, 7, 8, 64])
def test_single_row_callers_equal_the_block_on_both_slack_branches(n):
    # criterion 08's inner claim and budget; rows of fewer than
    # distributions._SHORT_ROW = 8 outcomes take _slack's Python loop
    mech = leaky_mechanism(0.5, n) if n % 2 else truncated_geometric(0.5, n)
    r, claim, seeds = 4800, (0.0, 0.05, 0.1), range(20)
    p0, p1 = mech.truth
    verdicts = set()
    for pair in ((p0, p0), (p0, p1), (p1, p0)):
        single = [adp_test_budgeted(MechanismPair(*pair, seed=s), *claim, r) for s in seeds]
        twins = [(MechanismPair(*pair, seed=s), np.random.default_rng(s)) for s in seeds]
        run = _runner(n, None, *claim, r)(twins)
        assert all(twin.query_counter == [r, r] for twin, _rng in twins)
        drawn = [MechanismPair(*pair, seed=s) for s in seeds]
        x = np.array([twin.draw(0, r) for twin in drawn])
        y = np.array([twin.draw(1, r) for twin in drawn])
        sizes = np.full(len(seeds), r)
        assert repr(single) == repr(_decide(x, y, sizes, *claim)) == repr(run)
        verdicts |= {outcome.verdict for outcome in single}
    assert verdicts == set(Verdict)


@pytest.mark.parametrize("n", [7, 8, 1024])
def test_block_decision_equals_single_calls_with_per_row_r(n):
    rng = np.random.default_rng(n)
    r = rng.integers(1, 5000, 48)
    p, q = rng.dirichlet(np.ones(n), size=2)
    x = np.array([rng.multinomial(s, p) for s in r])
    y = np.array([rng.multinomial(s, q) for s in r])
    for eps in (0.0, 0.3, 1.0):
        # the threshold delta + alpha at the block's median statistic
        median = float(np.median([o.statistic for o in _decide(x, y, r, eps, 0.0, 1.0)]))
        claim = (eps, median - 0.05, 0.05)
        block, rows = _block_and_rows(x, y, r, claim, retries=list(range(1, 49)))
        assert repr(block) == repr(rows)
        block, rows = _block_and_rows(x, y, r, claim)
        assert repr(block) == repr(rows)
        assert {outcome.verdict for outcome in block} == {Verdict.ACCEPT, Verdict.REJECT}
