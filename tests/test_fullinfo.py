"""Full-information testers: identity-test calibration, the free exact
check on claimed distributions, and the frequency-band pDP test."""

import hashlib
import math
import struct

import numpy as np
import pytest

from dpaudit import (
    ExperimentConfig,
    MechanismPair,
    SideInfo,
    Verdict,
    adp_test_fi,
    amplification_reps,
    identity_budget,
    identity_statistic,
    identity_threshold,
    leaky_mechanism,
    make_distribution,
    mechanism_from_config,
    pdp_test_fi,
    randomized_response,
    run_experiment,
    sweep,
    truncated_geometric,
)
from dpaudit import fullinfo
from dpaudit.distributions import _majority_reps
from dpaudit.fullinfo import IDENTITY_CONFIDENCE, STATISTIC_VERSION, SUBTEST_REPS

UNIFORM2 = make_distribution([1.0, 1.0])


def test_identity_budget_formula():
    # ceil(6 sqrt(n) / alpha^2)
    assert identity_budget(16, 0.3) == 267
    assert identity_budget(1, 10.0) == 1  # floor at one sample
    with pytest.raises(ValueError):
        identity_budget(0, 0.3)
    with pytest.raises(ValueError):
        identity_budget(4, 0.0)


def test_majority_reps():
    # ceil(18 ln(1/failure)), floored at 1
    assert _majority_reps(1.0 / (1.0 - math.sqrt(2.0 / 3.0))) == 31
    assert SUBTEST_REPS == 31
    assert _majority_reps(1.0 / 0.999) == 1
    # the reduction's reps are the same formula at failure alpha / (2 w)
    assert amplification_reps(2.0, 0.2) == _majority_reps(20.0)


def test_identity_statistic_zero_mean_shape():
    # counts exactly at the means: each term is ((0)^2 - 50)/50 = -1
    q = make_distribution([0.5, 0.5])
    stat = identity_statistic(q, np.array([50, 50]), 100.0)
    assert stat == pytest.approx(-2.0)


def test_identity_statistic_support_violation_is_infinite():
    q = make_distribution([1.0, 1.0, 0.0])
    assert identity_statistic(q, np.array([3, 4, 1]), 10.0) == math.inf
    assert math.isfinite(identity_statistic(q, np.array([3, 4, 0]), 10.0))


def test_identity_statistic_rows_match_single_histograms():
    q = make_distribution([2.0, 1.0, 0.0, 1.0])
    block = np.array([[10, 4, 0, 6], [3, 4, 1, 5], [0, 0, 0, 0]])
    stats = identity_statistic(q, block, 20.0)
    assert stats.shape == (3,)
    assert stats.tolist() == [identity_statistic(q, row, 20.0) for row in block]
    assert stats[1] == math.inf
    assert isinstance(identity_statistic(q, block[0], 20.0), float)


def test_identity_statistic_validation():
    q = make_distribution([1.0, 1.0])
    with pytest.raises(ValueError):
        identity_statistic(q, np.array([1, 2, 3]), 10.0)
    with pytest.raises(ValueError):
        identity_statistic(q, np.ones((4, 3)), 10.0)
    with pytest.raises(ValueError):
        identity_statistic(q, np.array(5), 10.0)
    with pytest.raises(ValueError):
        identity_statistic(q, np.array([1, 2]), 0.0)


def test_calibration_takes_whole_trials():
    for trials in (100.5, True, math.inf):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            identity_threshold(UNIFORM2, 0.3, trials)


def test_calibration_trials_are_bounded_before_any_draw(monkeypatch):
    def never(*args):
        raise AssertionError("simulated a calibration above the bound")

    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ValueError, match=r"^trials must be an integer >= 100; got 99$"):
        identity_threshold(UNIFORM2, 0.3, 99)
    for trials in (2**24 + 1, 10**10, 2**70):
        with pytest.raises(ValueError, match=r"^trials must be an integer <= 16777216"):
            identity_threshold(UNIFORM2, 0.3, trials)


def test_calibration_contract():
    budget = identity_budget(2, 0.3)
    threshold = identity_threshold(UNIFORM2, 0.3, 2000)
    assert math.isfinite(threshold)

    # realized null acceptance should clear the calibrated confidence
    accepts = 0
    check = np.random.default_rng(6)
    for _ in range(600):
        counts = check.poisson(budget * UNIFORM2.probs)
        if identity_statistic(UNIFORM2, counts, budget) < threshold:
            accepts += 1
    assert accepts / 600 >= IDENTITY_CONFIDENCE - 0.05


def documented_key(q, alpha, trials):
    """The threshold key as documented: sha256 of the ascending-sorted masses,
    then "<qddqq" of (n, alpha, confidence, budget, trials), then "<q" of
    STATISTIC_VERSION."""
    h = hashlib.sha256(np.sort(q.probs).tobytes())
    budget = identity_budget(q.n, alpha)
    h.update(struct.pack("<qddqq", q.n, alpha, IDENTITY_CONFIDENCE, budget, trials))
    h.update(struct.pack("<q", STATISTIC_VERSION))
    return h.hexdigest()


def one_shot_calibration(q, alpha, trials, rng):
    """Reference calibration: every null row in one unblocked draw over the
    support of q's ascending-sorted masses."""
    probs = np.sort(q.probs)
    means = identity_budget(q.n, alpha) * probs[probs > 0.0]
    counts = rng.poisson(means, size=(trials, means.size))
    stats = (((counts - means) ** 2 - counts) / means).sum(axis=1)
    se = math.sqrt(IDENTITY_CONFIDENCE * (1.0 - IDENTITY_CONFIDENCE) / trials)
    level = min(0.995, IDENTITY_CONFIDENCE + 2.5 * se)
    return float(np.nextafter(np.quantile(stats, level, method="higher"), math.inf))


@pytest.mark.parametrize("trials", [100, 257, 2000])
@pytest.mark.parametrize("probs", [[1.0] * 64, [0.5, 0.0, 0.25, 0.0, 0.25]])
def test_blocked_calibration_equals_one_shot(monkeypatch, trials, probs):
    # the threshold is a one-shot null quantile seeded from the documented
    # key, at any block size
    q = make_distribution(probs)
    key = documented_key(q, 0.3, trials)
    reference = one_shot_calibration(q, 0.3, trials, np.random.default_rng(int(key[:16], 16)))
    for block in (1, 7, 4096):
        monkeypatch.setattr(fullinfo, "_CALIBRATION_BLOCK", block)
        monkeypatch.setattr(fullinfo, "_CALIBRATED", {})
        assert identity_threshold(q, 0.3, trials) == reference
        assert fullinfo._CALIBRATED == {key: reference}


def test_identity_test_requires_calibration(monkeypatch):
    # a threshold that is not finite is refused before it is stored, and the
    # identity stage refuses to sample without one
    def not_finite(q, counts, rate):
        return np.full(len(counts), math.nan)

    monkeypatch.setattr(fullinfo, "identity_statistic", not_finite)
    monkeypatch.setattr(fullinfo, "_CALIBRATED", {})
    with pytest.raises(ValueError, match="^identity threshold is not finite$"):
        identity_threshold(UNIFORM2, 0.3)
    mech = randomized_response(0.25)
    with pytest.raises(ValueError, match="^identity threshold is not finite$"):
        adp_test_fi(mech, SideInfo(*mech.truth), math.log(3.0), 0.0, 0.3,
                    np.random.default_rng(0))
    assert mech.query_counter == [0, 0]
    assert fullinfo._CALIBRATED == {}


def test_cache_is_deterministic_and_persistent(monkeypatch):
    calls = counted_calibrations(monkeypatch)
    first = identity_threshold(UNIFORM2, 0.4)
    second = identity_threshold(UNIFORM2, 0.4)
    assert first == second
    # an emptied table recomputes the same value: the RNG is seeded from the key
    fullinfo._CALIBRATED.clear()
    third = identity_threshold(UNIFORM2, 0.4)
    assert third == first
    assert len(calls) == 2
    # different trial count, different key
    fourth = identity_threshold(UNIFORM2, 0.4, 4000)
    assert fourth != first


class RecordingTable(dict):
    """A threshold table that records the key of every threshold stored in
    it: identity_threshold stores once per calibration, on a miss."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def counted_calibrations(monkeypatch):
    """The keys calibrated by identity_threshold, starting from an empty
    process-wide threshold table."""
    table = RecordingTable()
    monkeypatch.setattr(fullinfo, "_CALIBRATED", table)
    return table.stored


@pytest.mark.parametrize("claim_first", [True, False])
def test_cache_calibrates_a_claim_and_its_permutation_once(monkeypatch, claim_first):
    calls = counted_calibrations(monkeypatch)
    q = make_distribution([0.05, 0.6, 0.15, 0.2])
    permuted = make_distribution(q.probs[[2, 0, 3, 1]])
    first, second = (q, permuted) if claim_first else (permuted, q)
    threshold = identity_threshold(first, 0.3, 500)
    assert identity_threshold(second, 0.3, 500) == threshold
    assert calls == [documented_key(q, 0.3, 500)]
    # one table entry serves the pair
    assert list(fullinfo._CALIBRATED.values()) == [threshold]


def test_adp_fi_on_a_mirrored_ladder_calibrates_once(monkeypatch):
    # database 1 of the ladder is database 0 reversed: one null law for both
    calls = counted_calibrations(monkeypatch)
    out = run_experiment(
        ExperimentConfig(
            tester={"kind": "adp-fi", "eps": 0.5, "delta": 0.0, "alpha": 0.3},
            target={
                "mechanism": {"mechanism": "truncated_geometric", "eps": 0.5, "n": 64},
                "side": "truth",
            },
            trials=3,
        )
    )
    assert out.grid[0].mean_queries > 0
    assert len(calls) == 1


@pytest.mark.parametrize("eps", [0.37, 0.32])
def test_adp_fi_on_a_mirrored_ladder_calibrates_once_at_any_eps(monkeypatch, eps):
    # at eps 0.32, normalizing each database by its own sum leaves them
    # mirror images only up to the last bits, which costs a second key
    calls = counted_calibrations(monkeypatch)
    run_experiment(
        ExperimentConfig(
            tester={"kind": "adp-fi", "eps": eps, "delta": 0.0, "alpha": 0.3},
            target={
                "mechanism": {"mechanism": "truncated_geometric", "eps": eps, "n": 64},
                "side": "truth",
            },
            trials=3,
        )
    )
    assert len(calls) == 1


LADDER_FI = {
    "tester": {"kind": "adp-fi", "eps": 0.5, "delta": 0.0, "alpha": 0.3},
    "target": {
        "mechanism": {"mechanism": "truncated_geometric", "eps": 0.5, "n": 64},
        "side": "truth",
    },
    "trials": 3,
    "seed": 4,
}


def test_sweep_over_the_claimed_delta_calibrates_once(tmp_path, monkeypatch):
    # delta is not in the threshold key: every experiment of the sweep shares it
    calls = counted_calibrations(monkeypatch)
    deltas = [0.0, 0.05, 0.1]
    rows = [oc.grid[0] for oc in sweep(ExperimentConfig(**LADDER_FI), "tester.delta", deltas)]
    assert len(calls) == 1

    def run(delta, name, cold):
        if cold:
            fullinfo._CALIBRATED.clear()
        tester = dict(LADDER_FI["tester"], delta=delta)
        out = tmp_path / name
        row = run_experiment(ExperimentConfig(**dict(LADDER_FI, tester=tester), out=out)).grid[0]
        return row, out.read_bytes()

    for delta, row in zip(deltas, rows):
        cold_row, cold_csv = run(delta, f"cold-{delta}.csv", cold=True)
        warm_row, warm_csv = run(delta, f"warm-{delta}.csv", cold=False)
        assert row == cold_row == warm_row
        assert warm_csv == cold_csv
    # one calibration per emptied table, none for the warm runs
    assert len(calls) == 1 + len(deltas)


def test_adp_fi_without_a_cache_calibrates_a_claim_once(monkeypatch):
    calls = counted_calibrations(monkeypatch)
    mech = randomized_response(0.25)
    side = SideInfo(*mech.truth)
    outcomes = [
        adp_test_fi(mech, side, math.log(3.0), 0.0, 0.3, np.random.default_rng(seed))
        for seed in (1, 2)
    ]
    assert len(calls) == 1
    thresholds = {outcome.diagnostics["identity_thresholds"] for outcome in outcomes}
    assert len(thresholds) == 1


@pytest.mark.parametrize("probs", [[0.05, 0.6, 0.15, 0.2], [0.2, 0.15, 0.6, 0.05]])
def test_sorted_threshold_keeps_null_acceptance_of_an_unsorted_claim(probs):
    # thresholds are simulated in sorted bin order; score nulls in q's own order
    q = make_distribution(probs)
    budget = identity_budget(q.n, 0.3)
    threshold = identity_threshold(q, 0.3)
    counts = np.random.default_rng(7).poisson(budget * q.probs, size=(4000, q.n))
    accepted = identity_statistic(q, counts, budget) < threshold
    assert accepted.mean() >= IDENTITY_CONFIDENCE - 0.05


def per_rep_adp_fi(mech, side, alpha, rng, reps):
    """Reference identity stage of adp_test_fi: one histogram and test per rep."""
    budget = identity_budget(mech.n, alpha)
    fractions, thresholds = [], []
    for db, q in ((0, side.q0), (1, side.q1)):
        threshold = identity_threshold(q, alpha)
        rejections = 0
        for _ in range(reps):
            counts = mech.draw(db, int(rng.poisson(budget)))
            rejections += bool(identity_statistic(q, counts, budget) >= threshold)
        fractions.append(rejections / reps)
        thresholds.append(threshold)
    return tuple(fractions), tuple(thresholds), tuple(mech.query_counter)


@pytest.mark.parametrize(
    "box, claim, eps, delta, alpha, reps",
    [
        # wide geometric ladder, truthful claim
        ("geometric", "truth", 0.5, 0.0, 0.3, SUBTEST_REPS),
        # zero-mass bins in both claimed distributions
        ("leaky", "truth", 0.0, 0.05, 0.2, SUBTEST_REPS),
        # db 1 emits an outcome its claim gives zero mass: infinite statistics
        ("leaky", "db0-twice", 0.0, 0.05, 0.2, SUBTEST_REPS),
        # box contradicts the claim on db 1 with a borderline budget
        ("flat", "rr", math.log(3.0), 0.0, 0.15, SUBTEST_REPS),
    ],
)
def test_adp_fi_equals_per_rep_loop(box, claim, eps, delta, alpha, reps):
    def make_box(seed):
        if box == "geometric":
            return truncated_geometric(0.5, 256, seed=seed)
        if box == "leaky":
            return leaky_mechanism(0.05, n=5, seed=seed)
        return MechanismPair(
            *mechanism_from_config(
                {
                    "mechanism": "explicit",
                    "p0": {"n": 2, "probs": [0.7, 0.3]},
                    "p1": {"n": 2, "probs": [0.6, 0.4]},
                }
            ).truth,
            seed=seed,
        )

    truth = make_box(0).truth
    side = {
        "truth": SideInfo(*truth),
        "db0-twice": SideInfo(truth[0], truth[0]),
        "rr": SideInfo(*randomized_response(0.25).truth),
    }[claim]
    for seed in range(3):
        mech = make_box(seed)
        out = adp_test_fi(mech, side, eps, delta, alpha, np.random.default_rng(seed))
        fractions, thresholds, queries = per_rep_adp_fi(
            make_box(seed), side, alpha, np.random.default_rng(seed), reps
        )
        assert out.diagnostics["rejection_fractions"] == fractions
        assert out.diagnostics["identity_thresholds"] == thresholds
        assert out.statistic == max(fractions)
        assert out.verdict is (Verdict.ACCEPT if max(fractions) < 0.5 else Verdict.REJECT)
        assert out.queries_used == queries == tuple(mech.query_counter)


def test_adp_fi_exact_check_rejects_without_sampling():
    # claimed pair already has slack 0.5 > delta at eps = 0
    mech = leaky_mechanism(0.5, seed=0)
    side = SideInfo(*mech.truth)
    out = adp_test_fi(mech, side, 0.0, 0.1, 0.2, np.random.default_rng(0))
    assert out.verdict is Verdict.REJECT
    assert out.queries_used == (0, 0)
    assert mech.query_counter == [0, 0]
    assert out.statistic == pytest.approx(0.5)


def test_adp_fi_accepts_truthful_claim():
    mech = randomized_response(0.25, seed=1)
    side = SideInfo(*mech.truth)
    out = adp_test_fi(mech, side, math.log(3.0), 0.0, 0.3, np.random.default_rng(2))
    assert out.verdict is Verdict.ACCEPT
    assert out.diagnostics["reps"] == SUBTEST_REPS
    assert sum(out.queries_used) == sum(mech.query_counter)


def test_adp_fi_rejects_box_that_contradicts_claim():
    # claim says randomized response, box is far from it on db 1
    mech = MechanismPair(
        *mechanism_from_config(
            {
                "mechanism": "explicit",
                "p0": {"n": 2, "probs": [0.75, 0.25]},
                "p1": {"n": 2, "probs": [0.75, 0.25]},
            }
        ).truth,
        seed=3,
    )
    claimed = randomized_response(0.25)
    side = SideInfo(*claimed.truth)
    out = adp_test_fi(mech, side, math.log(3.0), 0.0, 0.1, np.random.default_rng(4))
    assert out.verdict is Verdict.REJECT
    assert out.diagnostics["rejection_fractions"][1] > 0.5


def test_adp_fi_validation():
    mech = randomized_response(0.25)
    side = SideInfo(make_distribution([1, 1, 1]), make_distribution([1, 1, 1]))
    with pytest.raises(ValueError):
        adp_test_fi(mech, side, 0.0, 0.0, 0.1, np.random.default_rng(0))


def test_fi_pdp_config():
    mech = randomized_response(0.25)
    side = SideInfo(*mech.truth)
    out = pdp_test_fi(mech, side, 1.0, 0.5, np.random.default_rng(0))
    # ln(n) / (alpha^2 beta^2), beta the smallest claimed probability 0.25
    assert out.diagnostics["rate"] == pytest.approx(math.log(2) / (0.5**2 * 0.25**2))
    with pytest.raises(ValueError, match="eps"):
        pdp_test_fi(mech, side, -1.0, 0.5, np.random.default_rng(0))
    zero = SideInfo(make_distribution([1.0, 0.0]), make_distribution([1, 1]))
    with pytest.raises(ValueError, match="positive mass"):
        # a claimed distribution with a zero entry has no usable beta
        pdp_test_fi(mech, zero, 1.0, 0.5, np.random.default_rng(0))


def test_fi_pdp_accepts_honest_randomized_response():
    mech = randomized_response(0.25, seed=7)
    side = SideInfo(*mech.truth)
    out = pdp_test_fi(mech, side, math.log(3.0), 0.1, np.random.default_rng(8))
    assert out.verdict is Verdict.ACCEPT
    assert out.statistic <= math.log(3.0) + 0.2
    assert out.queries_used == out.diagnostics["r"]


def test_fi_pdp_rejects_off_claim_frequencies():
    # the box emits a much flatter distribution than claimed
    mech = MechanismPair(
        *mechanism_from_config(
            {
                "mechanism": "explicit",
                "p0": {"n": 2, "probs": [0.5, 0.5]},
                "p1": {"n": 2, "probs": [0.5, 0.5]},
            }
        ).truth,
        seed=9,
    )
    claimed = randomized_response(0.25)
    side = SideInfo(*claimed.truth)
    out = pdp_test_fi(mech, side, math.log(3.0), 0.1, np.random.default_rng(10))
    assert out.verdict is Verdict.REJECT
    assert not out.diagnostics["bands_ok"]


def test_fi_pdp_zero_count_means_infinite_estimate():
    # db outputs never hit outcome 1, so the plug-in ratio is infinite
    mech = MechanismPair(
        *mechanism_from_config(
            {
                "mechanism": "explicit",
                "p0": {"n": 2, "probs": [1.0, 0.0]},
                "p1": {"n": 2, "probs": [1.0, 0.0]},
            }
        ).truth,
        seed=11,
    )
    side = SideInfo(*randomized_response(0.25).truth)
    out = pdp_test_fi(mech, side, math.log(3.0), 0.1, np.random.default_rng(12))
    assert out.statistic == math.inf
    assert out.verdict is Verdict.REJECT


def test_fi_pdp_validation():
    mech = randomized_response(0.25)
    side = SideInfo(make_distribution([1, 1, 1]), make_distribution([1, 1, 1]))
    with pytest.raises(ValueError, match="universe"):
        pdp_test_fi(mech, side, 1.0, 0.1, np.random.default_rng(0))
