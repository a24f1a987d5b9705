"""End-to-end acceptance runs for the package's headline guarantees.

Each test exercises one guarantee at full scale: exact oracles against
brute force, operating characteristics of every tester on certified
hard instances, the robustness and tightness of the slack bound under
perturbation, the random-privacy reduction, and identity-test
calibration across universe sizes. Every run is seeded, so results are
reproducible; each test prints a one-line verdict with its headline
numbers.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from dpaudit import (
    CalibrationCache,
    ExperimentConfig,
    MechanismPair,
    SideInfo,
    adp_test_budgeted,
    adp_twopoint_fixture,
    amplification_reps,
    brute_force_delta,
    constant_family,
    counts_tester,
    data_distribution,
    delta_at_epsilon,
    distinguish,
    identity_budget,
    identity_statistic,
    leaky_mechanism,
    make_distribution,
    noinfo_rate,
    pdp_test_fi,
    pdp_unverifiable_fixture,
    random_privacy_test,
    run_experiment,
    tight_perturbation,
    trial_count,
    truncated_geometric,
    value_flag_family,
)

import exact_oc


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _run(tester: dict, target: dict, trials: int, seed: int):
    cfg = ExperimentConfig(tester=tester, target=target, trials=trials, seed=seed)
    return run_experiment(cfg).grid[0]


def _twopoint_target(instance: str) -> dict:
    return {
        "fixture": {
            "name": "adp-twopoint",
            "params": {"eps": 0.1, "delta": 0.05, "alpha": 0.1},
            "instance": instance,
        }
    }


def test_criterion_01_exact_slack_matches_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(20260816)
    eps_grid = (0.0, 0.1, 1.0)
    worst = 0.0
    for case in range(1000):
        n = 2 + case % 9
        p = make_distribution(rng.random(n) + 1e-9)
        q = make_distribution(rng.random(n) + 1e-9)
        eps = eps_grid[case % 3]
        worst = max(worst, abs(delta_at_epsilon(p, q, eps) - brute_force_delta(p, q, eps)))
    elapsed = time.perf_counter() - started
    _report(
        1,
        worst <= 1e-12 and elapsed < 30.0,
        f"worst gap {worst:.3e} over 1000 pairs in {elapsed:.2f}s",
    )


def test_criterion_02_no_info_tester_separates_twopoint_fixture():
    started = time.perf_counter()
    tester = {"kind": "adp-budgeted", "eps": 0.1, "delta": 0.05, "alpha": 0.05, "r": 15791}
    private = _run(tester, _twopoint_target("private"), trials=200, seed=42)
    far = _run(tester, _twopoint_target("far"), trials=200, seed=42)
    reject_rate = 1.0 - far.accept_rate
    reject_low = 1.0 - far.wilson_high
    elapsed = time.perf_counter() - started
    _report(
        2,
        private.accept_rate >= 0.60
        and private.wilson_low > 0.55
        and reject_rate >= 0.60
        and reject_low > 0.55
        and elapsed < 300.0,
        f"accept(private)={private.accept_rate:.3f} "
        f"reject(far)={reject_rate:.3f} in {elapsed:.1f}s",
    )


CLAIMS = [(0.0, 0.05, 0.3), (0.1, 0.05, 0.05), (math.log(3.0), 0.0, 0.1), (2.0, 0.2, 0.01)]


@pytest.mark.parametrize("r", [1, 7, 40])
def test_exact_decision_is_the_counts_testers(r):
    x, y = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
    for eps, delta, alpha in CLAIMS:
        tester = counts_tester(eps, delta, alpha)
        expected = [
            [tester([i, r - i], [j, r - j], r).accepted for j in range(r + 1)]
            for i in range(r + 1)
        ]
        assert np.array_equal(exact_oc.accepts(x, y, r, eps, delta, alpha), expected)


def test_criterion_02_exact_operating_characteristic():
    # criterion 02's fixture and claim, without sampling error
    fixture = adp_twopoint_fixture(0.1, 0.05, 0.1)
    claim = (15791, 0.1, 0.05, 0.05)
    assert exact_oc.acceptance(*fixture.private_instance, *claim) >= 2 / 3
    assert 1.0 - exact_oc.acceptance(*fixture.far_instance, *claim) >= 2 / 3


@pytest.mark.xfail(
    strict=True,
    reason="known defect: at distance exactly alpha the far statistic sits on the threshold",
)
def test_noinfo_rejects_far_twopoint_at_distance_alpha():
    fixture = adp_twopoint_fixture(0.0, 0.05, 0.3)
    r = math.ceil(noinfo_rate(2, 0.0, 0.3))  # 356
    # exact acceptance is 0.4952 against the promised 1/3 or less
    assert exact_oc.acceptance(*fixture.far_instance, r, 0.0, 0.05, 0.3) <= 1 / 3


def test_criterion_03_full_info_adp_tester_and_budget_scaling():
    rr = {"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25}}
    tester = {"kind": "adp-fi", "eps": math.log(3.0), "delta": 0.0, "alpha": 0.15}
    truthful = _run(tester, {**rr, "side": "truth"}, trials=200, seed=7)

    # the box's first database drifts to TV 0.3 from the still-claimed
    # randomized-response behavior
    perturbed_target = {
        "mechanism": {
            "mechanism": "explicit",
            "p0": {"n": 2, "probs": [0.45, 0.55]},
            "p1": {"n": 2, "probs": [0.25, 0.75]},
        },
        "side": {
            "q0": {"n": 2, "probs": [0.75, 0.25]},
            "q1": {"n": 2, "probs": [0.25, 0.75]},
        },
    }
    perturbed = _run(tester, perturbed_target, trials=200, seed=7)

    sizes = [4, 16, 64, 256]
    queries = []
    for n in sizes:
        target = {
            "mechanism": {"mechanism": "truncated_geometric", "eps": 0.5, "n": n},
            "side": "truth",
        }
        row = _run(
            {"kind": "adp-fi", "eps": 0.5, "delta": 0.0, "alpha": 0.3},
            target,
            trials=2,
            seed=1,
        )
        queries.append(row.mean_queries)
    slope = float(np.polyfit(np.log(sizes), np.log(queries), 1)[0])

    _report(
        3,
        truthful.accept_rate >= 0.60
        and (1.0 - perturbed.accept_rate) >= 0.60
        and abs(slope - 0.5) <= 0.1,
        f"accept={truthful.accept_rate:.3f} "
        f"reject={1.0 - perturbed.accept_rate:.3f} slope={slope:.3f}",
    )


def test_criterion_04_full_info_pdp_tester_and_sandwich():
    tester = {"kind": "pdp-fi", "eps": 0.5, "alpha": 0.02}

    def fi_pdp_target(instance: str) -> dict:
        return {
            "fixture": {
                "name": "fi-pdp",
                "params": {"eps": 0.5, "alpha": 0.2, "beta": 0.1},
                "instance": instance,
            },
            "side": "claim",
        }

    private = _run(tester, fi_pdp_target("private"), trials=100, seed=11)
    far = _run(tester, fi_pdp_target("far"), trials=100, seed=11)

    # sandwich: truthful geometric boxes across a ladder of true eps;
    # accepted boxes must essentially never exceed eps0 + 10 alpha
    zoo = [0.3, 0.4, 0.45, 0.5, 0.7, 0.9, 1.1, 1.3, 1.6, 2.0]
    eps0, alpha_t = 0.5, 0.05
    rng = np.random.default_rng(2025)
    accepted_true_eps = []
    for true_eps in zoo:
        base = truncated_geometric(true_eps, 4)
        for _ in range(20):
            mech = MechanismPair(*base.truth, seed=int(rng.integers(2**63)))
            side = SideInfo(*mech.truth)
            if pdp_test_fi(mech, side, eps0, alpha_t, rng).accepted:
                accepted_true_eps.append(true_eps)
    accepts = len(accepted_true_eps)
    bad = sum(1 for e in accepted_true_eps if e > eps0 + 10.0 * alpha_t)
    bad_fraction = bad / accepts if accepts else 0.0

    _report(
        4,
        private.accept_rate >= 0.60
        and (1.0 - far.accept_rate) >= 0.60
        and accepts >= 40
        and bad_fraction <= 1.0 / 3.0,
        f"accept={private.accept_rate:.3f} reject={1.0 - far.accept_rate:.3f} "
        f"zoo accepts={accepts} over-claim fraction={bad_fraction:.3f}",
    )


def test_criterion_05_verification_implies_distinguishing():
    fixture = adp_twopoint_fixture(0.1, 0.05, 0.1)
    tester = counts_tester(0.1, 0.05, 0.05)
    r = 15791
    rates = []
    for source_db in (0, 1):
        correct = 0
        for trial in range(200):
            mech = MechanismPair(*fixture.far_instance, seed=1000 * source_db + trial + 1)
            unknown = mech.draw(source_db, r)
            correct += distinguish(tester, mech, unknown) == source_db
        rates.append(correct / 200)
    _report(
        5,
        min(rates) >= 0.60,
        f"correct guess rates db0={rates[0]:.3f} db1={rates[1]:.3f}",
    )


def test_criterion_06_unverifiable_instances_stay_silent():
    r = 10_000
    big = math.log(100 * r)
    fixture = pdp_unverifiable_fixture(0.5, 0.2, big)
    # the far instance genuinely violates the claim by far more than alpha
    gap = fixture.certification["eps_far"] - fixture.certification["eps_private"]
    assert gap > 0.2

    p1 = fixture.private_instance[1]
    q1 = fixture.far_instance[1]
    silent = 0
    for trial in range(500):
        rng = np.random.default_rng([0, trial])
        a = rng.multinomial(r, p1.probs)
        b = rng.multinomial(r, q1.probs)
        silent += int(a[0] == 0 and b[0] == 0)
    fraction = silent / 500
    _report(
        6,
        fraction >= 0.98,
        f"rare outcome absent from both second-database samples in "
        f"{fraction:.3f} of trials at r={r}",
    )


def test_criterion_07_slack_is_robust_and_the_bound_is_tight():
    eps_grid = (0.0, 0.2, 0.7)

    rng = np.random.default_rng(77)
    worst_excess = -math.inf
    for case in range(1000):
        n = int(rng.integers(2, 9))
        p = make_distribution(rng.random(n) + 1e-9)
        q = make_distribution(rng.random(n) + 1e-9)
        eps = eps_grid[case % 3]
        alpha = float(rng.uniform(0.01, 0.2))
        base = delta_at_epsilon(p, q, eps)

        def nudge(dist):
            probs = dist.probs.copy()
            i, j = rng.choice(n, size=2, replace=False)
            shift = min(float(rng.uniform(0.0, alpha)), probs[i])
            probs[i] -= shift
            probs[j] += shift
            return make_distribution(probs)

        moved = delta_at_epsilon(nudge(p), nudge(q), eps)
        worst_excess = max(worst_excess, moved - base - (1.0 + math.exp(eps)) * alpha)

    rng = np.random.default_rng(78)
    checked = 0
    worst_error = 0.0
    while checked < 1000:
        n = int(rng.integers(2, 9))
        p = make_distribution(rng.random(n) + 1e-9)
        q = make_distribution(rng.random(n) + 1e-9)
        eps = eps_grid[checked % 3]
        base = delta_at_epsilon(p, q, eps)
        cap = (1.0 - base) / (1.0 + math.exp(eps))
        if base <= 1e-6 or cap <= 1e-8:
            continue
        alpha = float(rng.uniform(0.05, 1.0)) * cap
        q0, q1, _report_dict = tight_perturbation(p, q, eps, alpha)
        worst_error = max(worst_error, abs(delta_at_epsilon(q0, q1, eps) - base - alpha))
        checked += 1

    _report(
        7,
        worst_excess <= 1e-9 and worst_error <= 1e-12,
        f"worst excess over (1+e^eps)alpha bound {worst_excess:.3e}; "
        f"worst tight-perturbation error {worst_error:.3e}",
    )


def test_criterion_08_random_privacy_reduction():
    leaky = leaky_mechanism(0.5)
    # flag probability chosen so neighbor pairs differ with measure
    # exactly 2 s (1 - s) = 0.3 = gamma + 2 alpha / penalty_weight
    s = (1.0 - math.sqrt(0.4)) / 2.0
    assert 2.0 * s * (1.0 - s) == 0.3

    def inner(mech, rng):
        return adp_test_budgeted(mech, 0.0, 0.05, 0.1, 4800)

    expected_queries = (27 * 54 * 4800, 27 * 54 * 4800)
    accepts = 0
    queries_exact = True
    diagnostics_ok = True
    for run in range(100):
        out = random_privacy_test(
            constant_family(leaky.truth[0]),
            data_distribution([0], db_size=1),
            inner,
            gamma=0.1,
            alpha=0.2,
            penalty_weight=2.0,
            rng=np.random.default_rng([81, run]),
        )
        accepts += out.accepted
        queries_exact &= out.queries_used == expected_queries
        diagnostics_ok &= (out.diagnostics["trials"], out.diagnostics["reps"]) == (27, 54)

    rejects = 0
    for run in range(100):
        out = random_privacy_test(
            value_flag_family({1}, leaky.truth[1], leaky.truth[0]),
            data_distribution([0, 1], [1.0 - s, s], db_size=1),
            inner,
            gamma=0.1,
            alpha=0.2,
            penalty_weight=2.0,
            rng=np.random.default_rng([82, run]),
        )
        rejects += out.rejected

    _report(
        8,
        accepts >= 60 and rejects >= 60 and queries_exact and diagnostics_ok,
        f"constant accepts {accepts}/100, flagged rejects {rejects}/100, "
        f"query count exact: {queries_exact}",
    )


def test_criterion_08_exact_operating_characteristic():
    # criterion 08's families, inner claim and sizes, without sampling error
    claim, r = (0.0, 0.05, 0.1), 4800
    s = (1.0 - math.sqrt(0.4)) / 2.0
    pairs, reps = trial_count(2.0, 0.2, 0.1), amplification_reps(2.0, 0.2)
    assert (pairs, reps) == (27, 54)
    threshold = 0.1 + 0.2 / 2.0
    # both outputs of leaky_mechanism(0.5) put 0.5 on outcome 0 and 0.5 on one
    # other outcome, so a pair of equal outputs is the two-outcome (0.5, 0.5)
    half = make_distribution([0.5, 0.5])
    identical = exact_oc.marks(1.0 - exact_oc.acceptance(half, half, r, *claim), reps)
    # a straddling pair accepts only if the share (r - a) / r of database 0's
    # samples off outcome 0 stays within delta + alpha: a >= 4080 of Bin(4800, 0.5)
    straddling = exact_oc.marks(1.0 - stats.binom.sf(4079, r, 0.5), reps)
    flagged = (1.0 - 2.0 * s * (1.0 - s)) * identical + 2.0 * s * (1.0 - s) * straddling
    reject_flagged = exact_oc.reduction_rejection(flagged, pairs, threshold)
    accept_constant = 1.0 - exact_oc.reduction_rejection(identical, pairs, threshold)
    print(f"flagged rejects {reject_flagged:.4f}, constant accepts {accept_constant:.4f}")
    assert reject_flagged >= 2 / 3 and accept_constant >= 2 / 3


def test_criterion_09_identity_calibration_grid():
    alpha = 0.15
    trials = 500
    bound = 2.0 / 3.0 - 0.02
    cache = CalibrationCache()

    def null_and_far(kind, n):
        if kind == "uniform":
            q = np.full(n, 1.0 / n)
            far = q.copy()
            far[0] += alpha
            far[1:] *= 1.0 - alpha / (1.0 - 1.0 / n)
        else:
            q = np.zeros(n)
            q[0], q[1] = 0.75, 0.25
            far = q.copy()
            far[0] += alpha
            far[1] -= alpha
        return make_distribution(q), make_distribution(far)

    def rate(q, dist, budget, threshold, rng, want_accept):
        hits = 0
        for _ in range(trials):
            r = int(rng.poisson(budget))
            counts = (
                rng.multinomial(r, dist.probs)
                if r > 0
                else np.zeros(q.n, dtype=np.int64)
            )
            accepted = identity_statistic(q, counts, budget) < threshold
            hits += accepted if want_accept else not accepted
        return hits / trials

    worst = 1.0
    for idx, (kind, n) in enumerate(
        (kind, n) for kind in ("uniform", "twopoint") for n in (2, 16, 256)
    ):
        q, far = null_and_far(kind, n)
        budget = identity_budget(n, alpha)
        threshold = cache.threshold_for(q, alpha)
        accept = rate(q, q, budget, threshold, np.random.default_rng([0, idx, 0]), True)
        reject = rate(q, far, budget, threshold, np.random.default_rng([0, idx, 1]), False)
        worst = min(worst, accept, reject)
    _report(
        9,
        worst >= bound,
        f"worst per-cell rate {worst:.4f} against bound {bound:.4f} "
        f"over 6 null/far cells",
    )
