"""Experiment harness: determinism, CSV export, Wilson intervals, sweeps."""

import math

import numpy as np
import pytest

from dpaudit import (
    ExperimentConfig,
    OperatingCharacteristic,
    run_experiment,
    sweep,
    wilson_interval,
)

RR_TARGET = {"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25}}
NI_TESTER = {"kind": "adp-ni", "eps": math.log(3.0), "delta": 0.0, "alpha": 0.3}


def test_wilson_interval_values():
    low, high = wilson_interval(120, 200)
    # standard two-sided 95% Wilson score for 120/200
    assert low == pytest.approx(0.53083672039262, abs=1e-12)
    assert high == pytest.approx(0.6653942143319266, abs=1e-12)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_wilson_interval_takes_whole_counts():
    for successes, trials in ((0.5, 2), (True, 2), (1, math.inf), (1, 2.5), (1, math.nan)):
        with pytest.raises(ValueError, match="must be an integer"):
            wilson_interval(successes, trials)
    assert wilson_interval(1.0, 2.0) == wilson_interval(1, 2)


def test_wilson_interval_endpoints_stay_in_unit_interval():
    # by the formula alone, 1068 of these bounds fell outside [0, 1] by
    # rounding (wilson_interval(11, 11)[1] == 1.0000000000000002) and others
    # missed the exact endpoint (wilson_interval(0, 7)[0] == 3.58e-17)
    for n in range(1, 3001):
        assert wilson_interval(0, n)[0] == 0.0, n
        assert wilson_interval(n, n)[1] == 1.0, n
        for k in (0, 1, n // 2, n - 1, n):
            low, high = wilson_interval(k, n)
            assert 0.0 <= low <= k / n <= high <= 1.0, (k, n)
    assert wilson_interval(11, 11)[1] == 1.0
    assert wilson_interval(0, 7)[0] == 0.0


def test_wilson_interval_brackets_noisier_rates():
    # interval always contains the point estimate
    for k, n in [(1, 7), (33, 100), (199, 200)]:
        low, high = wilson_interval(k, n)
        assert low < k / n < high


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(tester=NI_TESTER, target=RR_TARGET, trials=0)
    # trials and seed pass the package's one integer check
    for field, bad in (("trials", True), ("trials", 2.5), ("trials", "2"), ("seed", False)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ExperimentConfig(tester=NI_TESTER, target=RR_TARGET, **{"trials": 1, field: bad})
    cfg = ExperimentConfig(tester=NI_TESTER, target=RR_TARGET, trials=2.0, seed=np.int64(3))
    assert (cfg.trials, cfg.seed) == (2, 3)
    assert type(cfg.trials) is int and type(cfg.seed) is int
    with pytest.raises(ValueError):
        ExperimentConfig(tester={"kind": "bogus"}, target=RR_TARGET, trials=1)


def test_run_experiment_accepts_truthful_claim():
    cfg = ExperimentConfig(tester=NI_TESTER, target=RR_TARGET, trials=8, seed=1)
    oc = run_experiment(cfg)
    assert isinstance(oc, OperatingCharacteristic)
    (row,) = oc.grid
    assert row.distance == pytest.approx(0.0, abs=1e-12)
    assert row.accept_rate == 1.0
    assert row.mean_queries > 0
    assert row.wilson_low < 1.0 <= row.wilson_high


def test_distance_from_claim_reflects_violation():
    tester = {"kind": "adp-ni", "eps": 0.0, "delta": 0.05, "alpha": 0.2}
    target = {"mechanism": {"mechanism": "leaky_mechanism", "delta": 0.3}}
    cfg = ExperimentConfig(tester=tester, target=target, trials=4, seed=0)
    (row,) = run_experiment(cfg).grid
    assert row.distance == pytest.approx(0.25, abs=1e-12)  # 0.3 - 0.05


def test_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = ExperimentConfig(
            tester=NI_TESTER, target=RR_TARGET, trials=6, seed=7, out=str(out)
        )
        run_experiment(cfg)
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "trial,verdict,statistic,threshold,queries_0,queries_1"


@pytest.mark.parametrize(
    "tester, side",
    [
        (NI_TESTER, None),
        ({"kind": "pdp-fi", "eps": math.log(3.0), "alpha": 0.3}, "truth"),
        ({"kind": "adp-fi", "eps": math.log(3.0), "alpha": 0.3}, "truth"),
    ],
)
def test_tester_documents_ignore_rate_and_direction_keys(tmp_path, tester, side):
    # the testers always sample at their formula rates, test both
    # directions and run SUBTEST_REPS identity reps at the full-information
    # level; such keys are ignored like any other unknown key
    target = RR_TARGET if side is None else dict(RR_TARGET, side=side)
    csvs = []
    for extra in ({}, {"lambda_rate": 5.0, "both_directions": False, "reps": 3}):
        out = tmp_path / f"{len(csvs)}.csv"
        cfg = ExperimentConfig(dict(tester, **extra), target, trials=4, seed=3, out=str(out))
        run_experiment(cfg)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize(
    "kind, key, value",
    [("adp-budgeted", "r", 40), ("adp-fi", "calibration_trials", 250)],
)
def test_integer_tester_keys_are_not_truncated(kind, key, value):
    tester = {"kind": kind, "eps": 1.1, "alpha": 0.3}
    target = dict(RR_TARGET, side="truth")
    with pytest.raises(ValueError, match=f"must be an integer; got {value + 0.5}"):
        cfg = ExperimentConfig(dict(tester, **{key: value + 0.5}), target, trials=1)
        run_experiment(cfg)
    for whole in (value, float(value)):
        cfg = ExperimentConfig(dict(tester, **{key: whole}), target, trials=1)
        assert run_experiment(cfg).grid[0].mean_queries > 0


def test_seed_changes_trial_outcomes(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    tester = {"kind": "adp-budgeted", "eps": 0.0, "delta": 0.0, "alpha": 0.05, "r": 40}
    run_experiment(
        ExperimentConfig(tester=tester, target=RR_TARGET, trials=5, seed=1, out=str(out1))
    )
    run_experiment(
        ExperimentConfig(tester=tester, target=RR_TARGET, trials=5, seed=2, out=str(out2))
    )
    assert out1.read_bytes() != out2.read_bytes()


def test_fixture_target_with_claimed_side():
    tester = {"kind": "pdp-fi", "eps": 0.5, "alpha": 0.05}
    target = {
        "fixture": {
            "name": "fi-pdp",
            "params": {"eps": 0.5, "alpha": 0.2, "beta": 0.1},
            "instance": "private",
        },
        "side": "claim",
    }
    cfg = ExperimentConfig(tester=tester, target=target, trials=3, seed=5)
    (row,) = run_experiment(cfg).grid
    assert row.distance == pytest.approx(0.0, abs=1e-12)


def test_fixture_far_instance_distance():
    tester = {"kind": "adp-budgeted", "eps": 0.1, "delta": 0.05, "alpha": 0.1, "r": 100}
    target = {
        "fixture": {
            "name": "adp-twopoint",
            "params": {"eps": 0.1, "delta": 0.05, "alpha": 0.1},
            "instance": "far",
        }
    }
    cfg = ExperimentConfig(tester=tester, target=target, trials=2, seed=0)
    (row,) = run_experiment(cfg).grid
    # two-sided slack of the far pair, frozen by the exact oracle,
    # minus the claimed delta
    assert row.distance == pytest.approx(0.1713060987157845 - 0.05, abs=1e-12)


def test_side_claim_requires_fixture_with_side_info():
    tester = {"kind": "adp-fi", "eps": 0.0, "delta": 0.0, "alpha": 0.3}
    cfg = ExperimentConfig(
        tester=tester, target={**RR_TARGET, "side": "claim"}, trials=1
    )
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_target_names_exactly_one_of_mechanism_and_fixture():
    fixture = {"name": "adp-twopoint", "params": {"eps": 0.0, "delta": 0.1, "alpha": 0.3},
               "instance": "far"}
    cfg = ExperimentConfig(
        tester={"kind": "adp-ni", "eps": 0.0, "delta": 0.1, "alpha": 0.3},
        target={**RR_TARGET, "fixture": fixture},
        trials=1,
    )
    with pytest.raises(ValueError, match="exactly one of a 'mechanism' and a 'fixture'"):
        run_experiment(cfg)


def test_full_info_testers_require_side():
    cfg = ExperimentConfig(
        tester={"kind": "adp-fi", "eps": 0.0, "delta": 0.0, "alpha": 0.3},
        target=RR_TARGET,
        trials=1,
    )
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_side_truth_resolves_to_mechanism_truth():
    tester = {"kind": "adp-fi", "eps": math.log(3.0), "delta": 0.0, "alpha": 0.3}
    cfg = ExperimentConfig(
        tester=tester, target={**RR_TARGET, "side": "truth"}, trials=2, seed=11
    )
    (row,) = run_experiment(cfg).grid
    assert row.accept_rate == 1.0


def test_side_document_resolves():
    side_doc = {
        "q0": {"n": 2, "probs": [0.75, 0.25]},
        "q1": {"n": 2, "probs": [0.25, 0.75]},
    }
    tester = {"kind": "pdp-fi", "eps": math.log(3.0), "alpha": 0.1}
    cfg = ExperimentConfig(
        tester=tester, target={**RR_TARGET, "side": side_doc}, trials=2, seed=13
    )
    (row,) = run_experiment(cfg).grid
    assert row.accept_rate == 1.0


def test_sweep_over_tester_parameter():
    base = ExperimentConfig(tester=NI_TESTER, target=RR_TARGET, trials=3, seed=2)
    results = sweep(base, "tester.alpha", [0.4, 0.3])
    assert len(results) == 2
    # base config is untouched
    assert base.tester["alpha"] == 0.3
    # smaller alpha costs more samples
    assert results[1].grid[0].mean_queries > results[0].grid[0].mean_queries


def test_sweep_over_dataclass_field():
    base = ExperimentConfig(tester=NI_TESTER, target=RR_TARGET, trials=2, seed=2)
    results = sweep(base, "trials", [2, 4])
    assert len(results) == 2


def test_sweep_unknown_parameter():
    base = ExperimentConfig(tester=NI_TESTER, target=RR_TARGET, trials=2)
    with pytest.raises(ValueError, match="unknown parameter"):
        sweep(base, "tester.bogus", [1])
    with pytest.raises(ValueError, match="unknown parameter"):
        sweep(base, "bogus", [1])
    with pytest.raises(ValueError, match="unknown parameter"):
        sweep(base, "target.fixture.params.n", [3])  # target has no fixture entry


def test_sweep_empty_values():
    base = ExperimentConfig(tester=NI_TESTER, target=RR_TARGET, trials=2)
    assert sweep(base, "tester.alpha", []) == []
