"""End-to-end runs of the dp-audit command line through main()."""

import json
import math

import pytest

from dpaudit.cli import main


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def rr_mech(tmp_path):
    return write_json(
        tmp_path / "rr.json", {"mechanism": "randomized_response", "flip_prob": 0.25}
    )


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["test", "adp-ni", "--mech", "nope.json"]) == 1  # OSError
    capsys.readouterr()


def test_test_verb_adp_ni(capsys, rr_mech, tmp_path):
    csv_path = tmp_path / "trials.csv"
    code, cap = run(
        capsys,
        [
            "test",
            "adp-ni",
            "--mech",
            rr_mech,
            "--eps",
            repr(math.log(3.0)),
            "--alpha",
            "0.3",
            "--trials",
            "4",
            "--seed",
            "9",
            "--out",
            str(csv_path),
        ],
    )
    assert code == 0
    doc = json.loads(cap.out)
    assert doc["tester"] == "adp-ni"
    assert doc["trials"] == 4
    assert doc["distance_from_claim"] == 0.0
    assert doc["accept_rate"] == 1.0
    assert doc["wilson_95"][0] < 1.0 <= doc["wilson_95"][1]
    assert doc["csv"] == str(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,verdict,statistic,threshold,queries_0,queries_1"
    assert len(lines) == 5


def test_test_verb_missing_eps(capsys, rr_mech):
    assert main(["test", "adp-ni", "--mech", rr_mech, "--alpha", "0.3"]) == 1
    capsys.readouterr()


def test_budgeted_requires_budget(capsys, rr_mech):
    argv = ["test", "adp-budgeted", "--mech", rr_mech, "--eps", "1", "--alpha", "0.3"]
    assert main(argv) == 1
    capsys.readouterr()


def test_test_verb_fixture_target(capsys):
    code, cap = run(
        capsys,
        [
            "test",
            "adp-budgeted",
            "--fixture",
            "adp-twopoint",
            "--fixture-params",
            "eps=0.1",
            "delta=0.05",
            "alpha=0.1",
            "--instance",
            "far",
            "--eps",
            "0.1",
            "--delta",
            "0.05",
            "--alpha",
            "0.1",
            "--budget",
            "200",
            "--trials",
            "2",
        ],
    )
    assert code == 0
    doc = json.loads(cap.out)
    # two-sided slack of the far instance minus the claimed delta
    assert doc["distance_from_claim"] == pytest.approx(
        0.1713060987157845 - 0.05, abs=1e-12
    )


def test_pdp_fi_with_truth_side(capsys, rr_mech):
    code, cap = run(
        capsys,
        [
            "test",
            "pdp-fi",
            "--mech",
            rr_mech,
            "--side",
            "truth",
            "--eps",
            repr(math.log(3.0)),
            "--alpha",
            "0.3",
            "--trials",
            "3",
        ],
    )
    assert code == 0
    assert json.loads(cap.out)["accept_rate"] == 1.0


def test_random_verb(capsys, tmp_path):
    family = write_json(
        tmp_path / "family.json",
        {"kind": "constant", "dist": {"n": 2, "probs": [0.5, 0.5]}},
    )
    code, cap = run(
        capsys,
        [
            "test",
            "random",
            "--family",
            family,
            "--gamma",
            "0.1",
            "--alpha",
            "0.4",
            "--inner-alpha",
            "0.2",
            "--inner-budget",
            "400",
            "--seed",
            "1",
        ],
    )
    assert code == 0
    doc = json.loads(cap.out)
    assert doc["verdict"] == "ACCEPT"
    assert doc["statistic"] == 0.0
    assert doc["diagnostics"] == {"trials": 7, "reps": 29}
    # every trial runs reps inner tests, each drawing 400 per database
    assert doc["queries"] == [7 * 29 * 400, 7 * 29 * 400]


def test_random_verb_bad_family(capsys, tmp_path):
    family = write_json(tmp_path / "family.json", {"kind": "mystery"})
    argv = [
        "test", "random", "--family", family,
        "--alpha", "0.4", "--inner-alpha", "0.2", "--inner-budget", "100",
    ]
    assert main(argv) == 1
    capsys.readouterr()


def test_fixture_then_certify_roundtrip(capsys, tmp_path):
    fixture_path = tmp_path / "fixture.json"
    code, _ = run(
        capsys,
        [
            "fixture",
            "adp-twopoint",
            "--params",
            "eps=0.1",
            "delta=0.05",
            "alpha=0.1",
            "--seed",
            "3",
            "--out",
            str(fixture_path),
        ],
    )
    assert code == 0
    doc = json.loads(fixture_path.read_text())
    assert doc["name"] == "adp-twopoint"
    assert doc["seed"] == 3
    assert set(doc) >= {"claim", "params", "private", "far", "certification"}

    code, cap = run(capsys, ["certify", "--fixture-file", str(fixture_path)])
    assert code == 0
    cert = json.loads(cap.out)["certification"]
    assert cert["delta_two_sided_far"] == pytest.approx(0.1713060987157845, abs=1e-12)


def test_certify_rejects_tampered_fixture(capsys, tmp_path):
    fixture_path = tmp_path / "fixture.json"
    main(
        [
            "fixture",
            "adp-twopoint",
            "--params",
            "eps=0.1",
            "delta=0.05",
            "alpha=0.1",
            "--out",
            str(fixture_path),
        ]
    )
    capsys.readouterr()
    doc = json.loads(fixture_path.read_text())
    probs_doc = json.loads(doc["far"]["p1"])
    # mass-preserving nudge: still a valid distribution, no longer the fixture
    probs_doc["probs"][0] += 1e-6
    probs_doc["probs"][1] -= 1e-6
    doc["far"]["p1"] = json.dumps(probs_doc)
    fixture_path.write_text(json.dumps(doc))

    code, cap = run(capsys, ["certify", "--fixture-file", str(fixture_path)])
    assert code == 2
    assert "certification failure" in cap.err


def test_certify_by_name(capsys):
    code, cap = run(
        capsys,
        ["certify", "fi-pdp", "--params", "eps=0.5", "alpha=0.2", "beta=0.1"],
    )
    assert code == 0
    cert = json.loads(cap.out)["certification"]
    assert cert["eps_far"] == pytest.approx(0.7, abs=1e-12)


def test_certify_needs_name_or_file(capsys):
    assert main(["certify"]) == 1
    capsys.readouterr()


def test_fixture_missing_param_exits_1(capsys):
    assert main(["fixture", "adp-twopoint", "--params", "eps=0.1"]) == 1
    capsys.readouterr()


def test_fixture_integer_parameter_is_not_truncated(capsys):
    argv = ["fixture", "adp-lowfreq", "--params", "delta=0.3", "alpha=0.1"]
    code, cap = run(capsys, argv + ["n=18.5"])
    assert code == 1
    assert cap.err.startswith("error: n must be an integer; got 18.5")
    # an integral float emits what the integer does
    assert run(capsys, argv + ["n=18.0"])[1].out == run(capsys, argv + ["n=18"])[1].out


def test_calibrate_frozen_threshold(capsys, tmp_path):
    # the threshold's RNG is seeded from the cache key, so these pin its bytes
    null = write_json(tmp_path / "null.json", {"n": 4, "probs": [0.1, 0.2, 0.3, 0.4]})
    for args, budget, trials, threshold in [
        (["--n", "2", "--alpha", "0.3", "--trials", "200"], 95, 200, 0.45263157894736844),
        (["--null", "twopoint", "--n", "4", "--alpha", "0.4"], 75, 2000, 0.42222222222222233),
        (["--null", null, "--n", "4", "--alpha", "0.3"], 134, 2000, 0.7761194029850751),
    ]:
        code, cap = run(capsys, ["calibrate"] + args)
        assert code == 0
        doc = json.loads(cap.out)
        assert doc["sample_budget"] == budget
        assert doc["trials"] == trials
        assert doc["confidence"] == 2.0 / 3.0
        assert doc["threshold"] == pytest.approx(threshold, abs=1e-12)


def test_calibrate_null_file_size_mismatch(capsys, tmp_path):
    null = write_json(tmp_path / "null.json", {"n": 3, "probs": [0.5, 0.25, 0.25]})
    argv = ["calibrate", "--n", "2", "--alpha", "0.3", "--null", null, "--trials", "100"]
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--n", "0", "--alpha", "0.3"],
        ["calibrate", "--null", "twopoint", "--n", "1", "--alpha", "0.3"],
    ],
)
def test_calibrate_bad_universe_exits_1(capsys, argv):
    code, cap = run(capsys, argv)
    assert code == 1
    assert "error:" in cap.err


def test_calibrate_truncated_cache_is_rebuilt(capsys, tmp_path):
    cache = tmp_path / "f.json"
    cache.write_text('{"abc": 1.0, ')
    argv = ["calibrate", "--n", "2", "--alpha", "0.3", "--trials", "200", "--cache", str(cache)]
    with pytest.warns(UserWarning, match="calibration cache"):
        code, cap = run(capsys, argv)
    assert code == 0
    threshold = json.loads(cap.out)["threshold"]
    assert list(json.loads(cache.read_text()).values()) == [threshold]


def test_sweep_verb(capsys, tmp_path):
    config = write_json(
        tmp_path / "config.json",
        {
            "tester": {"kind": "adp-ni", "eps": math.log(3.0), "delta": 0.0, "alpha": 0.3},
            "target": {"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25}},
            "trials": 3,
            "seed": 5,
        },
    )
    out = tmp_path / "sweep.csv"
    code, _ = run(
        capsys,
        [
            "sweep",
            "--config",
            config,
            "--parameter",
            "tester.alpha",
            "--values",
            "0.4,0.3",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value,distance,accept_rate,wilson_low,wilson_high,mean_queries"
    assert len(lines) == 3
    assert lines[1].startswith("0.4,")
    assert lines[2].startswith("0.3,")
    # tighter alpha needs more samples
    assert float(lines[2].split(",")[5]) > float(lines[1].split(",")[5])


def test_sweep_unknown_parameter(capsys, tmp_path):
    config = write_json(
        tmp_path / "config.json",
        {
            "tester": {"kind": "adp-ni", "eps": 0.0, "delta": 0.0, "alpha": 0.5},
            "target": {"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25}},
        },
    )
    argv = ["sweep", "--config", config, "--parameter", "tester.bogus", "--values", "1"]
    assert main(argv) == 1
    capsys.readouterr()
