"""End-to-end runs of the dp-audit command line through main()."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dpaudit import FIXTURE_NAMES, cli, harness
from dpaudit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


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


#: argvs that each give a flag the verb or kind does not read; completed
#: with the files of test_a_flag_the_kind_does_not_read_exits_1
FOREIGN_FLAGS = [
    ["test", "adp-ni", "--mech", "MECH", "--fixture", "adp-twopoint", "--eps", "0.1",
     "--alpha", "0.3"],
    ["test", "adp-ni", "--mech", "MECH", "--eps", "0.1", "--alpha", "0.3", "--budget", "5"],
    ["test", "adp-ni", "--mech", "MECH", "--eps", "0.1", "--alpha", "0.3", "--gamma", "0.5"],
    ["test", "adp-ni", "--mech", "MECH", "--side", "truth", "--eps", "0.1", "--alpha", "0.3"],
    ["test", "pdp-fi", "--mech", "MECH", "--side", "truth", "--eps", "1.1", "--alpha", "0.3",
     "--delta", "0.3"],
    ["test", "adp-ni", "--mech", "MECH", "--instance", "far", "--eps", "0.1", "--alpha", "0.3"],
    ["test", "random", "--family", "FAMILY", "--alpha", "0.4", "--inner-alpha", "0.2",
     "--inner-budget", "50", "--trials", "3"],
    ["test", "random", "--family", "FAMILY", "--alpha", "0.4", "--inner-alpha", "0.2",
     "--inner-budget", "50", "--mech", "MECH"],
    ["certify", "fi-pdp", "--params", "eps=0.5", "alpha=0.2", "beta=0.1", "--fixture-file",
     "FIXTURE"],
    ["certify", "--fixture-file", "FIXTURE", "--params", "eps=9"],
]


@pytest.mark.parametrize("argv", FOREIGN_FLAGS, ids=[
    "mech-and-fixture", "ni-budget", "ni-gamma", "ni-side", "pdp-delta", "mech-instance",
    "random-trials", "random-mech", "certify-name-and-file", "certify-file-params"])
def test_a_flag_the_kind_does_not_read_exits_1(capsys, tmp_path, rr_mech, argv):
    files = {
        "MECH": rr_mech,
        "FAMILY": write_json(tmp_path / "family.json",
                             {"kind": "constant", "dist": {"probs": [0.5, 0.5]}}),
        "FIXTURE": str(GOLDEN / "fixture-adp-twopoint.json"),
    }
    code, cap = run(capsys, [files.get(item, item) for item in argv])
    assert (code, cap.out) == (1, "")
    assert "error: " in cap.err and "Traceback" not in cap.err


@pytest.mark.parametrize(
    "kind, own, foreign",
    [
        ("adp-budgeted", ["--mech", "--fixture", "--eps", "--delta", "--budget", "--trials"],
         ["--side", "--gamma", "--family", "--inner-budget"]),
        ("random", ["--family", "--alpha", "--gamma", "--inner-budget", "--seed", "--out"],
         ["--mech", "--eps", "--delta", "--budget", "--side", "--trials"]),
    ],
)
def test_kind_help_lists_only_its_flags(capsys, kind, own, foreign):
    code, cap = run(capsys, ["test", kind, "--help"])
    assert code == 0
    flags = set(re.findall(r"--[a-z-]+", cap.out))
    assert set(own) <= flags and not set(foreign) & flags, sorted(flags)


@pytest.mark.parametrize("kind", harness.TESTER_KINDS)
def test_a_test_document_holds_exactly_its_kinds_fields(capsys, monkeypatch, rr_mech, kind):
    # every flag the kind offers is given; its document gets the kind's
    # fields in harness._TESTERS, no more and no fewer
    offered = set(re.findall(r"--[a-z-]+", run(capsys, ["test", kind, "--help"])[1].out))
    argv = ["test", kind, "--mech", rr_mech, "--eps", "1.1", "--alpha", "0.3"]
    for flag, value in (("--delta", "0.1"), ("--budget", "40"), ("--side", "truth")):
        argv += [flag, value] if flag in offered else []
    documents = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda cfg: documents.append(cfg.tester) or harness.run_experiment(cfg))
    assert run(capsys, argv)[0] == 0
    assert set(documents[0]) == {"kind"} | set(harness._TESTERS[kind][1])


def test_test_verb_missing_eps(capsys, rr_mech):
    assert main(["test", "adp-ni", "--mech", rr_mech, "--alpha", "0.3"]) == 1
    capsys.readouterr()


def test_budgeted_requires_budget(capsys, rr_mech):
    argv = ["test", "adp-budgeted", "--mech", rr_mech, "--eps", "1", "--alpha", "0.3"]
    assert main(argv) == 1
    capsys.readouterr()


def test_budget_beyond_int64_exits_1(capsys, rr_mech):
    argv = ["test", "adp-budgeted", "--mech", rr_mech, "--eps", "0", "--alpha", "0.3",
            "--budget", "10000000000000000000"]
    code, cap = run(capsys, argv)
    assert code == 1
    assert cap.err == "error: count must lie in [0, 2**63 - 1]; got 10000000000000000000\n"


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


MEAN_SIDEINFO_TEST = ["test", "adp-ni", "--fixture", "mean-sideinfo", "--fixture-params",
                      "eps=0.3", "alpha=0.1", "A=4", "--eps", "0.3", "--alpha", "0.1"]


def test_test_verb_reads_the_fixture_base(capsys, tmp_path):
    # randomized response at flip probability 0.45 (eps = 0.20), with a
    # third outcome neither database emits, as mean-sideinfo needs
    rr = {"mechanism": "explicit", "p0": {"probs": [0.55, 0.45, 0.0]},
          "p1": {"probs": [0.45, 0.55, 0.0]}}
    code, cap = run(capsys, MEAN_SIDEINFO_TEST + ["--base", write_json(tmp_path / "rr.json", rr)])
    assert code == 0
    assert json.loads(cap.out)["distance_from_claim"] == 0.0

    code, cap = run(capsys, MEAN_SIDEINFO_TEST)
    assert code == 1
    assert cap.err.startswith("error: ") and "Traceback" not in cap.err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["test", "adp-ni", "--fixture", "mean-sideinfo", "--eps", "0.1", "--delta", "0",
          "--alpha", "0.1"], "eps"),
        (MEAN_SIDEINFO_TEST, "base"),
    ],
)
def test_missing_fixture_parameter_is_named(capsys, argv, key):
    code, cap = run(capsys, argv)
    assert code == 1
    assert cap.err.startswith("error: ") and "Traceback" not in cap.err
    assert "mean-sideinfo" in cap.err and repr(key) in cap.err


@pytest.mark.parametrize("verb", ["fixture", "sweep"])
def test_missing_mechanism_field_is_named(capsys, tmp_path, verb):
    mech = {"mechanism": "randomized_response"}
    if verb == "fixture":
        argv = ["fixture", "mean-sideinfo", "--params", "eps=0.3", "alpha=0.1", "A=4",
                "--base", write_json(tmp_path / "rr.json", mech)]
    else:
        doc = {"tester": {"kind": "adp-ni", "eps": 0.5, "alpha": 0.3},
               "target": {"mechanism": mech}}
        argv = ["sweep", "--config", write_json(tmp_path / "config.json", doc),
                "--parameter", "trials", "--values", "2"]
    code, cap = run(capsys, argv)
    assert code == 1
    assert cap.err.startswith("error: ") and "Traceback" not in cap.err
    assert "randomized_response" in cap.err and "flip_prob" in cap.err


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


CONSTANT_STDOUT = """\
{
  "diagnostics": {
    "reps": 29,
    "trials": 7
  },
  "queries": [
    81200,
    81200
  ],
  "statistic": 0.0,
  "threshold": 0.5,
  "verdict": "ACCEPT"
}
"""

VALUE_FLAG_STDOUT = """\
{
  "diagnostics": {
    "reps": 37,
    "trials": 10
  },
  "queries": [
    111000,
    111000
  ],
  "statistic": 0.4,
  "threshold": 0.3666666666666667,
  "verdict": "REJECT"
}
"""


@pytest.mark.parametrize(
    "family, args, stdout",
    [
        (
            {"kind": "constant", "dist": {"n": 2, "probs": [0.5, 0.5]}},
            ["--inner-budget", "400", "--seed", "1"],
            CONSTANT_STDOUT,
        ),
        (
            {
                "kind": "value_flag",
                "flag_prob": 0.3,
                "flagged": {"n": 3, "probs": [0.1, 0.2, 0.7]},
                "plain": {"n": 3, "probs": [0.3, 0.3, 0.4]},
            },
            ["--inner-budget", "300", "--db-size", "3", "--penalty", "1.5", "--seed", "5"],
            VALUE_FLAG_STDOUT,
        ),
    ],
    ids=["constant", "value_flag"],
)
def test_random_verb_seeded_stdout(capsys, tmp_path, family, args, stdout):
    argv = [
        "test", "random", "--family", write_json(tmp_path / "family.json", family),
        "--gamma", "0.1", "--alpha", "0.4", "--inner-alpha", "0.2", *args,
    ]
    code, cap = run(capsys, argv)
    assert (code, cap.out, cap.err) == (0, stdout, "")


def test_random_verb_bad_family(capsys, tmp_path):
    family = write_json(tmp_path / "family.json", {"kind": "mystery"})
    argv = [
        "test", "random", "--family", family,
        "--alpha", "0.4", "--inner-alpha", "0.2", "--inner-budget", "100",
    ]
    assert main(argv) == 1
    capsys.readouterr()


#: parameters of each registered fixture's golden document
FIXTURE_PARAMS = {
    "pdp-unverifiable": ["eps=0.5", "alpha=0.2", "A=3"],
    "adp-twopoint": ["eps=0.1", "delta=0.05", "alpha=0.1"],
    "adp-lowfreq": ["n=6", "delta=0.3", "alpha=0.15"],
    "fi-pdp": ["eps=0.5", "alpha=0.2", "beta=0.1"],
    "mean-sideinfo": ["eps=0.3", "alpha=0.1", "A=4"],
}
BASE = {"mechanism": "explicit", "p0": {"probs": [0.5, 0.5, 0.0]},
        "p1": {"probs": [0.6, 0.4, 0.0]}}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_then_certify_roundtrip(capsys, tmp_path, name):
    argv = ["fixture", name, "--params", *FIXTURE_PARAMS[name]]
    if name == "mean-sideinfo":
        argv += ["--base", write_json(tmp_path / "base.json", BASE)]
    code, cap = run(capsys, argv)
    assert code == 0
    golden = GOLDEN / f"fixture-{name}.json"
    assert cap.out == golden.read_text()

    code, cap = run(capsys, ["certify", "--fixture-file", str(golden)])
    assert code == 0
    certification = json.loads(golden.read_text())["certification"]
    assert json.loads(cap.out) == {"name": name, "certification": certification}


def certify_changed(capsys, tmp_path, argv, change):
    """Emit a fixture, apply ``change`` to its document, certify the file."""
    path = tmp_path / "fixture.json"
    assert main(argv + ["--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    return run(capsys, ["certify", "--fixture-file", str(path)])


TWOPOINT = ["fixture", "adp-twopoint", "--params", *FIXTURE_PARAMS["adp-twopoint"]]
FI_PDP = ["fixture", "fi-pdp", "--params", *FIXTURE_PARAMS["fi-pdp"]]
ONE_OUTCOME = json.dumps({"q0": {"probs": [1.0]}, "q1": {"probs": [1.0]}})


@pytest.mark.parametrize(
    "argv, field, change",
    [
        (TWOPOINT, "claim.delta", lambda doc: doc["claim"].update(delta=0.5)),
        (TWOPOINT, "claim.penalty_weight", lambda doc: doc["claim"].update(penalty_weight=True)),
        (TWOPOINT, "certification.delta_directed_far",
         lambda doc: doc["certification"].update(delta_directed_far=99)),
        (TWOPOINT, "params.kl_p1_q1",
         lambda doc: doc["params"].update(kl_p1_q1=doc["params"]["kl_p1_q1"] + 1e-9)),
        (FI_PDP, "side_info.q0", lambda doc: doc.update(side_info=ONE_OUTCOME)),
    ],
)
def test_certify_rejects_a_tampered_field(capsys, tmp_path, argv, field, change):
    code, cap = certify_changed(capsys, tmp_path, argv, change)
    assert code == 2
    assert cap.err == f"certification failure: {field} no longer matches its construction\n"


def test_certify_forgives_rounding_below_the_tolerance(capsys, tmp_path):
    def nudge(doc):
        doc["certification"]["eps_far"] += 1e-13
        doc["side_info"] = json.loads(doc["side_info"])  # an object, not its text

    code, _ = certify_changed(capsys, tmp_path, FI_PDP, nudge)
    assert code == 0


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
        assert doc["threshold"] == threshold


def test_calibrate_null_file_size_mismatch(capsys, tmp_path):
    null = write_json(tmp_path / "null.json", {"n": 3, "probs": [0.5, 0.25, 0.25]})
    argv = ["calibrate", "--n", "2", "--alpha", "0.3", "--null", null, "--trials", "100"]
    assert main(argv) == 1
    capsys.readouterr()


def test_calibrate_budget_cap_exits_1(capsys):
    # 6 sqrt(1) / 1e-20 samples: above the int64 Poisson rate numpy draws
    code, cap = run(capsys, ["calibrate", "--n", "1", "--alpha", "1e-10"])
    assert code == 1
    assert cap.err == (
        "error: sample_budget must lie in [1, 4.61169e+18]; got 600000000000000000000\n"
    )


# only counts above the bound: they are refused before any simulation
@pytest.mark.parametrize("trials", [2**24 + 1, 10**10, 99999999999999999999])
def test_calibrate_trials_above_the_bound_exit_1(capsys, trials):
    code, cap = run(capsys, ["calibrate", "--n", "2", "--alpha", "0.3", "--trials", str(trials)])
    assert code == 1 and cap.out == ""
    assert cap.err == f"error: trials must be an integer <= 16777216; got {trials}\n"


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


def test_calibrate_takes_no_cache_file(capsys, tmp_path):
    cache = tmp_path / "f.json"
    argv = ["calibrate", "--n", "2", "--alpha", "0.3", "--cache", str(cache)]
    code, cap = run(capsys, argv)
    assert code == 1 and cap.out == ""
    assert cap.err.startswith("usage: dp-audit")
    assert "unrecognized arguments: --cache" in cap.err
    assert not cache.exists()


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

    # a swept integral float runs as its integer, as it does in the file
    argv = ["sweep", "--config", config, "--parameter", "trials", "--values", "2.0,2"]
    code, cap = run(capsys, argv)
    assert code == 0
    rows = cap.out.splitlines()
    assert rows[1].startswith("2.0,") and rows[2].startswith("2,")
    assert rows[1].split(",")[1:] == rows[2].split(",")[1:]
    argv[-1] = "2.5"
    code, cap = run(capsys, argv)
    assert code == 1
    assert cap.err == "error: trials must be an integer; got 2.5\n"


def test_sweep_ignores_an_adp_fi_cache_path(capsys, tmp_path):
    # cache_path is no key of adp-fi: like any unknown key, it is ignored
    doc = {
        "tester": {"kind": "adp-fi", "eps": math.log(3.0), "alpha": 0.3},
        "target": {"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25},
                   "side": "truth"},
        "trials": 3,
        "seed": 5,
    }
    cache = tmp_path / "thresholds.json"
    outputs = []
    for tester in (doc["tester"], dict(doc["tester"], cache_path=str(cache))):
        config = write_json(tmp_path / "config.json", dict(doc, tester=tester))
        argv = ["sweep", "--config", config, "--parameter", "tester.delta", "--values", "0,0.05"]
        code, cap = run(capsys, argv)
        assert code == 0
        outputs.append(cap.out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 3
    assert not cache.exists()


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


@pytest.mark.parametrize(
    "tester, target, parameter, values, typo",
    [
        # an adp-ni tester without delta, whose reader gives delta 0.0
        ({"eps": 1.1, "alpha": 0.3},
         {"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25}},
         "tester.delta", "0.0,0.1", "tester.dleta"),
        # a leaky mechanism without n, whose reader gives n 3
        ({"eps": 0.0, "alpha": 0.3},
         {"mechanism": {"mechanism": "leaky_mechanism", "delta": 0.3}},
         "target.mechanism.n", "3,4", "target.mechanism.m"),
        # fixture params that only the sweep supplies
        ({"eps": 0.1, "delta": 0.05, "alpha": 0.3},
         {"fixture": {"name": "adp-twopoint", "params": {"eps": 0.1, "delta": 0.05}}},
         "target.fixture.params.alpha", "0.3", "target.fixture.params.alhpa"),
        # a fixture target without instance, whose reader gives "private"
        ({"eps": 0.1, "delta": 0.05, "alpha": 0.3},
         {"fixture": {"name": "adp-twopoint",
                      "params": {"eps": 0.1, "delta": 0.05, "alpha": 0.3}}},
         "target.fixture.instance", "private,far", "target.fixture.instances"),
    ],
)
def test_sweep_sets_an_optional_key_its_document_omits(
    capsys, tmp_path, tester, target, parameter, values, typo
):
    doc = {"tester": dict(tester, kind="adp-ni"), "target": target, "trials": 2}
    config = write_json(tmp_path / "config.json", doc)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", config, "--parameter", parameter, "--values", values]
    code, _ = run(capsys, argv + ["--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == values.split(",")
    # a key that no reader of the document takes is still refused
    argv[4] = typo
    code, cap = run(capsys, argv)
    assert code == 1
    assert cap.err == f"error: unknown parameter name: {typo!r}\n"


@pytest.mark.parametrize("values", ["", ","])
def test_an_empty_sweep_exits_1(capsys, tmp_path, values):
    config = write_json(tmp_path / "config.json", {"tester": {}, "target": {}})
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", config, "--parameter", "tester.alpha", "--values", values]
    code, cap = run(capsys, argv + ["--out", str(out)])
    assert (code, cap.out) == (1, "")
    assert cap.err == f"error: --values names no value; got {values!r}\n"
    assert not out.exists()


def test_a_sweep_skips_an_empty_item(capsys, tmp_path, rr_mech):
    doc = {"tester": {"kind": "adp-ni", "eps": 1.1, "alpha": 0.3},
           "target": {"mechanism": json.loads(Path(rr_mech).read_text())}, "trials": 2}
    argv = ["sweep", "--config", write_json(tmp_path / "config.json", doc),
            "--parameter", "tester.alpha", "--values"]
    code, cap = run(capsys, argv + ["0.2,,0.3"])
    assert code == 0
    assert (code, cap) == run(capsys, argv + ["0.2,0.3"])


@pytest.mark.parametrize("value, shown", [("nan", "nan"), ("true", "'true'"),
                                          ('"0.25"', """'"0.25"'""")])
def test_a_swept_value_that_is_not_a_real_number_exits_1(capsys, tmp_path, value, shown):
    doc = {"tester": {"kind": "adp-ni", "eps": 1.1, "alpha": 0.3},
           "target": {"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25}}}
    argv = ["sweep", "--config", write_json(tmp_path / "config.json", doc),
            "--parameter", "tester.alpha", "--values", value]
    code, cap = run(capsys, argv)
    assert (code, cap.out) == (1, "")
    assert cap.err == f"error: adp-ni tester 'alpha': alpha must be a real number; got {shown}\n"


def test_the_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch, rr_mech):
    claim = ["--mech", rr_mech, "--eps", "0.1", "--alpha", "0.3", "--trials", "3"]
    ni = ["test", "adp-ni", *claim]
    runs = [
        (["test", "adp-budgeted", *claim, "--budget", "5"], 0),
        ([*ni, "--budget", "5"], 1),
        (ni, 0),
        (["--help"], 0),
        (ni, 0),
        (["test", "adp-ni", "--eps", "0.1"], 1),
        (ni, 0),
    ]
    fresh = {}
    with monkeypatch.context() as patch:  # a new parser for each call
        patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        for argv, _ in runs:
            fresh[tuple(argv)] = run(capsys, argv)
    assert cli._build_parser() is cli._build_parser()
    for argv, code in runs:
        assert run(capsys, argv) == fresh[tuple(argv)]
        assert fresh[tuple(argv)][0] == code
        assert "r" not in vars(cli._build_parser().parse_args(ni))


def test_a_subprocess_sweep_writes_the_in_process_bytes(capsys, tmp_path, rr_mech):
    doc = {"tester": {"kind": "adp-ni", "eps": 1.1, "alpha": 0.3},
           "target": {"mechanism": json.loads(Path(rr_mech).read_text())},
           "trials": 50, "seed": 3}
    argv = ["sweep", "--config", write_json(tmp_path / "config.json", doc),
            "--parameter", "tester.alpha", "--values", "0.3,0.25"]
    # other verbs warm the parser and the seed block of (seed 3, trials 50)
    for warm in (["test", "adp-ni", "--mech", rr_mech, "--eps", "1.1", "--alpha", "0.3",
                  "--trials", "50", "--seed", "3"], ["calibrate", "--n", "2", "--alpha", "0.3"]):
        assert run(capsys, warm)[0] == 0
    hits = harness._block_states.cache_info().hits
    code, cap = run(capsys, argv)
    assert code == 0 and harness._block_states.cache_info().hits == hits + 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-m", "dpaudit.cli", *argv], capture_output=True,
                           env=env, cwd=tmp_path, timeout=120)
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == cap.out.encode()
    assert len(child.stdout.splitlines()) == 3
