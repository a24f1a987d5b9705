"""The input boundary: every entry point rejects NaN, infinities and
out-of-range parameters with ValueError, and the CLI keeps its exit-code
contract (0 done, 1 usage or configuration error, 2 certification gate)
for any argv."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpaudit
from dpaudit import (
    FIXTURE_NAMES,
    CertificationError,
    DiscreteDistribution,
    ExperimentConfig,
    MechanismPair,
    PrivacyParams,
    SideInfo,
    Verdict,
    adp_lowfreq_fixture,
    adp_test_budgeted,
    adp_test_fi,
    adp_test_ni,
    adp_twopoint_fixture,
    amplification_reps,
    brute_force_delta,
    build_fixture,
    constant_family,
    data_distribution,
    delta_at_epsilon,
    distinguish,
    fi_pdp_fixture,
    identity_budget,
    identity_threshold,
    leaky_mechanism,
    make_distribution,
    mean_sideinfo_fixture,
    mechanism_from_config,
    noinfo_rate,
    pdp_test_fi,
    pdp_unverifiable_fixture,
    random_privacy_test,
    randomized_response,
    sample_neighbor_pair,
    sweep,
    tight_perturbation,
    trial_count,
    truncated_geometric,
    value_flag_family,
)
from dpaudit.cli import main
from dpaudit.harness import TESTER_KINDS
from dpaudit.mechanisms import _GEOMETRIC_EPS_MAX
from dpaudit.noinfo import _MAX_RATE, _poisson_nonzero
from dpaudit.randomprivacy import DataDistribution

NAN = math.nan
RR = randomized_response(0.25)
RR_SIDE = SideInfo(*RR.truth)


def rng():
    return np.random.default_rng(0)


def test_every_public_name_resolves_once():
    # a stale entry for a deleted name fails here, not at a star import
    assert len(set(dpaudit.__all__)) == len(dpaudit.__all__)
    assert [name for name in dpaudit.__all__ if not hasattr(dpaudit, name)] == []


# -- library-level regressions: each call returned a verdict or raised
#    OverflowError before the shared range check

def test_adp_test_fi_rejects_nan_eps():
    with pytest.raises(ValueError, match="eps"):
        adp_test_fi(RR, RR_SIDE, NAN, 0.0, 0.3, rng())


def test_pdp_test_fi_rejects_nan_eps():
    with pytest.raises(ValueError, match="eps"):
        pdp_test_fi(RR, RR_SIDE, NAN, 0.2, rng())


@pytest.mark.parametrize(
    "eps, delta, alpha, name",
    [(0.0, 2.0, 0.3, "delta"), (0.0, 0.0, math.inf, "alpha"), (NAN, 0.0, 0.3, "eps")],
)
def test_adp_test_budgeted_rejects_bad_claim(eps, delta, alpha, name):
    with pytest.raises(ValueError, match=name):
        adp_test_budgeted(RR, eps, delta, alpha, 10)
    assert RR.query_counter == [0, 0]


def test_adp_test_budgeted_names_r_above_the_largest_count():
    # numpy's multinomial draws at most 2**63 - 1 samples; r is refused by name
    with pytest.raises(ValueError, match=f"^r must be an integer <= {2**63 - 1}; got {2**63}$"):
        adp_test_budgeted(RR, 0.0, 0.0, 0.1, 2**63)
    assert RR.query_counter == [0, 0]


#: A valid claim and r whose entries compare equal to False, 0, True and 1.
BUDGET = {"eps": 0.0, "delta": 0.0, "alpha": 1.0, "r": 1}
#: Per argument, values the checks refuse: the boolean equal to the valid
#: value, NaN, out-of-range values and an unhashable list.
REFUSED_BUDGET = {
    "eps": (False, NAN, -1.0, 800.0, [0.0]),
    "delta": (False, NAN, -0.5, 1.5, [0.0]),
    "alpha": (True, NAN, 0.0, -1.0, [1.0]),
    "r": (True, NAN, 0, 2**63, 1.5, [1]),
}
#: Per argument, numbers of other types equal to the valid value, which pass.
ACCEPTED_BUDGET = {
    "eps": (0, np.float64(0.0)),
    "delta": (0, np.float64(0.0)),
    "alpha": (1, np.float64(1.0)),
    "r": (1.0, np.int64(1), np.float64(1.0)),
}


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_adp_test_budgeted_checks_each_argument_after_a_cached_claim(name):
    # the checked claim and r are kept per argument tuple; a value equal to
    # the kept one but of another type is checked as itself
    def call(value):
        return adp_test_budgeted(MechanismPair(*RR.truth, seed=9), **{**BUDGET, name: value})

    reference = call(BUDGET[name])
    assert call(BUDGET[name]) == reference
    for bad in REFUSED_BUDGET[name]:
        with pytest.raises(ValueError, match=f"^{name} must "):
            call(bad)
    for same in ACCEPTED_BUDGET[name]:
        assert call(same) == reference


def test_adp_ni_config_rejects_nan_eps():
    with pytest.raises(ValueError, match="eps"):
        adp_test_ni(RR, NAN, 0.0, 0.3, rng())
    assert RR.query_counter == [0, 0]


def test_noinfo_rate_overflow_is_value_error():
    with pytest.raises(ValueError, match="noinfo_rate"):
        noinfo_rate(2, 400, 0.1)


def test_delta_at_epsilon_overflow_is_value_error():
    p, q = RR.truth
    with pytest.raises(ValueError, match="eps"):
        delta_at_epsilon(p, q, 800)


def test_random_privacy_test_checks_claim_with_explicit_sizes():
    family = constant_family(RR.truth[0])
    dd = data_distribution([0])

    def inner(mech, g):
        return adp_test_budgeted(mech, 0.0, 0.0, 0.3, 10)

    for kwargs in (
        {"gamma": NAN, "alpha": 0.3, "penalty_weight": 1.0},
        {"gamma": 0.0, "alpha": 0.3, "penalty_weight": math.inf},
    ):
        with pytest.raises(ValueError):
            random_privacy_test(family, dd, inner, rng=rng(), **kwargs)


REDUCTION = {
    "family": constant_family(RR.truth[0]),
    "dd": data_distribution([0, 1]),
    "two_db_tester": lambda mech, g: adp_test_budgeted(mech, 0.0, 0.0, 0.3, 10),
    "gamma": 0.0, "alpha": 0.5, "penalty_weight": 1.0,
}


def reduce(**changed):
    return random_privacy_test(**{**REDUCTION, "rng": rng(), **changed})


@pytest.mark.parametrize("bad", [None, 5, np.random.RandomState(0)], ids=["None", "5", "legacy"])
def test_reduction_names_an_rng_that_is_not_a_generator(bad):
    message = "^rng must be a numpy.random.Generator; got "
    with pytest.raises(ValueError, match=message):
        sample_neighbor_pair(data_distribution([0, 1]), bad)
    with pytest.raises(ValueError, match=message):
        reduce(rng=bad)


@pytest.mark.parametrize("bad", [None, [0, 1], RR.truth[0]], ids=["None", "values", "entries"])
def test_reduction_names_a_dd_that_is_not_a_data_distribution(bad):
    with pytest.raises(ValueError, match="^dd must be a DataDistribution; got "):
        sample_neighbor_pair(bad, rng())
    with pytest.raises(ValueError, match="^dd must be a DataDistribution; got "):
        reduce(dd=bad)


@pytest.mark.parametrize("build, message", [
    (lambda: DataDistribution((0, 1), [0.5, 0.5]),
     r"^entry_dist must be a DiscreteDistribution; got \[0.5, 0.5\]$"),
    (lambda: DataDistribution(5, make_distribution([1.0])),
     "^values must be an iterable of entry values; got 5$"),
    (lambda: data_distribution(5), "^values must be an iterable of entry values; got 5$"),
    (lambda: value_flag_family({1}, 3, 4), "^p_flagged must be a DiscreteDistribution; got 3$"),
    (lambda: value_flag_family({1}, RR.truth[0], 4),
     "^p_plain must be a DiscreteDistribution; got 4$"),
], ids=["entry_dist", "values", "data_distribution", "p_flagged", "p_plain"])
def test_reduction_inputs_name_a_malformed_argument(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("bad", [None, [0.75, 0.25], RR], ids=["None", "list", "pair"])
def test_reduction_names_a_family_value_that_is_not_a_distribution(bad):
    with pytest.raises(ValueError, match="^family must map each database to a DiscreteDistri"):
        reduce(family=lambda db: bad)


@pytest.mark.parametrize("bad", [None, True, Verdict.REJECT], ids=["None", "bool", "verdict"])
def test_reduction_names_an_inner_result_that_is_not_an_outcome(bad):
    with pytest.raises(ValueError, match="^the two-database tester must return a TestOutcome"):
        reduce(two_db_tester=lambda mech, g: bad)


def test_fi_pdp_config_rejects_alpha_whose_exponential_overflows():
    with pytest.raises(ValueError, match="alpha"):
        pdp_test_fi(RR, RR_SIDE, 0.5, 800.0, rng())


def test_fi_pdp_rate_with_underflowing_beta_is_value_error():
    # beta, the smallest claimed mass, squares to zero, so the rate formula
    # would divide by zero; the error names the rate, as the CLI prints it
    tiny = DiscreteDistribution(np.array([1.0, 1e-170]))
    with pytest.raises(ValueError, match=r"^rate must lie in \(0, "):
        pdp_test_fi(RR, SideInfo(tiny, RR.truth[1]), 0.5, 0.3, rng())
    assert RR.query_counter == [0, 0]


def test_identity_budget_cap():
    # a Poisson rate numpy can draw and cache keys can pack as an int64
    with pytest.raises(ValueError, match="^sample_budget must lie in "):
        identity_budget(1, 1e-10)


def test_identity_budget_takes_a_whole_universe_size():
    for n in (2.5, True, NAN, math.inf, "2"):
        with pytest.raises(ValueError, match="^n must be an integer"):
            identity_budget(n, 0.1)
    assert identity_budget(2.0, 0.1) == identity_budget(2, 0.1)


def test_noinfo_rate_takes_a_whole_universe_size():
    for n in (2.5, True, NAN, math.inf, "2"):
        with pytest.raises(ValueError, match="^n must be an integer"):
            noinfo_rate(n, 0.1, 0.1)
    assert noinfo_rate(2.0, 0.1, 0.1) == noinfo_rate(2, 0.1, 0.1)


# -- CLI-level regressions

@pytest.fixture
def rr_mech(tmp_path):
    path = tmp_path / "rr.json"
    path.write_text(json.dumps({"mechanism": "randomized_response", "flip_prob": 0.25}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "adp-ni", "--eps", "400", "--alpha", "0.3"],
        ["test", "adp-budgeted", "--eps", "800", "--alpha", "0.3", "--budget", "10"],
        ["test", "adp-fi", "--side", "truth", "--eps", "800", "--alpha", "0.3"],
        ["test", "adp-fi", "--side", "truth", "--eps", "nan", "--alpha", "0.3"],
        ["test", "pdp-fi", "--side", "truth", "--eps", "nan", "--alpha", "0.2"],
        # a full-information tester without side information
        ["test", "pdp-fi", "--eps", "1.1", "--alpha", "0.2"],
    ],
)
def test_cli_bad_claim_exits_1_without_traceback(capsys, rr_mech, argv):
    assert main(argv + ["--mech", rr_mech]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_budget_above_the_largest_count_names_r(capsys, rr_mech):
    argv = ["test", "adp-budgeted", "--mech", rr_mech, "--eps", "0", "--alpha", "0.1",
            "--budget", str(10**20)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: r must be an integer <= {2**63 - 1}; got {10**20}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fixture", "adp-lowfreq", "--params", "n=inf", "delta=0.3", "alpha=0.1"],
        ["test", "random", "--alpha", "0.3", "--penalty", "1e308",
         "--inner-alpha", "0.2", "--inner-budget", "10"],
        # a --params entry that is not key=value
        ["fixture", "adp-twopoint", "--params", "eps"],
        # sizes no array can hold, refused before any allocation
        ["test", "adp-ni", "--eps", "0.5", "--alpha", "0.3", "--mech",
         {"mechanism": "truncated_geometric", "eps": 0.5, "n": 10**15}],
        ["test", "adp-budgeted", "--budget", "10", "--eps", "0.5", "--alpha", "0.3", "--mech",
         {"mechanism": "leaky_mechanism", "delta": 0.3, "n": 10**15}],
        ["calibrate", "--n", "1000000000000000", "--alpha", "0.3"],
        ["fixture", "adp-lowfreq", "--params", "n=3000000000000000", "delta=0.3", "alpha=0.1"],
        ["test", "random", "--db-size", "1000000000000000", "--alpha", "0.3",
         "--inner-alpha", "0.2", "--inner-budget", "10"],
    ],
)
def test_cli_overflowing_parameters_exit_1(capsys, tmp_path, argv):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"kind": "constant", "dist": {"probs": [0.5, 0.5]}}))
    if argv[1] == "random":
        argv = argv + ["--family", str(family)]
    if isinstance(argv[-1], dict):  # a mechanism config, passed as its file
        mech = tmp_path / "mech.json"
        mech.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(mech)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


RR_TARGET = {"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25}}
NI_TESTER = {"kind": "adp-ni", "eps": 0.2, "alpha": 0.1}
SWEEP = ["sweep", "--parameter", "seed", "--values", "1", "--config"]
RANDOM = ["test", "random", "--alpha", "0.3", "--inner-alpha", "0.2", "--inner-budget", "10",
          "--family"]
TWOPOINT_PARAMS = {"eps": 0.2, "delta": 0.05, "alpha": 0.1}
#: an emitted fixture document, which certify --fixture-file checks whole
TWOPOINT = {"name": "adp-twopoint",
            **build_fixture("adp-twopoint", TWOPOINT_PARAMS)[0].to_json_dict()}
BOTH_TARGETS = dict(RR_TARGET, fixture={"name": "adp-twopoint", "params": TWOPOINT_PARAMS,
                                        "instance": "far"})
FLAG_FAMILY = {"kind": "value_flag", "flagged": {"probs": [0.7, 0.3]},
               "plain": {"probs": [0.5, 0.5]}}
CALIBRATE = ["calibrate", "--n", "2", "--alpha", "0.3", "--trials", "100", "--null"]
SIDE = ["test", "adp-fi", "--fixture", "adp-twopoint", "--fixture-params", "eps=0.2",
        "delta=0.05", "alpha=0.1", "--eps", "0.2", "--alpha", "0.1", "--side"]
HALVES = [0.5, 0.5]
#: distribution documents whose n or probs has the wrong shape, or whose
#: probs are not numbers: numpy alone reads them as a point mass and uniform
BAD_DISTS = ({"n": None, "probs": HALVES}, {"n": [2], "probs": HALVES}, {"n": 2, "probs": 5},
             {"probs": {"0": 0.5, "1": 0.5}}, {"n": 2.5, "probs": HALVES},
             {"probs": [True, False]}, {"probs": ["0.5", "0.5"]})


@pytest.mark.parametrize(
    "argv, doc",
    [
        (SWEEP, {"tester": NI_TESTER, "target": {"fixture": "abc"}, "trials": 2}),
        (SWEEP, {"tester": NI_TESTER, "target": RR_TARGET, "trials": None}),
        (SWEEP, {"tester": "adp-ni", "target": RR_TARGET, "trials": 2}),
        (SWEEP, [NI_TESTER]),
        (RANDOM, dict(FLAG_FAMILY, flag_prob=None)),
        (RANDOM, [FLAG_FAMILY]),
        (["certify", "--fixture-file"], [{"name": "adp-twopoint"}]),
        (SWEEP, {"tester": NI_TESTER, "target": BOTH_TARGETS, "trials": 2}),
        (["certify", "--fixture-file"], dict(TWOPOINT, private=[1])),
        (SWEEP, {"tester": NI_TESTER, "target": {"fixture": {"name": ["x"]}}, "trials": 2}),
        (SWEEP, {"tester": NI_TESTER, "target": RR_TARGET, "trials": 2.5}),
        (["certify", "--fixture-file"], dict(TWOPOINT, claim=[0.2, 0.05])),
        (SWEEP, {"tester": NI_TESTER, "target": RR_TARGET, "trials": "2"}),
        (SWEEP, {"tester": NI_TESTER, "target": RR_TARGET, "trials": True}),
        (["certify", "--fixture-file"],
         {key: value for key, value in TWOPOINT.items() if key != "certification"}),
        (["certify", "--fixture-file"], dict(TWOPOINT, far={"p0": TWOPOINT["far"]["p0"]})),
        *((CALIBRATE, dist) for dist in BAD_DISTS),
        *((SIDE, {"q0": dist, "q1": {"probs": HALVES}}) for dist in BAD_DISTS),
        *(
            (["certify", "--fixture-file"], dict(TWOPOINT, private={"p0": dist, "p1": dist}))
            for dist in BAD_DISTS
        ),
        *((RANDOM, {"kind": "constant", "dist": dist}) for dist in BAD_DISTS),
        (SWEEP, {"tester": NI_TESTER, "target": {"fixture": {
            "name": "adp-twopoint", "params": TWOPOINT_PARAMS, "instance": "middle"}},
            "trials": 2}),
        (SIDE, 5),
        (CALIBRATE, {"probs": [NAN, 1.0]}),
        # pDP testing needs two outcomes
        (["test", "pdp-fi", "--side", "truth", "--eps", "0.5", "--alpha", "0.2", "--mech"],
         {"mechanism": "explicit", "p0": {"probs": [1.0]}, "p1": {"probs": [1.0]}}),
    ],
)
def test_cli_wrong_shape_json_exits_1_without_traceback(capsys, tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # a count or seed with a fractional part, a string or a boolean is
    # named, not converted
    if isinstance(doc, dict):
        named = [key for key, value in doc.items() if isinstance(value, float)]
        named += [key for key in ("trials", "seed") if isinstance(doc.get(key), (str, bool))]
        assert all(key in err for key in named)


RR_TRUTH = dict(RR_TARGET, side="truth")
MEAN_PARAMS = {"eps": 0.3, "alpha": 0.1, "A": 4}


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "argv, doc, kind, key",
    [
        # a missing key
        (SWEEP, {"target": RR_TARGET, "trials": 2}, "sweep config", "tester"),
        (SWEEP, {"tester": NI_TESTER, "target": {"fixture": {"params": TWOPOINT_PARAMS}}},
         "target fixture", "name"),
        (SWEEP, {"tester": without(NI_TESTER, "eps"), "target": RR_TARGET}, "adp-ni tester",
         "eps"),
        (SWEEP, {"tester": {"kind": "pdp-fi", "alpha": 0.2}, "target": RR_TRUTH},
         "pdp-fi tester", "eps"),
        (SWEEP, {"tester": dict(NI_TESTER, kind="adp-budgeted"), "target": RR_TARGET},
         "adp-budgeted tester", "r"),
        (RANDOM, {"kind": "constant"}, "constant family", "dist"),
        (RANDOM, without(dict(FLAG_FAMILY, flag_prob=0.2), "plain"), "value_flag family",
         "plain"),
        (["certify", "--fixture-file"], without(TWOPOINT, "name"), "fixture file", "name"),
        (["certify", "--fixture-file"], without(TWOPOINT, "params"), "fixture file", "params"),
        # a value of the wrong type
        (SWEEP, {"tester": NI_TESTER, "target": {"mechanism": {
            "mechanism": "truncated_geometric", "eps": None, "n": 4}}},
         "truncated_geometric mechanism", "eps"),
        (SWEEP, {"tester": NI_TESTER, "target": {"fixture": {"name": "adp-twopoint",
                                                             "params": [1, 2]}}},
         "target fixture", "params"),
        (SWEEP, {"tester": NI_TESTER, "target": {"fixture": {
            "name": "mean-sideinfo", "params": dict(MEAN_PARAMS, base="abc")}}},
         "mean-sideinfo fixture", "base"),
        (SWEEP, {"tester": dict(NI_TESTER, eps="abc"), "target": RR_TARGET}, "adp-ni tester",
         "eps"),
        (SWEEP, {"tester": {"kind": "adp-fi", "eps": 1.2, "alpha": "0.3"}, "target": RR_TRUTH},
         "adp-fi tester", "alpha"),
        # a number key takes no boolean or string, which float() reads as 1.0 and 0.25
        (SWEEP, {"tester": dict(NI_TESTER, eps=True), "target": RR_TARGET}, "adp-ni tester",
         "eps"),
        (SWEEP, {"tester": NI_TESTER, "target": {"mechanism": dict(
            RR_TARGET["mechanism"], flip_prob="0.25")}}, "randomized_response mechanism",
         "flip_prob"),
        (["certify", "--fixture-file"], dict(TWOPOINT, params=dict(TWOPOINT_PARAMS, eps="0.2")),
         "adp-twopoint fixture", "eps"),
    ],
)
def test_cli_names_the_document_and_key_it_cannot_read(capsys, tmp_path, argv, doc, kind, key):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert kind in err and repr(key) in err, err


@pytest.mark.parametrize("tester, side", [("adp-ni", False), ("pdp-fi", True)])
def test_cli_poisson_rate_above_the_cap_is_named(capsys, tmp_path, rr_mech, tester, side):
    # at alpha 1e-10 either tester's rate is ~1e21, beyond any rate numpy draws
    argv = ["test", tester, "--mech", rr_mech, "--eps", "1.1", "--alpha", "1e-10"]
    if side:
        path = tmp_path / "side.json"
        path.write_text(json.dumps(RR_SIDE.to_json()))
        argv += ["--side", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rate must lie in (0, 4.61169e+18]"), err


@pytest.mark.parametrize(
    "kind, test", [("adp-fi", adp_test_fi), ("pdp-fi", pdp_test_fi)], ids=["adp-fi", "pdp-fi"]
)
@pytest.mark.parametrize("side", [None, "truth", "three"])
def test_full_info_testers_refuse_what_is_not_their_side_information(kind, test, side):
    message = f"{kind} needs side information"
    if side == "three":
        uniform = make_distribution([1, 1, 1])
        side = SideInfo(uniform, uniform)
        message = "mechanism universe does not match the side information"
    claim = (0.5, 0.0, 0.3) if kind == "adp-fi" else (0.5, 0.3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        test(RR, side, *claim, rng())
    assert RR.query_counter == [0, 0]


BASE3 = {"mechanism": "explicit", "p0": {"probs": [0.5, 0.5, 0.0]},
         "p1": {"probs": [0.6, 0.4, 0.0]}}


@pytest.mark.parametrize("argv, name", [
    (["fixture", "pdp-unverifiable", "--params", "eps=0", "alpha=0.1", "A=800"], "A"),
    (["fixture", "fi-pdp", "--params", "eps=0.5", "alpha=800", "beta=0.1"], "alpha"),
    (["fixture", "fi-pdp", "--params", "eps=0.5", "alpha=0.1", "beta=1e-320"], "beta"),
    (["fixture", "mean-sideinfo", "--params", "eps=0.3", "alpha=0.1", "A=800", "--base", "BASE"],
     "A"),
    (["test", "adp-ni", "--fixture", "pdp-unverifiable", "--fixture-params", "eps=0", "alpha=0.1",
      "A=800", "--eps", "0", "--alpha", "0.1"], "A"),
])
def test_cli_fixture_masses_below_the_normal_floats_exit_1(capsys, tmp_path, argv, name):
    # the masses e^-2A, beta e^-alpha, beta e^-eps and e^-A would be
    # subnormal or 0: a usage error naming the parameter, not a failed gate
    base = tmp_path / "base.json"
    base.write_text(json.dumps(BASE3))
    assert main([str(base) if item == "BASE" else item for item in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must lie in "), err


def test_fixtures_build_up_to_their_float_range_bounds():
    top = _GEOMETRIC_EPS_MAX
    base = mechanism_from_config(BASE3).truth
    for build, bound in [
        (lambda A: pdp_unverifiable_fixture(0.0, 0.1, A), top / 2.0),
        (lambda A: mean_sideinfo_fixture(0.3, 0.1, A, base), top),
        (lambda alpha: fi_pdp_fixture(0.5, alpha, 0.1), top + math.log(0.1)),
    ]:
        build(bound)
        with pytest.raises(ValueError, match="must lie in"):
            build(math.nextafter(bound, math.inf))
    low = math.exp(0.5 - top)
    fi_pdp_fixture(0.5, 0.25, low)
    with pytest.raises(ValueError, match="^beta must lie in"):
        fi_pdp_fixture(0.5, 0.25, math.nextafter(low, 0.0))


@pytest.mark.parametrize("instance", [RR.truth[:1], RR.truth[0], RR.truth + RR.truth[:1]],
                         ids=["one", "bare", "three"])
def test_distinguish_refuses_what_is_not_a_pair_of_distributions(instance):
    with pytest.raises(ValueError, match="^instance must be a pair"):
        distinguish(NI_TESTER, instance, 1, 0)


def test_cli_refuses_more_trials_than_an_experiment_keeps(capsys, monkeypatch, tmp_path, rr_mech):
    # every trial's record is kept, at ~0.7 KB each: an experiment runs at most 2^20 trials
    assert ExperimentConfig(NI_TESTER, RR_TARGET, 2**20).trials == 2**20
    monkeypatch.setattr(dpaudit.harness, "_block_states", lambda *args: pytest.fail("derived"))
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"tester": NI_TESTER, "target": RR_TARGET, "trials": 1}))
    for argv in (
        ["test", "adp-ni", "--mech", rr_mech, "--eps", "0", "--alpha", "0.3",
         "--trials", "1048577"],
        ["sweep", "--config", str(config), "--parameter", "trials", "--values", "1048577"],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: trials must be an integer <= 1048576; got 1048577\n", argv


def test_poisson_cap_is_a_rate_numpy_draws():
    # a rate above the cap is refused once per experiment, before any
    # draw (test_cli_poisson_rate_above_the_cap_is_named)
    assert _poisson_nonzero(_MAX_RATE, rng())[0] > 0


def test_cli_rejects_a_reduction_above_the_size_cap(capsys, tmp_path):
    # 1,413,842 pairs x 155 reps: ~2.2e8 inner tests even at one sample each
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"kind": "constant", "dist": {"probs": [0.5, 0.5]}}))
    argv = ["test", "random", "--family", str(family), "--penalty", "800", "--alpha", "0.3",
            "--gamma", "0.3", "--inner-alpha", "0.2", "--inner-budget", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(flag in err for flag in ("--penalty", "--alpha", "--gamma", "--inner-budget"))


def test_cli_random_names_a_negative_seed(capsys, tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"kind": "constant", "dist": {"probs": [0.5, 0.5]}}))
    assert main(RANDOM + [str(family), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0; got -1\n"


def test_sweep_checks_swept_trials_and_seed(tmp_path):
    base = ExperimentConfig(
        tester={"kind": "adp-ni", "eps": 0.0, "alpha": 0.3},
        target={"mechanism": {"mechanism": "randomized_response", "flip_prob": 0.25}},
        trials=1,
    )
    for parameter, value in (
        ("trials", NAN), ("trials", 0.5), ("seed", -1), ("seed", 1e308), ("seed", 10**400)
    ):
        with pytest.raises(ValueError, match=parameter):
            sweep(base, parameter, [value])


SEED_BUILDERS = {
    "MechanismPair": lambda seed: MechanismPair(*RR.truth, seed=seed),
    "randomized_response": lambda seed: randomized_response(0.25, seed=seed),
    "leaky_mechanism": lambda seed: leaky_mechanism(0.3, seed=seed),
}


@pytest.mark.parametrize("name", sorted(SEED_BUILDERS))
def test_pair_constructors_check_their_seed(name):
    build = SEED_BUILDERS[name]
    for bad in (None, True, 1.5, NAN, "3", -1):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            build(bad)
    for seed in (0, 2**200, np.int64(5), 5.0):
        pair = build(seed)
        assert pair.seed == seed and type(pair.seed) is int
        # the streams are the children of SeedSequence(seed), as before the check
        children = np.random.SeedSequence(int(seed)).spawn(2)
        ones = np.ones(1000, dtype=np.int64)
        for db, child in enumerate(children):
            p = pair.truth[db].probs / pair.truth[db].probs.sum()
            expected = np.random.default_rng(child).multinomial(ones, p)
            assert np.array_equal(pair.draw_many(db, ones), expected)


# -- fuzzed argv: the exit-code contract holds for any combination

VALUES = ("nan", "inf", "-inf", "-1", "0", "0.3", "800", "1e308", "abc")
# integer-valued flags keep their sizes small: calibrate --n and
# adp-lowfreq n allocate memory in proportion to n
SMALL = {
    "--trials": ("nan", "-1", "0", "0.3", "1", "3", "abc"),
    "--budget": ("nan", "-1", "0", "0.3", "1", "1000", "abc", "10000000000000000000"),
    "--inner-budget": ("nan", "-1", "0", "0.3", "1", "1000", "abc"),
    "--db-size": ("nan", "-1", "0", "1", "3", "abc"),
    "--n": ("nan", "-1", "0", "1", "2", "64", "abc"),
    "--seed": ("-1", "0", "7", "0.3", "abc"),
    "n": ("nan", "inf", "-1", "0", "3", "18", "abc"),
    # the reduction samples ~ (penalty / alpha)^2 neighbour pairs: at
    # penalty 800 and alpha 0.3, a valid run would sample 1.4 million
    "--penalty": ("nan", "inf", "-1", "0", "0.3", "1", "1e308", "abc"),
}
# in-range values, drawn half the time so that runs also get past the checks
PLAUSIBLE = {
    "--eps": ("0", "0.3", "1.0986122886681098"),
    "--delta": ("0", "0.05"),
    "--alpha": ("0.2", "0.3"),
    "--gamma": ("0", "0.1"),
    "--penalty": ("1",),
    "--inner-eps": ("0",),
    "--inner-delta": ("0",),
    "--inner-alpha": ("0.2",),
    "--inner-budget": ("100",),
    "--budget": ("100",),
    "--trials": ("2",),
    "--seed": ("0", "7"),
    "--db-size": ("1", "2"),
    "--n": ("2", "16"),
    "eps": ("0", "0.3"),
    "delta": ("0.05", "0.3"),
    "alpha": ("0.1", "0.2"),
    "A": ("3",),
    "beta": ("0.2",),
    "n": ("6", "18"),
}
FIXTURE_PARAMS = {
    "pdp-unverifiable": ("eps", "alpha", "A"),
    "adp-twopoint": ("eps", "delta", "alpha"),
    "adp-lowfreq": ("n", "delta", "alpha"),
    "fi-pdp": ("eps", "alpha", "beta"),
    "mean-sideinfo": ("eps", "alpha", "A"),
}


#: token of a test argv -> a flag that its kind or target does not read
FOREIGN = {"adp-ni": ["--budget", "100"], "random": ["--trials", "2"],
           "--mech": ["--instance", "far"]}


def gives_a_foreign_flag(argv):
    return any(key in argv and flag in argv for key, (flag, _) in FOREIGN.items())


#: a verb, or "test" and a tester kind: the fuzz draws each one by itself
FORMS = tuple(f"test {kind}" for kind in TESTER_KINDS + ("random",)) + (
    "fixture", "sweep", "calibrate", "certify"
)


@st.composite
def argvs(draw, files, form):
    """argv of one of FORMS: the flags a run needs are usually present;
    each value comes from VALUES (SMALL for sizes) or, half the time, from
    PLAUSIBLE. Now and then a test argv also gets a FOREIGN flag."""

    def value(flag):
        pool = PLAUSIBLE.get(flag, ()) if draw(st.booleans()) else ()
        return draw(st.sampled_from(pool or SMALL.get(flag, VALUES)))

    def flags(needed, optional=()):
        names = [name for name in needed if draw(st.integers(0, 9))]
        names += draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
        return [item for name in names for item in (name, value(name))]

    def fixture_params(name):
        keys = [key for key in FIXTURE_PARAMS[name] if draw(st.integers(0, 9))]
        keys += draw(st.lists(st.just("bogus"), max_size=1))
        return [f"{key}={value(key)}" for key in keys]

    verb, _, tester = form.partition(" ")
    out = ["--out", files["out"]]
    if verb == "test":
        if tester == "random":
            family = draw(st.sampled_from(files["family"]))
            argv = ["test", "random", "--family", family] + flags(
                ["--alpha", "--inner-alpha", "--inner-budget"],
                ["--gamma", "--penalty", "--db-size", "--inner-eps", "--inner-delta", "--seed"],
            ) + out
        else:
            if draw(st.booleans()):
                target = ["--mech", files["mech"]]
            else:
                name = draw(st.sampled_from(FIXTURE_NAMES))
                target = ["--fixture", name, "--fixture-params", *fixture_params(name),
                          "--instance", draw(st.sampled_from(("private", "far")))]
            if tester.endswith("-fi"):
                target += ["--side", draw(st.sampled_from(("truth", "claim", files["side"])))]
            needed = ["--eps", "--alpha"] + (["--budget"] if tester == "adp-budgeted" else [])
            optional = ["--trials", "--seed"] + (["--delta"] if tester.startswith("adp-") else [])
            argv = ["test", tester] + target + flags(needed, optional) + out
        foreign = [FOREIGN[key] for key in argv[1:3] if key in FOREIGN]
        argv += draw(st.sampled_from([[]] * 4 + foreign))
        return argv
    if verb in ("fixture", "certify"):
        if verb == "certify" and draw(st.booleans()):
            return ["certify", "--fixture-file", draw(st.sampled_from(files["fixture"]))] + out
        name = draw(st.sampled_from(FIXTURE_NAMES))
        base = ["--base", files["base"]] if draw(st.integers(0, 9)) else []
        return [verb, name, "--params", *fixture_params(name)] + base + out
    if verb == "sweep":
        parameter = draw(st.sampled_from(
            ("tester.alpha", "tester.eps", "tester.delta", "trials", "seed",
             "target.mechanism.flip_prob", "tester.bogus", "bogus")
        ))
        values = ",".join(draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=2)))
        config = draw(st.sampled_from(files["sweep"]))
        return ["sweep", "--config", config, "--parameter", parameter, "--values", values] + out
    null = draw(st.sampled_from(("uniform", "twopoint", files["null"])))
    trials = draw(st.sampled_from(((), ("--trials", "nan"), ("--trials", "99"),
                                   ("--trials", "257"))))
    return ["calibrate", "--null", null, *trials] + flags(
        ["--n", "--alpha"]
    ) + out


def write_fuzz_files(root):
    def put(name, doc):
        path = root / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    rr = {"mechanism": "randomized_response", "flip_prob": 0.25}
    ni = {"kind": "adp-ni", "eps": 0.0, "delta": 0.0, "alpha": 0.3}
    config = {"tester": ni, "target": {"mechanism": rr}, "trials": 2}
    flag = {"kind": "value_flag", "flag_prob": 0.2, "flagged": {"probs": [0.9, 0.1]},
            "plain": {"probs": [0.5, 0.5]}}
    # documents that each lack one required key: a leak of the missing key
    # would escape main as an exception
    lacking = {
        "tester": without(config, "tester"),
        "eps": dict(config, tester=without(ni, "eps")),
        "flip_prob": dict(config, target={"mechanism": without(rr, "flip_prob")}),
        "name": dict(config, target={"fixture": {"params": {"eps": 0.1}}}),
    }
    assert main(["fixture", "adp-twopoint", "--params", "eps=0.1", "delta=0.05",
                 "alpha=0.1", "--out", str(root / "two.json")]) == 0
    return {
        "mech": put("rr.json", rr),
        "side": put("side.json", RR_SIDE.to_json()),
        "base": put("base.json", {"mechanism": "explicit", "p0": {"probs": [0.5, 0.5, 0.0]},
                                  "p1": {"probs": [0.6, 0.4, 0.0]}}),
        "family": [
            put("constant.json", {"kind": "constant", "dist": {"probs": [0.5, 0.5]}}),
            put("flag.json", flag),
            put("flag-no-plain.json", without(flag, "plain")),
        ],
        "fixture": [str(root / "two.json"), put("broken.json", "{")],
        "sweep": [put("sweep.json", config)]
        + [put(f"sweep-no-{key}.json", doc) for key, doc in lacking.items()],
        "null": put("null.json", {"probs": [0.25, 0.75]}),
        "out": str(root / "out"),
    }


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    return write_fuzz_files(tmp_path_factory.mktemp("fuzz"))


def test_cli_fuzz_exit_codes(fuzz_files, capsys):
    for form in FORMS:
        @settings(max_examples=40, derandomize=True, deadline=None)
        @given(argvs(fuzz_files, form))
        def check(argv):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in ((1,) if gives_a_foreign_flag(argv) else (0, 1, 2)), argv
            assert "Traceback" not in err, argv

        check()


# -- public constructors and testers: validate, or raise ValueError

EXTREMES = (NAN, math.inf, -math.inf, -1.0, 0.0, 0.05, 0.3, 0.9, 800.0, 1e308)
#: drawn for every number: 3.0 passes as the integer 3, the others as no number
ODD = (None, "x", "0.3", "3", True, 3.0)
x = st.sampled_from(EXTREMES + ODD)
small_int = st.sampled_from((-1, 0, 1, 2, 3, 18, 2**53) + ODD)
# counts as documents and callers pass them: only 2.0, 3.0 and 18 are whole
count = st.sampled_from((NAN, math.inf, -1.0, 0.0, 2.0, 2.5, 18) + ODD)
# the smallest claimed mass of a pDP side, down to one whose square underflows
mass = st.sampled_from((-1.0, 0.0, 1e-170, 0.05, 0.3, 0.9, 1.5) + ODD)
LEAKY = leaky_mechanism(0.3, seed=1)
CONSTRUCTORS = {
    "PrivacyParams": (lambda e, d, g, w: PrivacyParams(e, d, g, w, "RaDP"), (x, x, x, x)),
    "adp_test_ni": (lambda e, d, a: adp_test_ni(
        MechanismPair(*LEAKY.truth, seed=4), e, d, a, rng()), (x, x, x)),
    # the drawn values reach the package as they are: it reads the weights
    # and leaky_mechanism reads n
    "pdp_test_fi_min_mass": (lambda e, a, b: pdp_test_fi(
        MechanismPair(*RR.truth, seed=5), SideInfo(make_distribution([1.0, b]), RR.truth[1]),
        e, a, rng()), (x, x, mass)),
    "threshold_for": (lambda n, a: identity_threshold(
        leaky_mechanism(0.3, n).truth[0], a, 100), (small_int, x)),
    "identity_budget": (identity_budget, (small_int, x)),
    "trial_count": (trial_count, (x, x, x)),
    "amplification_reps": (amplification_reps, (x, x)),
    "delta_at_epsilon": (lambda e: delta_at_epsilon(*LEAKY.truth, e), (x,)),
    "brute_force_delta": (lambda e: brute_force_delta(*LEAKY.truth, e), (x,)),
    "adp_test_budgeted": (lambda e, d, a, r: adp_test_budgeted(
        MechanismPair(*LEAKY.truth, seed=1), e, d, a, r), (x, x, x, small_int)),
    "distinguish": (lambda e, d, a, db, s: distinguish(
        {"kind": "adp-ni", "eps": e, "delta": d, "alpha": a}, LEAKY.truth, db, s),
        (x, x, x, small_int, small_int)),
    "adp_test_fi": (lambda e, d, a: adp_test_fi(
        MechanismPair(*RR.truth, seed=2), RR_SIDE, e, d, a, rng()), (x, x, x)),
    "pdp_test_fi": (lambda e, a: pdp_test_fi(
        MechanismPair(*RR.truth, seed=3), RR_SIDE, e, a, rng()), (x, x)),
    "data_distribution": (lambda s: sample_neighbor_pair(
        data_distribution([0, 1], db_size=s), rng()), (count,)),
    "truncated_geometric": (lambda e, n: truncated_geometric(e, n), (x, small_int)),
    "randomized_response": (randomized_response, (x,)),
    "leaky_mechanism": (lambda d, n: leaky_mechanism(d, n), (x, small_int)),
    "mechanism_from_config": (lambda f, n: mechanism_from_config(
        {"mechanism": "truncated_geometric", "eps": f, "n": n}), (x, x)),
    "tight_perturbation": (lambda e, a: tight_perturbation(*LEAKY.truth, e, a), (x, x)),
}
# a fixture exists only once certified, so these may also fail their gate
FIXTURES = {
    "pdp_unverifiable_fixture": (pdp_unverifiable_fixture, (x, x, x)),
    "adp_twopoint_fixture": (adp_twopoint_fixture, (x, x, x)),
    "adp_lowfreq_fixture": (adp_lowfreq_fixture, (small_int, x, x)),
    "fi_pdp_fixture": (fi_pdp_fixture, (x, x, x)),
    "build_fixture": (lambda n: build_fixture("adp-lowfreq", {"n": n, "delta": 0.3, "alpha": 0.1}),
                      (x,)),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS) + sorted(FIXTURES))
def test_entry_points_validate_or_raise_value_error(name):
    fn, args = CONSTRUCTORS.get(name) or FIXTURES[name]
    allowed = (ValueError, CertificationError) if name in FIXTURES else ValueError

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.tuples(*args))
    def check(values):
        try:
            fn(*values)
        except allowed:
            return
        real = all(type(v) in (int, float) and math.isfinite(v) for v in values)
        assert real, f"accepted {values}"

    check()
