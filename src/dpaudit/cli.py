"""dp-audit command line.

Verbs: test KIND (run a tester against a mechanism or fixture, taking
only the flags KIND reads), fixture (build and emit a certified
fixture), sweep (one experiment per parameter value), calibrate
(identity-test threshold for a null), and certify (re-run a fixture's
certification gate). Exit codes: 0 on completion, 1 on usage or
configuration errors, 2 when a certification gate fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .distributions import _MAX_SIZE, DiscreteDistribution, _check, _fields, _integer, _object
from .fixtures import CERT_TOL, FIXTURE_NAMES, CertificationError, build_fixture
from .fullinfo import (
    CALIBRATION_TRIALS, IDENTITY_CONFIDENCE, identity_budget, identity_threshold
)
from .harness import _TESTERS, ExperimentConfig, run_experiment, sweep
from .noinfo import adp_test_budgeted
from .randomprivacy import (
    amplification_reps,
    constant_family,
    data_distribution,
    random_privacy_test,
    trial_count,
    value_flag_family,
)

#: Largest reduction ``test random`` runs, in samples per database:
#: trials x reps x --inner-budget. Larger runs exit 1 before they start.
MAX_REDUCTION_SAMPLES = 10**8


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve 2 for
    certification failures, so force usage errors to exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(pairs: list[str] | None, base: str | None) -> dict:
    """Fixture params from K=V flags, plus the --base file's config as "base"."""
    params = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--params entries look like key=value, got {item!r}")
        params[key] = _coerce(value)
    if base is not None:
        params["base"] = _load_json(base)
    return params


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit(doc: dict, out: str | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _load_json(path: str):
    return json.loads(Path(path).read_text())


def _target_from_args(args) -> dict:
    if args.mech is not None:
        if (args.fixture_params, args.base, args.instance) != (None, None, None):
            raise ValueError("--fixture-params, --base and --instance go with --fixture")
        target: dict = {"mechanism": _load_json(args.mech)}
    else:
        params = _parse_params(args.fixture_params, args.base)
        instance = args.instance or "private"
        target = {"fixture": {"name": args.fixture, "params": params, "instance": instance}}
    if "side" in args:
        target["side"] = args.side if args.side in ("truth", "claim") else _load_json(args.side)
    return target


def _cmd_test(args) -> int:
    fields = _TESTERS[args.tester][1]
    tester = {"kind": args.tester, **{key: getattr(args, key) for key in fields if key in args}}
    cfg = ExperimentConfig(
        tester=tester,
        target=_target_from_args(args),
        trials=args.trials,
        seed=args.seed,
        out=args.out,
    )
    oc = run_experiment(cfg)
    row = oc.grid[0]
    _emit(
        {
            "tester": args.tester,
            "trials": args.trials,
            "distance_from_claim": row.distance,
            "accept_rate": row.accept_rate,
            "wilson_95": [row.wilson_low, row.wilson_high],
            "mean_queries": row.mean_queries,
            "csv": args.out,
        },
        None,
    )
    return 0


def _cmd_test_random(args) -> int:
    # the check of MechanismPair, so that numpy's own error never leaks
    seed = _integer("seed", args.seed, 0)
    doc = _load_json(args.family)
    dist = DiscreteDistribution.from_json
    kind = _fields("family", doc, {"kind": str})["kind"]
    if kind == "constant":
        family = constant_family(_fields("constant family", doc, {"dist": dist})["dist"])
        dd = data_distribution([0], db_size=args.db_size)
    elif kind == "value_flag":
        spec = {"flag_prob": float, "flagged": dist, "plain": dist}
        fam = _fields("value_flag family", doc, spec)
        flag_prob = _check("flag_prob", fam["flag_prob"], 0.0, 1.0)
        family = value_flag_family({1}, fam["flagged"], fam["plain"])
        dd = data_distribution([0, 1], [1.0 - flag_prob, flag_prob], db_size=args.db_size)
    else:
        raise ValueError("family kind must be 'constant' or 'value_flag'")

    # the formulas check --penalty, --alpha and --gamma
    m = trial_count(args.penalty, args.alpha, args.gamma)
    k = amplification_reps(args.penalty, args.alpha)
    if m * k * args.inner_budget > MAX_REDUCTION_SAMPLES:
        raise ValueError(
            f"--penalty {args.penalty:g}, --alpha {args.alpha:g} and --gamma {args.gamma:g} "
            f"ask for {m} pairs x {k} reps = {m * k} inner tests; at --inner-budget "
            f"{args.inner_budget} that is {m * k * args.inner_budget:.3g} samples per "
            f"database, above the cap of {MAX_REDUCTION_SAMPLES:.0e}"
        )

    def inner(mech, rng):
        return adp_test_budgeted(
            mech, args.inner_eps, args.inner_delta, args.inner_alpha, args.inner_budget
        )

    outcome = random_privacy_test(
        family,
        dd,
        inner,
        gamma=args.gamma,
        alpha=args.alpha,
        penalty_weight=args.penalty,
        rng=np.random.default_rng(seed),
    )
    _emit(
        {
            "verdict": outcome.verdict.name,
            "statistic": outcome.statistic,
            "threshold": outcome.threshold,
            "queries": list(outcome.queries_used),
            "diagnostics": {
                "trials": outcome.diagnostics["trials"],
                "reps": outcome.diagnostics["reps"],
            },
        },
        args.out,
    )
    return 0


def _fixture_doc(args) -> dict:
    params = _parse_params(args.params, args.base)
    pair, _side = build_fixture(args.name, params)
    return {"name": args.name, **pair.to_json_dict()}


def _check_same(stored, fresh, path: str = "") -> None:
    """Check a stored fixture document against the ``fresh`` rebuilt one.

    Objects (stored as such or as JSON text) are compared key by key,
    distributions by probability vector, floats within CERT_TOL; anything
    else must be equal, a boolean only to a boolean. A differing value
    raises CertificationError naming its path, a missing or malformed one
    ValueError.
    """
    if isinstance(fresh, dict):
        stored = json.loads(stored) if isinstance(stored, str) else stored
        if not isinstance(stored, dict) or not stored.keys() >= fresh.keys():
            raise ValueError(f"{path or 'fixture'} must be an object holding {sorted(fresh)}")
        for key, value in fresh.items():
            _check_same(stored[key], value, f"{path}.{key}" if path else key)
        return
    if isinstance(fresh, DiscreteDistribution):
        probs = DiscreteDistribution.from_json(stored).probs
        same = probs.shape == fresh.probs.shape and np.allclose(
            probs, fresh.probs, rtol=0.0, atol=CERT_TOL
        )
    elif type(fresh) is float and type(stored) is float:
        same = math.isclose(stored, fresh, rel_tol=0.0, abs_tol=CERT_TOL)
    else:
        same = stored == fresh and isinstance(stored, bool) == isinstance(fresh, bool)
    if not same:
        raise CertificationError(f"{path} no longer matches its construction")


def _cmd_fixture(args) -> int:
    _emit(_fixture_doc(args), args.out)
    return 0


def _cmd_certify(args) -> int:
    if args.fixture_file is not None:
        if args.params is not None or args.base is not None:
            raise ValueError("--params and --base go with a fixture name, not --fixture-file")
        stored = _load_json(args.fixture_file)
        fx = _fields("fixture file", stored, {"name": str, "params": _object})
        pair, side = build_fixture(fx["name"], fx["params"])
        doc = {"name": fx["name"], **pair.to_json_dict()}
        # the distributions themselves, not their JSON text, are compared
        fresh = dict(doc, private=dict(zip(("p0", "p1"), pair.private_instance)),
                     far=dict(zip(("p0", "p1"), pair.far_instance)))
        if side is not None:
            fresh["side_info"] = {"q0": side.q0, "q1": side.q1}
        _check_same(stored, fresh)
    else:
        doc = _fixture_doc(args)
    _emit({"name": doc["name"], "certification": doc["certification"]}, args.out)
    return 0


def _cmd_sweep(args) -> int:
    values = [_coerce(v) for v in args.values.split(",") if v != ""]
    if not values:
        raise ValueError(f"--values names no value; got {args.values!r}")
    spec = {"tester": _object, "target": _object, "trials": (int, 1), "seed": (int, 0)}
    base = ExperimentConfig(**_fields("sweep config", _load_json(args.config), spec))
    results = sweep(base, args.parameter, values)
    lines = ["value,distance,accept_rate,wilson_low,wilson_high,mean_queries"]
    for value, oc in zip(values, results):
        row = oc.grid[0]
        lines.append(
            f"{value},{repr(row.distance)},{repr(row.accept_rate)},"
            f"{repr(row.wilson_low)},{repr(row.wilson_high)},{repr(row.mean_queries)}"
        )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_calibrate(args) -> int:
    _integer("--n", args.n, 2 if args.null == "twopoint" else 1, _MAX_SIZE)
    if args.null == "uniform":
        q = DiscreteDistribution(np.full(args.n, 1.0 / args.n))
    elif args.null == "twopoint":
        probs = np.zeros(args.n)
        probs[0], probs[1] = 0.75, 0.25
        q = DiscreteDistribution(probs)
    else:
        q = DiscreteDistribution.from_json(_load_json(args.null))
        if q.n != args.n:
            raise ValueError("--n does not match the null distribution file")
    budget = identity_budget(args.n, args.alpha)
    threshold = identity_threshold(q, args.alpha, args.trials)
    _emit(
        {
            "n": args.n,
            "alpha": args.alpha,
            "sample_budget": budget,
            "confidence": IDENTITY_CONFIDENCE,
            "trials": args.trials,
            "threshold": threshold,
        },
        args.out,
    )
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every verb, built on the first :func:`main` call and
    reused by the later ones: it binds only the ``_cmd_*`` functions and
    ``parse_args`` leaves it as it is."""
    parser = _Parser(prog="dp-audit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = sub.add_parser("test", help="run a tester").add_subparsers(dest="tester", required=True)
    common = _Parser(add_help=False)
    target = common.add_mutually_exclusive_group(required=True)
    target.add_argument("--mech", help="mechanism config JSON file")
    target.add_argument("--fixture", choices=FIXTURE_NAMES)
    common.add_argument("--fixture-params", nargs="*", metavar="K=V")
    common.add_argument("--base", help="base mechanism config JSON (mean-sideinfo)")
    common.add_argument("--instance", choices=("private", "far"), help="default: private")
    common.add_argument("--eps", type=float, required=True)
    common.add_argument("--alpha", type=float, required=True)
    common.add_argument("--trials", type=int, default=1)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="per-trial CSV path")
    # a kind's claim flags follow its _TESTERS fields, in the namespace only when given
    for kind, (_runner, fields) in _TESTERS.items():
        test = kinds.add_parser(kind, parents=[common], argument_default=argparse.SUPPRESS)
        if "delta" in fields:
            test.add_argument("--delta", type=float, help="default: 0")
        if "r" in fields:
            test.add_argument("--budget", dest="r", type=int, required=True,
                              help="r: samples per database")
        if kind.endswith("-fi"):
            test.add_argument("--side", help="'truth', 'claim', or a side-info JSON file")
        test.set_defaults(func=_cmd_test)

    random = kinds.add_parser("random")
    random.add_argument("--family", required=True, help="family JSON file")
    random.add_argument("--alpha", type=float, required=True)
    random.add_argument("--gamma", type=float, default=0.0)
    random.add_argument("--penalty", type=float, default=1.0)
    random.add_argument("--db-size", type=int, default=1)
    random.add_argument("--inner-eps", type=float, default=0.0)
    random.add_argument("--inner-delta", type=float, default=0.0)
    random.add_argument("--inner-alpha", type=float, required=True)
    random.add_argument("--inner-budget", type=int, required=True)
    random.add_argument("--seed", type=int, default=0)
    random.add_argument("--out", help="JSON summary path (default: stdout)")
    random.set_defaults(func=_cmd_test_random)

    fixture = sub.add_parser("fixture", help="build a certified fixture")
    fixture.add_argument("name", choices=FIXTURE_NAMES)
    fixture.add_argument("--params", nargs="*", metavar="K=V")
    fixture.add_argument("--base", help="base mechanism config JSON (mean-sideinfo)")
    fixture.add_argument("--out")
    fixture.set_defaults(func=_cmd_fixture)

    sweep_p = sub.add_parser("sweep", help="one experiment per parameter value")
    sweep_p.add_argument("--config", required=True, help="experiment config JSON")
    sweep_p.add_argument("--parameter", required=True)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out")
    sweep_p.set_defaults(func=_cmd_sweep)

    calibrate = sub.add_parser("calibrate", help="identity-test threshold")
    calibrate.add_argument("--n", type=int, required=True)
    calibrate.add_argument("--alpha", type=float, required=True)
    calibrate.add_argument("--null", default="uniform", help="uniform, twopoint, or a JSON file")
    calibrate.add_argument("--trials", type=int, default=CALIBRATION_TRIALS)
    calibrate.add_argument("--out")
    calibrate.set_defaults(func=_cmd_calibrate)

    certify = sub.add_parser("certify", help="re-run a fixture's certification gate")
    which = certify.add_mutually_exclusive_group(required=True)
    which.add_argument("name", nargs="?", choices=FIXTURE_NAMES)
    which.add_argument("--fixture-file", help="re-certify an emitted fixture JSON")
    certify.add_argument("--params", nargs="*", metavar="K=V")
    certify.add_argument("--base", help="base mechanism config JSON (mean-sideinfo)")
    certify.add_argument("--out")
    certify.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
