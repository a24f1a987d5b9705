"""Hardness fixtures: paired instances that stress or defeat the testers.

Each builder returns a FixturePair holding a private instance (meets the
privacy claim) and a far instance (violates it by at least the stated
margin), together with a certification report computed by the exact
divergence oracles at construction time. Construction fails with
CertificationError if any certified quantity misses its target, so a
fixture that exists is a fixture that has been verified. An instance is
a plain (p0, p1) pair of output distributions; a tester samples it
through a ``MechanismPair`` of its own, as ``harness.distinguish`` does.

Outcome label convention: the distinguished outcomes are indices 0, 1, 2
of the probability vectors; block fixtures lay their three index ranges
out contiguously.

The CLI and the harness build fixtures by name through one registry,
``_FIXTURES``: name -> (builder, fields). ``build_fixture`` reads the
listed parameters through the package's one document reader
(``distributions._fields``: an ``int`` one only if it has no fractional
part) and ignores other keys, so an emitted document, whose params also
hold derived values, rebuilds as is.
To add a fixture, add its entry there; ``FIXTURE_NAMES`` and the CLI's
choices follow.

``FixturePair.to_json_dict`` alone decides what a fixture document looks
like (``dp-audit fixture`` emits it, ``certify --fixture-file`` checks a
stored file against it): each distribution, and fi-pdp's ``side_info``,
is the nested object its ``from_json`` reads, not JSON text.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .distributions import (
    _EPS_MAX,
    BRUTE_FORCE_MAX_N,
    _MAX_SIZE,
    DiscreteDistribution,
    PrivacyParams,
    _check,
    _entry,
    _fields,
    _integer,
    _object,
    _paired,
    _slack,
    brute_force_delta,
    delta_at_epsilon,
    exact_pdp_epsilon,
    kl_divergence,
    min_mass,
    tv_distance,
)
from .mechanisms import _GEOMETRIC_EPS_MAX, SideInfo, mechanism_from_config

Instance = tuple[DiscreteDistribution, DiscreteDistribution]

#: Absolute tolerance for "exactly" in certification checks.
CERT_TOL = 1e-12


class CertificationError(Exception):
    """A fixture's construction-time verification failed."""


def _certify(ok: bool, message: str) -> None:
    if not ok:
        raise CertificationError(message)


@dataclass(frozen=True)
class FixturePair:
    """A certified (private instance, far instance) pair for one claim;
    ``side`` holds the claimed distributions of fi-pdp, None elsewhere."""

    private_instance: Instance
    far_instance: Instance
    params: dict
    claim: PrivacyParams
    certification: dict = field(default_factory=dict)
    side: SideInfo | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "claim": asdict(self.claim),
            "params": dict(self.params),
            "private": {
                "p0": self.private_instance[0].to_json(),
                "p1": self.private_instance[1].to_json(),
            },
            "far": {
                "p0": self.far_instance[0].to_json(),
                "p1": self.far_instance[1].to_json(),
            },
            "certification": dict(self.certification),
        }
        if self.side is not None:
            doc["side_info"] = self.side.to_json()
        return doc


def pdp_unverifiable_fixture(eps: float, alpha: float, A: float) -> FixturePair:
    """Two pDP instances no sample-bounded tester can tell apart.

    Both instances share database 0; their database-1 distributions put
    e^{-A} versus e^{-2A} mass on outcome 0, so they differ only on an
    outcome that essentially never appears, yet one pair is eps-pDP and
    the other has privacy parameter A - eps. Separating them needs on
    the order of e^A / A samples.

    Requires A > 2 eps + alpha (so the far instance really is far),
    A >= ln(1 + e^{-eps}) (so the private instance's outcome-1 ratio
    stays within eps; very small A breaks that side) and A <= -ln(smallest
    normal float) / 2 ~ 354.2 (so e^{-2A} is a normal float).
    """
    _check("eps", eps, 0.0, _EPS_MAX)
    _check("alpha", alpha, 0.0, open_low=True)
    _check("A", A, 2.0 * eps + alpha, _GEOMETRIC_EPS_MAX / 2.0, open_low=True)
    _check("A", A, math.log(1.0 + math.exp(-eps)))

    p0 = DiscreteDistribution([math.exp(-A - eps), 1.0 - math.exp(-A - eps)])
    p1 = DiscreteDistribution([math.exp(-A), 1.0 - math.exp(-A)])
    q1 = DiscreteDistribution([math.exp(-2.0 * A), 1.0 - math.exp(-2.0 * A)])

    eps_private = exact_pdp_epsilon(p0, p1)
    eps_far = exact_pdp_epsilon(p0, q1)
    _certify(eps_private <= eps + CERT_TOL, "private instance exceeds eps")
    _certify(abs(eps_far - (A - eps)) <= CERT_TOL, "far instance is not A - eps")
    _certify(eps_far >= eps + alpha - CERT_TOL, "far instance is not alpha-far")

    return FixturePair(
        private_instance=(p0, p1),
        far_instance=(p0, q1),
        params={
            "eps": eps,
            "alpha": alpha,
            "A": A,
            "kl_p1_q1": kl_divergence(p1, q1),
        },
        claim=PrivacyParams(epsilon=eps, notion="pDP"),
        certification={
            "eps_private": eps_private,
            "eps_far": eps_far,
            "rare_outcome_mass": float(p1.probs[0]),
        },
    )


def adp_twopoint_fixture(eps: float, delta: float, alpha: float) -> FixturePair:
    """Two-outcome aDP pair whose slack is tight in one direction.

    Database 0 is uniform; database 1 bumps outcome 0 to e^eps/2 + delta
    (private) or e^eps/2 + delta + alpha (far), making the directed slack
    from database 1 to database 0 exactly delta, respectively
    delta + alpha. The direction-symmetric slack is strictly larger (the
    reverse direction of the private pair already exceeds delta); the
    certification reports both, and the fixture's tightness claims are
    about the directed value.
    """
    _check("eps", eps, 0.0, _EPS_MAX)
    _check("delta", delta, 0.0, 1.0)
    _check("alpha", alpha, 0.0, open_low=True)
    if math.exp(eps) / 2.0 + delta + alpha >= 1.0:
        raise ValueError("need e^eps / 2 + delta + alpha < 1")

    uniform = DiscreteDistribution([0.5, 0.5])
    bump = math.exp(eps) / 2.0
    p1 = DiscreteDistribution([bump + delta, 1.0 - bump - delta])
    q1 = DiscreteDistribution([bump + delta + alpha, 1.0 - bump - delta - alpha])

    d_private, rev_private = _slack(p1.probs, uniform.probs, eps)
    d_far, rev_far = _slack(q1.probs, uniform.probs, eps)
    _certify(abs(d_private - delta) <= CERT_TOL, "private directed slack != delta")
    _certify(
        abs(d_far - (delta + alpha)) <= CERT_TOL, "far directed slack != delta + alpha"
    )

    return FixturePair(
        private_instance=(uniform, p1),
        far_instance=(uniform, q1),
        params={"eps": eps, "delta": delta, "alpha": alpha, "kl_p1_q1": kl_divergence(p1, q1)},
        claim=PrivacyParams(epsilon=eps, delta=delta, notion="aDP"),
        certification={
            "delta_directed_private": d_private,
            "delta_directed_far": d_far,
            "delta_two_sided_private": max(rev_private, d_private),
            "delta_two_sided_far": max(rev_far, d_far),
        },
    )


def adp_lowfreq_fixture(n: int, delta: float, alpha: float) -> FixturePair:
    """Low-frequency aDP pair: the violation hides on mass-3a/n outcomes.

    The universe splits into three equal blocks. The shared distribution
    spreads mass a over block 1 and 1 - a over block 2; the far pair's
    second distribution relocates block 1's mass to block 3. The two
    pairs agree on every outcome of probability above 3a/n, which forces
    any tester to see on the order of n samples before the difference
    surfaces.

    With a = (2 delta + alpha) / 3 and eta = (delta - alpha) / 3, each
    direction of the far pair has slack exactly a and the two directions
    sum to 2a >= delta + alpha; the private pair's slack is 0. The
    certification records both the per-direction value and the sum.
    """
    n = _integer("n", n, 3, _MAX_SIZE)
    if n % 3:
        raise ValueError(f"n must be a multiple of 3; got {n}")
    _check("delta", delta, 0.0, 1.0, open_low=True)
    _check("alpha", alpha, 0.0, delta, open_low=True, open_high=True)

    a = (2.0 * delta + alpha) / 3.0
    eta = (delta - alpha) / 3.0
    block = n // 3
    lo_mass = 3.0 * a / n
    hi_mass = 3.0 * (1.0 - a) / n

    shared = np.zeros(n)
    shared[:block] = lo_mass
    shared[block : 2 * block] = hi_mass
    moved = np.zeros(n)
    moved[block : 2 * block] = hi_mass
    moved[2 * block :] = lo_mass
    x = DiscreteDistribution(shared)
    y = DiscreteDistribution(moved)

    d_private = delta_at_epsilon(x, x, 0.0)
    d_fwd, d_rev = _slack(x.probs, y.probs, 0.0)
    _certify(d_private <= CERT_TOL, "private pair has nonzero slack")
    _certify(abs(d_fwd - a) <= CERT_TOL, "far forward slack != a")
    _certify(abs(d_rev - a) <= CERT_TOL, "far reverse slack != a")
    _certify(
        d_fwd + d_rev >= delta + alpha - CERT_TOL,
        "far pair's direction sum is below delta + alpha",
    )
    brute_checked = n <= BRUTE_FORCE_MAX_N
    if brute_checked:
        _certify(
            abs(brute_force_delta(x, y, 0.0) - a) <= CERT_TOL,
            "brute-force slack disagrees with the pointwise oracle",
        )

    return FixturePair(
        private_instance=(x, x),
        far_instance=(x, y),
        params={
            "n": n,
            "delta": delta,
            "alpha": alpha,
            "a": a,
            "b": 2.0 * a,
            "eta": eta,
            "low_mass": lo_mass,
            "high_mass": hi_mass,
        },
        claim=PrivacyParams(epsilon=0.0, delta=delta, notion="aDP"),
        certification={
            "delta_private": d_private,
            "delta_far_forward": d_fwd,
            "delta_far_reverse": d_rev,
            "delta_far_direction_sum": d_fwd + d_rev,
            "brute_force_checked": brute_checked,
        },
    )


def fi_pdp_fixture(eps: float, alpha: float, beta: float) -> FixturePair:
    """Full-information pDP fixture: claimed distributions plus two truths.

    The claimed pair (``side``, also the private instance) puts beta on
    each of two distinguished outcomes in database 0 and tilts them by
    e^{+-eps} in database 1, so its exact privacy parameter is eps on
    the nose. The far truth multiplies the
    first outcome's database-0 mass by e^{-alpha}, moving the worst
    ratio to exactly eps + alpha while staying within KL beta * alpha^2
    of the claim, the gap that forces Omega(1/(beta alpha^2)) samples.
    beta e^{-eps} and beta e^{-alpha} must be normal floats (to within an
    ulp at the bounds), which bounds beta from below and alpha from above.
    """
    _check("eps", eps, 0.0, math.log(2.0), open_low=True, open_high=True)
    # beta <= 1 / (1 + e^eps) < 1/2, as eps > 0
    _check("beta", beta, math.exp(eps - _GEOMETRIC_EPS_MAX), 1.0 / (1.0 + math.exp(eps)))
    _check("alpha", alpha, 0.0, _GEOMETRIC_EPS_MAX + math.log(beta), open_low=True)

    e_pos, e_neg, e_neg_a = math.exp(eps), math.exp(-eps), math.exp(-alpha)
    q0 = DiscreteDistribution([beta, beta, 1.0 - 2.0 * beta])
    q1 = DiscreteDistribution([e_pos * beta, e_neg * beta, 1.0 - (e_pos + e_neg) * beta])
    p0_far = DiscreteDistribution([e_neg_a * beta, (2.0 - e_neg_a) * beta, 1.0 - 2.0 * beta])

    eps_side = exact_pdp_epsilon(q0, q1)
    eps_far = exact_pdp_epsilon(p0_far, q1)
    kl_gap = kl_divergence(p0_far, q0)
    _certify(abs(eps_side - eps) <= CERT_TOL, "claimed pair is not exactly eps-pDP")
    _certify(
        abs(eps_far - (eps + alpha)) <= CERT_TOL,
        "far truth is not exactly (eps + alpha)-pDP",
    )
    _certify(kl_gap <= beta * alpha * alpha + CERT_TOL, "KL gap exceeds beta alpha^2")

    return FixturePair(
        private_instance=(q0, q1),
        far_instance=(p0_far, q1),
        params={"eps": eps, "alpha": alpha, "beta": beta, "kl_p0far_q0": kl_gap},
        claim=PrivacyParams(epsilon=eps, notion="pDP"),
        certification={
            "eps_side": eps_side,
            "eps_far": eps_far,
            "min_mass_side": min_mass([q0, q1]),
        },
        side=SideInfo(q0, q1),
    )


def mean_sideinfo_fixture(eps: float, alpha: float, A: float, base: Instance) -> FixturePair:
    """Mixture fixture with matching low-order behavior but infinite eps.

    The far instance leaks e^{-A} of database 0's mass onto the last
    outcome, which database 1 never emits, so its true privacy parameter
    is infinite while every sampled statistic (means included) matches
    the private instance to within e^{-A}. The base (p0, p1), the private
    instance, must be eps-pDP and put zero mass on the last outcome. A is
    at most -ln(smallest normal float) ~ 708.4, so the leak is a normal float.
    """
    _check("eps", eps, 0.0, _EPS_MAX)
    _check("alpha", alpha, 0.0, open_low=True)
    _check("A", A, 0.0, _GEOMETRIC_EPS_MAX, open_low=True)
    p0, p1 = base
    if p0.probs[-1] != 0.0 or p1.probs[-1] != 0.0:
        raise ValueError("base must put zero mass on the last outcome")
    eps_base = exact_pdp_epsilon(p0, p1)
    if eps_base > eps + CERT_TOL:
        raise ValueError("base mechanism is not eps-pDP")

    leak = math.exp(-A)
    q0 = np.array(p0.probs) * (1.0 - leak)
    q0[-1] = leak
    q0d = DiscreteDistribution(q0)

    eps_far = exact_pdp_epsilon(q0d, p1)
    tv_gap = tv_distance(p0, q0d)
    _certify(math.isinf(eps_far), "far instance should have infinite parameter")
    _certify(abs(tv_gap - leak) <= CERT_TOL, "TV gap is not exactly e^-A")

    return FixturePair(
        private_instance=(p0, p1),
        far_instance=(q0d, p1),
        params={"eps": eps, "alpha": alpha, "A": A, "leak_mass": leak},
        claim=PrivacyParams(epsilon=eps, notion="pDP"),
        certification={
            "eps_private": eps_base,
            "eps_far": eps_far,
            "tv_p0_q0": tv_gap,
        },
    )


def tight_perturbation(
    p0: DiscreteDistribution,
    p1: DiscreteDistribution,
    eps: float,
    alpha: float,
) -> tuple[DiscreteDistribution, DiscreteDistribution, dict]:
    """Perturb a pair within TV alpha so its slack grows by exactly alpha.

    Works whenever the pair's slack is positive and
    alpha <= (1 - slack) / (1 + e^eps). The perturbed pair (returned with
    a report dict) satisfies TV(p0, q0) <= alpha and TV(p1, q1) <= alpha
    and has direction-symmetric slack exactly slack + alpha, certified to
    1e-12 by the oracle before returning.

    Preferred move: scale alpha e^{-eps} of the second distribution's
    mass out of the witness event, which raises the forward slack by
    exactly alpha and provably cannot push the reverse direction past it.
    When the witness event carries too little of that mass, fall back to
    shifting the first distribution's mass into the event, sized by
    bisection because the removal side can wake up the reverse direction.
    Either move raises ValueError when the outcomes outside the witness
    event have no room for the moved mass. The function holds at every
    eps up to ``_EPS_MAX``: once alpha e^{-eps} underflows to 0 an event
    without low mass is not drained (that would divide 0 by 0), and the
    grow move finds that alpha is below the slack's float resolution.

    The bisection works on Python lists, which ``_slack`` sums without
    numpy below ``_SHORT_ROW`` outcomes. Each candidate entry is the one
    IEEE product h * grow or h * shrink that numpy's masked in-place
    multiply forms, with the factors rounded as before, so the bisection
    takes the same steps and returns numpy's bits.
    """
    _check("eps", eps, 0.0, _EPS_MAX)
    fwd0, rev0 = _slack(*_paired(p0, p1), eps)
    base = max(fwd0, rev0)
    if base <= 0.0:
        raise ValueError("pair must have positive slack")
    _check("alpha", alpha, 0.0, (1.0 - base) / (1.0 + math.exp(eps)), open_low=True)

    swapped = rev0 > fwd0
    hi, lo = (p1.probs, p0.probs) if swapped else (p0.probs, p1.probs)
    event = hi > math.exp(eps) * lo
    outside = ~event
    target = base + alpha

    t = alpha * math.exp(-eps)
    lo_event = float(lo[event].sum())
    # t underflows to 0 at large eps; an empty event then has nothing to drain
    if lo_event >= t and lo_event > 0.0:
        # Drain t of the low distribution's event mass; the forward
        # witness gains e^eps * t = alpha and the reverse direction can
        # rise by at most t, which stays below the new forward value.
        lo_new = lo.copy()
        lo_new[event] *= 1.0 - t / lo_event
        outside_mass = float(lo[outside].sum())
        if outside_mass > 0.0:
            lo_new[outside] *= 1.0 + t / outside_mass
        elif outside.any():
            receiver = int(np.argmax(np.where(event, -np.inf, hi)))
            lo_new[receiver] += t
        else:
            raise ValueError("no room outside the witness event")
        hi_new = hi
        info = {"branch": "drain_low", "moved": t}
    else:
        # Move mass of the high distribution into the event. The removal
        # outside the event can enlarge the reverse direction, so find
        # the exact perturbation size by bisection on the TV budget.
        event_mass = float(hi[event].sum())
        outside_mass = float(hi[outside].sum())
        if outside_mass < alpha:
            raise ValueError("no room outside the witness event")
        rows = list(zip(hi.tolist(), event.tolist()))
        lo_row = lo.tolist()

        def at(theta: float) -> list:
            grow = 1.0 + theta * alpha / event_mass
            shrink = 1.0 - theta * alpha / outside_mass
            return [h * grow if e else h * shrink for h, e in rows]

        low_theta, mid, high_theta = 0.0, 0.5, 1.0
        # the full move always reaches the target in real arithmetic
        # (the witness side gains exactly alpha at theta = 1); leave one
        # order of magnitude under CERT_TOL for rounding in the sums
        if max(_slack(at(1.0), lo_row, eps)) < target - 1e-13:
            raise ValueError("perturbation cannot reach the target slack")
        # halve until the midpoint rounds onto an endpoint; an alpha below
        # the slack's float resolution (target == base) moves nothing
        if target == base:
            high_theta = 0.0
        while low_theta < mid < high_theta:
            if max(_slack(at(mid), lo_row, eps)) < target:
                low_theta = mid
            else:
                high_theta = mid
            mid = 0.5 * (low_theta + high_theta)
        hi_new = at(high_theta)
        lo_new = lo
        info = {"branch": "grow_high", "theta": high_theta}

    q_hi = DiscreteDistribution(hi_new)
    q_lo = DiscreteDistribution(lo_new)
    q0, q1 = (q_lo, q_hi) if swapped else (q_hi, q_lo)

    achieved = delta_at_epsilon(q0, q1, eps)
    tv0, tv1 = tv_distance(p0, q0), tv_distance(p1, q1)
    _certify(abs(achieved - target) <= CERT_TOL, "perturbed slack is not base + alpha")
    _certify(tv0 <= alpha + CERT_TOL and tv1 <= alpha + CERT_TOL, "TV budget exceeded")
    info.update({"base_slack": base, "achieved": achieved, "tv0": tv0, "tv1": tv1})
    return q0, q1, info


def _mean_sideinfo(eps: float, alpha: float, A: float, base: dict):
    pair = mean_sideinfo_fixture(eps, alpha, A, mechanism_from_config(base).truth)
    # Keep the base config in params so an emitted fixture document can be
    # rebuilt and re-certified from the file alone.
    pair.params["base"] = base
    return pair


#: name -> (builder, fields)
_FIXTURES = {
    "pdp-unverifiable": (pdp_unverifiable_fixture, {"eps": float, "alpha": float, "A": float}),
    "adp-twopoint": (adp_twopoint_fixture, {"eps": float, "delta": float, "alpha": float}),
    "adp-lowfreq": (adp_lowfreq_fixture, {"n": int, "delta": float, "alpha": float}),
    "fi-pdp": (fi_pdp_fixture, {"eps": float, "alpha": float, "beta": float}),
    "mean-sideinfo": (_mean_sideinfo, {"eps": float, "alpha": float, "A": float, "base": _object}),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def build_fixture(
    name: str, params: dict, seed: int = 0
) -> tuple[FixturePair, SideInfo | None]:
    """Build a fixture by registry name from a flat parameter mapping.

    Returns ``(pair, pair.side)``. mean-sideinfo expects a ``base`` entry
    holding a mechanism config document. The package's document reader
    reads ``params``: an unknown name, a missing parameter, a value of the
    wrong type or an integer parameter with a fractional part raises
    ValueError naming the fixture. ``seed`` is ignored, as a fixture holds
    no streams; it stays only because ``benchmarks/workloads.py``
    (``ExactCertify._run``) passes it.
    """
    builder, spec = _entry(_FIXTURES, "fixture name", name)
    pair = builder(**_fields(f"{name} fixture", params, spec))
    return pair, pair.side
