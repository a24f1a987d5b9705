"""Operating characteristic of the no-information slack tester.

Starting from a pair with known slack, builds instances whose slack
exceeds the claim by exactly alpha (for a grid of alphas) using the
tight perturbation, then measures how often the histogram tester still
accepts. The acceptance probability collapses right around the tester's
own proximity parameter.
"""

import math

import numpy as np

from dpaudit import (
    MechanismPair,
    adp_test_budgeted,
    delta_at_epsilon,
    noinfo_rate,
    randomized_response,
    tight_perturbation,
    wilson_interval,
)

EPS = 0.5
TESTER_ALPHA = 0.1
TRIALS = 60


def main() -> None:
    base_pair = randomized_response(0.25)
    p0, p1 = base_pair.truth
    delta_claim = delta_at_epsilon(p0, p1, EPS)
    r = math.ceil(noinfo_rate(p0.n, EPS, TESTER_ALPHA))
    print(f"claim: ({EPS}, {delta_claim:.4f})-aDP; tester alpha {TESTER_ALPHA}, "
          f"budget {r} samples per database")
    print()
    print(f"{'distance':>9} {'accept rate':>12} {'95% interval':>20}")

    for distance in (0.0, 0.02, 0.06, 0.10, 0.14, 0.20):
        if distance == 0.0:
            q0, q1 = p0, p1
        else:
            q0, q1, _ = tight_perturbation(p0, p1, EPS, distance)
        accepts = 0
        for trial in range(TRIALS):
            mech = MechanismPair(q0, q1, seed=trial + 1)
            out = adp_test_budgeted(mech, EPS, delta_claim, TESTER_ALPHA, r)
            accepts += out.accepted
        low, high = wilson_interval(accepts, TRIALS)
        print(f"{distance:9.2f} {accepts / TRIALS:12.3f}      [{low:.3f}, {high:.3f}]")

    print()
    print("instances within the claim are accepted, instances more than the")
    print("tester's alpha beyond it are rejected; in between the statistic")
    print("sits near its threshold and the verdict is a coin flip")


if __name__ == "__main__":
    main()
