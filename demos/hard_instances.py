"""Certified hard instances: what testers can and cannot see.

Builds the package's certified fixture pairs, shows that a verifier is
automatically a distinguisher on a far instance, and exhibits a pair of
instances whose difference hides on an outcome too rare to ever sample.
"""

import math

import numpy as np

from dpaudit import (
    adp_twopoint_fixture,
    distinguish,
    noinfo_rate,
    pdp_unverifiable_fixture,
)


def main() -> None:
    fixture = adp_twopoint_fixture(0.1, 0.05, 0.1)
    cert = fixture.certification
    print("two-point instance pair for the claim (0.1, 0.05)-aDP:")
    print(f"  private slack {cert['delta_two_sided_private']:.6f}, "
          f"far slack {cert['delta_two_sided_far']:.6f}")
    print()

    # a tester good enough to verify the claim can also tell the far
    # instance's databases apart from samples alone
    r = math.ceil(noinfo_rate(2, 0.1, 0.05))
    tester = {"kind": "adp-budgeted", "eps": 0.1, "delta": 0.05, "alpha": 0.05, "r": r}
    correct = [0, 0]
    trials = 40
    for source_db in (0, 1):
        for trial in range(trials):
            guess, _queries = distinguish(
                tester, fixture.far_instance, source_db, 100 * source_db + trial + 1
            )
            correct[source_db] += guess == source_db
    print(f"distinguishing the far pair's databases at budget {r}:")
    print(f"  correct {correct[0]}/{trials} when sampling database 0, "
          f"{correct[1]}/{trials} when sampling database 1")
    print()

    r = 10_000
    big = math.log(100 * r)
    fixture = pdp_unverifiable_fixture(0.5, 0.2, big)
    cert = fixture.certification
    print("unverifiable pure-DP pair (violation hidden on a rare outcome):")
    print(f"  private instance is {cert['eps_private']:.3f}-pDP, far instance "
          f"only {cert['eps_far']:.3f}-pDP")
    silent = 0
    trials = 200
    for trial in range(trials):
        rng = np.random.default_rng([0, trial])
        a = rng.multinomial(r, fixture.private_instance[1].probs)
        b = rng.multinomial(r, fixture.far_instance[1].probs)
        silent += int(a[0] == 0 and b[0] == 0)
    print(f"  at {r} samples per database the telltale outcome never shows in "
          f"{silent}/{trials} runs:")
    print("  the two instances are statistically indistinguishable at any")
    print("  budget an efficient tester can afford")


if __name__ == "__main__":
    main()
