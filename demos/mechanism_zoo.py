"""The built-in mechanism pairs and their exact privacy levels.

Each constructor returns a two-database black box with known output
distributions; the oracles confirm the advertised eps or delta exactly.
"""

import math

import numpy as np

from dpaudit import (
    MechanismPair,
    delta_at_epsilon,
    exact_pdp_epsilon,
    leaky_mechanism,
    randomized_response,
    truncated_geometric,
)


def main() -> None:
    rr = randomized_response(0.25)
    print("randomized response, flip probability 0.25")
    print("  truth:", rr.truth[0].probs, rr.truth[1].probs)
    print(f"  exact pure-DP eps = {exact_pdp_epsilon(*rr.truth):.6f}"
          f"  (ln 3 = {math.log(3.0):.6f})")
    print()

    tg = truncated_geometric(0.5, 8)
    print("truncated geometric, eps 0.5, universe size 8")
    print("  truth[0]:", np.round(tg.truth[0].probs, 4))
    print("  truth[1]:", np.round(tg.truth[1].probs, 4))
    print(f"  exact pure-DP eps = {exact_pdp_epsilon(*tg.truth):.6f}")
    print()

    leaky = leaky_mechanism(0.3)
    print("leaky mechanism, delta 0.3 (private except for a telltale outcome)")
    print("  truth[0]:", leaky.truth[0].probs)
    print("  truth[1]:", leaky.truth[1].probs)
    print(f"  slack at eps=0:   {delta_at_epsilon(*leaky.truth, 0.0):.6f}")
    print(f"  slack at eps=1:   {delta_at_epsilon(*leaky.truth, 1.0):.6f}")
    print("  no finite eps makes the slack vanish: the telltale outcomes are")
    print("  disjoint across the two databases")
    print()

    # drawing is seeded and counted per database
    counts = rr.draw(0, 10_000)
    print("10000 draws from database 0 of randomized response:", counts)
    print("query counter now:", tuple(rr.query_counter))
    fresh = MechanismPair(*rr.truth, seed=123)
    print("spawned copy starts at:", tuple(fresh.query_counter), "(same truth)")


if __name__ == "__main__":
    main()
