"""Property testers for differential privacy claims.

Discrete mechanisms over finite outcome spaces, exact privacy-parameter
oracles, sampling-based testers at three information levels (none, full
side information for approximate DP, full side information for pure DP),
a reduction from worst-case to random-neighbor privacy, adversarial
fixture families with certified construction gates, and an experiment
harness with a CLI.
"""

from .distributions import (
    BRUTE_FORCE_MAX_N,
    NOTIONS,
    DiscreteDistribution,
    PrivacyParams,
    approx_max_divergence_bruteforce,
    brute_force_delta,
    delta_at_epsilon,
    delta_at_epsilon_directed,
    exact_pdp_epsilon,
    kl_divergence,
    make_distribution,
    max_divergence,
    min_mass,
    tv_distance,
)
from .fixtures import (
    FIXTURE_NAMES,
    CertificationError,
    FixturePair,
    adp_lowfreq_fixture,
    adp_twopoint_fixture,
    build_fixture,
    fi_pdp_fixture,
    mean_sideinfo_fixture,
    pdp_unverifiable_fixture,
    tight_perturbation,
)
from .fullinfo import (
    adp_test_fi,
    identity_budget,
    identity_statistic,
    identity_threshold,
    pdp_test_fi,
)
from .harness import (
    ExperimentConfig,
    OCRow,
    OperatingCharacteristic,
    distinguish,
    run_experiment,
    sweep,
    wilson_interval,
)
from .mechanisms import (
    MechanismPair,
    SideInfo,
    leaky_mechanism,
    mechanism_from_config,
    randomized_response,
    truncated_geometric,
)
from .noinfo import (
    adp_test_budgeted,
    adp_test_ni,
    noinfo_rate,
)
from .outcomes import TestOutcome, Verdict
from .randomprivacy import (
    DataDistribution,
    amplification_reps,
    constant_family,
    data_distribution,
    random_privacy_test,
    sample_neighbor_pair,
    trial_count,
    value_flag_family,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "NOTIONS",
    "DiscreteDistribution",
    "PrivacyParams",
    "approx_max_divergence_bruteforce",
    "brute_force_delta",
    "delta_at_epsilon",
    "delta_at_epsilon_directed",
    "exact_pdp_epsilon",
    "kl_divergence",
    "make_distribution",
    "max_divergence",
    "min_mass",
    "tv_distance",
    "FIXTURE_NAMES",
    "CertificationError",
    "FixturePair",
    "adp_lowfreq_fixture",
    "adp_twopoint_fixture",
    "build_fixture",
    "fi_pdp_fixture",
    "mean_sideinfo_fixture",
    "pdp_unverifiable_fixture",
    "tight_perturbation",
    "adp_test_fi",
    "identity_budget",
    "identity_statistic",
    "identity_threshold",
    "pdp_test_fi",
    "ExperimentConfig",
    "OCRow",
    "OperatingCharacteristic",
    "distinguish",
    "run_experiment",
    "sweep",
    "wilson_interval",
    "MechanismPair",
    "SideInfo",
    "leaky_mechanism",
    "mechanism_from_config",
    "randomized_response",
    "truncated_geometric",
    "adp_test_budgeted",
    "adp_test_ni",
    "noinfo_rate",
    "TestOutcome",
    "Verdict",
    "DataDistribution",
    "amplification_reps",
    "constant_family",
    "data_distribution",
    "random_privacy_test",
    "sample_neighbor_pair",
    "trial_count",
    "value_flag_family",
]
