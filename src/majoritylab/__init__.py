"""Comparison-based majority finding: algorithms, certificates, experiments.

Balls have hidden colors reachable only through a counting equality oracle.
The package provides the classic two-pass baseline, a randomized Las Vegas
algorithm that beats it on average, transcript-backed certificates with an
independent checker, an adversary-world laboratory for the matching lower
bound, and a benchmark CLI.
"""

from .answers import Answer, Certificate, ContractViolation
from .boyer_moore import boyer_moore
from .certify import (
    CheckResult,
    EqStructure,
    InconsistentTranscript,
    answer_matches_brute_force,
    brute_force_majority,
    build_eq_structure,
    check_majority_claim,
    check_no_majority_claim,
    verify_run,
)
from .core import (
    ComparisonRecord,
    CountingOracle,
    DistributionSpec,
    Instance,
    Transcript,
    generate,
    parse_distribution,
    read_instance,
    relabel,
    write_instance,
)
from .lowerbound import (
    STRATEGIES,
    BalanceStats,
    beta_interval,
    lower_bound_constant,
    normal_cdf,
    predict_bound,
    simulate_balance,
)
from .randomized import (
    LevelStats,
    Params,
    RunStats,
    heavy,
    majority,
)
from .rng import RandomStream, derive_seed

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "Certificate",
    "ContractViolation",
    "boyer_moore",
    "CheckResult",
    "EqStructure",
    "InconsistentTranscript",
    "answer_matches_brute_force",
    "brute_force_majority",
    "build_eq_structure",
    "check_majority_claim",
    "check_no_majority_claim",
    "verify_run",
    "ComparisonRecord",
    "CountingOracle",
    "DistributionSpec",
    "Instance",
    "Transcript",
    "generate",
    "parse_distribution",
    "read_instance",
    "relabel",
    "write_instance",
    "STRATEGIES",
    "BalanceStats",
    "beta_interval",
    "lower_bound_constant",
    "normal_cdf",
    "predict_bound",
    "simulate_balance",
    "LevelStats",
    "Params",
    "RunStats",
    "heavy",
    "majority",
    "RandomStream",
    "derive_seed",
    "__version__",
]
