"""Exact factor-count censuses and coincidence counting for constructed
strongly multiplicative functions."""

from .budget import BUDGET_ENV_VAR, DEFAULT_SEGMENT_SIZE, memory_budget_mb
from .census import (
    CensusTable,
    census,
    concentration_tail,
    mode_k,
)
from .errors import CapacityError, CertificateError
from .gfunction import GEntry, GFunction, build_g, compute_maximizer
from .primeset import (
    PrimeSetS,
    coprime_count_inclusion_exclusion,
    coprime_mask,
    density_constant,
    power_prime_set,
    reciprocal_sums,
    threshold_prime_set,
)
from .proximity import (
    PhiDiagnostics,
    ProximityReport,
    ReportRow,
    certificate_count,
    coincidence_count,
    growth_report,
    phi_diagnostics,
)
from .sieve import (
    FactorCensus,
    PrimeList,
    factorize,
    is_prime,
    iter_factor_segments,
    next_prime,
    primes_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "BUDGET_ENV_VAR",
    "DEFAULT_SEGMENT_SIZE",
    "CapacityError",
    "CensusTable",
    "CertificateError",
    "FactorCensus",
    "GEntry",
    "GFunction",
    "PhiDiagnostics",
    "PrimeList",
    "PrimeSetS",
    "ProximityReport",
    "ReportRow",
    "build_g",
    "census",
    "certificate_count",
    "coincidence_count",
    "compute_maximizer",
    "concentration_tail",
    "coprime_count_inclusion_exclusion",
    "coprime_mask",
    "density_constant",
    "factorize",
    "growth_report",
    "is_prime",
    "iter_factor_segments",
    "memory_budget_mb",
    "mode_k",
    "next_prime",
    "phi_diagnostics",
    "power_prime_set",
    "primes_up_to",
    "reciprocal_sums",
    "threshold_prime_set",
]
