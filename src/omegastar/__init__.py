"""Shifted-prime divisor experiments.

For each n >= 1, omega*(n) counts the divisors d of n such that d + 1 is
prime.  This package computes omega* pointwise and in bulk, its moments
M_k(x), the pair-counting and randomized divisor-set machinery that drives
the known lower bounds on its maximal order, the associated optimized
constants, and smooth-number censuses Psi(x, y) / pi(x, y).  Everything is
exact at desk scale and validated against brute-force oracles; the CLI
emits deterministic CSV/JSON.
"""

from types import ModuleType as _ModuleType

from .sieve import (
    Factorization,
    PrimeTable,
    ResourceLimitError,
    factorize,
    is_prime,
    primes_in_ap,
    sieve_primes,
)
from .arith import (
    count_coprime_up_to,
    divisors,
    tau,
)
from .omega import (
    OmegaStarTable,
    moment_scan,
    moment_sum,
    omega_star,
    omega_star_table,
)
from .constants import (
    GOLDEN_RATIO,
    GRH_U,
    UNCONDITIONAL_THETA,
    UNCONDITIONAL_U,
    GrhConstants,
    OptimumReport,
    apr_conjecture_bound,
    f_theta,
    grh_constants,
    maximize_f_theta,
)
from .construction import (
    ChampionRecord,
    ConstructionParams,
    DivisorSample,
    ExactEnumeration,
    PairCountReport,
    SampleStats,
    build_params,
    champion_search,
    chebyshev_bounds,
    count_A_d,
    count_representations,
    entropy_lower_bound,
    enumerate_D_exact,
    log_d_moments,
    pair_count_report,
    sample_divisor,
    sample_stats,
    total_pairs_A,
)
from .smooth import (
    PomeranceRatio,
    SmoothCensus,
    log_psi_leading,
    pomerance_ratio,
    smooth_census,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
