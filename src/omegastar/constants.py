"""The divisor-size rate function f_theta and the optimized constants built on it.

f_theta(t) = (t log t - (t - theta) log(t - theta) - theta log theta) / (t + 1 - theta)

governs how many representations n = m(p - 1) a random divisor of size ~x^theta
can contribute; its maximum over t >= theta is the achievable exponent in the
lower bound exp(c * log n / log log n) for the maximal order of omega*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Parameters of the two regimes: theta = 1/2 is attainable under GRH, where the
# maximizing t is (3 + sqrt 5)/4; theta = 0.4736 is the unconditional exponent
# from Harman's sieve results, with maximizing t ~ 1.2694.
GRH_U = (3.0 + math.sqrt(5.0)) / 4.0
# The GRH exponent constant C = (u + 1/2) log golden = 0.87052...
GRH_C = (GRH_U + 0.5) * math.log(GOLDEN_RATIO)
UNCONDITIONAL_THETA = 0.4736
UNCONDITIONAL_U = 1.2694

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section bracket [theta, _SEARCH_UPPER] and its step count.
_SEARCH_UPPER = 64.0
_SEARCH_ITERATIONS = 200


@dataclass
class OptimumReport:
    theta: float
    u_star: float
    f_max: float
    f_over_log2: float


def grh_residuals() -> dict[str, float]:
    """How far GRH_U, GOLDEN_RATIO and GRH_C miss the identities
    2u/(2u - 1) = sqrt(2u) = (1 + sqrt 5)/2 and C = (u + 1/2) log golden."""
    u, golden = GRH_U, GOLDEN_RATIO
    first_form = 0.5 * math.log(2 * u) + (u - 0.5) * math.log(2 * u / (2 * u - 1))
    return {
        "ratio_identity": abs(2 * u / (2 * u - 1) - golden),
        "sqrt_identity": abs(math.sqrt(2 * u) - golden),
        "half_sum": abs((u + 0.5) - (5 + math.sqrt(5)) / 4),
        "C_identity": abs(GRH_C - (u + 0.5) * math.log(golden)),
        "C_first_form": abs(GRH_C - first_form),
    }


def f_theta(theta: float, t: float) -> float:
    """Evaluate the rate function; at t = theta the (t-theta)log(t-theta) term
    is taken at its limit 0."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    if t < theta:
        raise ValueError(f"t must be >= theta, got t={t}, theta={theta}")
    if t == theta:
        return 0.0
    num = t * math.log(t) - (t - theta) * math.log(t - theta) - theta * math.log(theta)
    return num / (t + 1.0 - theta)


def maximize_f_theta(theta: float) -> OptimumReport:
    """Locate the unique maximum of f_theta on [theta, _SEARCH_UPPER] by
    golden-section search; 200 iterations shrink the bracket far below 1e-9."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    a, b = theta, _SEARCH_UPPER
    for _ in range(_SEARCH_ITERATIONS):
        c = b - (b - a) * _INV_GOLDEN
        d = a + (b - a) * _INV_GOLDEN
        if f_theta(theta, c) < f_theta(theta, d):
            a = c
        else:
            b = d
    u_star = 0.5 * (a + b)
    f_max = f_theta(theta, u_star)
    return OptimumReport(theta=theta, u_star=u_star, f_max=f_max, f_over_log2=f_max / math.log(2.0))


def apr_conjecture_bound(theta: float) -> float:
    """(2 theta / (theta + 1)) log 2: the exponent recovered by evaluating the
    rate function at t = 2 theta; tends to the conjectured-optimal log 2 as
    theta -> 1 (and equals it at theta = 1)."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    return (2.0 * theta / (theta + 1.0)) * math.log(2.0)
