"""Smooth-number censuses: P+(n), Psi(x, y), pi(x, y), and the ratio they feed.

An integer is y-smooth when its greatest prime factor P+(n) is at most y
(P+(1) = 1).  Psi(x, y) counts y-smooth n <= x; pi(x, y) counts primes p <= x
with p - 1 y-smooth.  Both come from one segmented sieve pass that peels
prime powers out of a remainder array (exactness over Buchstab-style
recursion) while marking primality alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import sieve
from .sieve import _primes_upto, _segment_flags, check_ceiling, factorize

import numpy as np


@dataclass
class SmoothCensus:
    x: int
    y: int
    psi: int
    pi_smooth: int
    pi_x: int


class PomeranceRatio(NamedTuple):
    lhs: float
    rhs: float
    quotient: float


@dataclass
class AprComparisonReport:
    """Census-side vs analytic-side of the representation-count lower bound
    at y = round(v log x); all values are logged, nothing is asserted."""

    x: int
    v: float
    y: int
    y_unrounded: float
    psi_x_y: int
    psi_x2_y: int
    statistic: float
    comparator: float


def greatest_prime_factor(n: int) -> int:
    """P+(n): the largest prime dividing n, with P+(1) = 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return 1
    return factorize(n).factors[-1][0]


def smooth_census(x: int, y: int, count_primes: bool = True) -> SmoothCensus:
    """One pass over [1, x] in segments of sieve._SEGMENT producing Psi(x, y),
    pi(x, y), pi(x).

    Per segment, a remainder array is divided once by p for every prime power
    p^e <= x dividing the entry; entries reduced to 1 are exactly the y-smooth
    ones.  Primality flags ride along so p - 1 smoothness is read off with a
    one-element carry across segment boundaries.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    if y < 1:
        raise ValueError("y must be at least 1")
    check_ceiling(x, "smooth census size")

    root = math.isqrt(x)
    base = _primes_upto(max(root, min(y, x))).tolist()
    peel = [p for p in base if p <= y]
    mark = [p for p in base if p <= root]

    psi = 0
    pi_x = 0
    pi_smooth = 0
    prev_smooth = True  # carry for n - 1 across segments; n = 1 has no predecessor in range
    for lo in range(1, x + 1, sieve._SEGMENT):
        hi = min(lo + sieve._SEGMENT, x + 1)
        rem = np.arange(lo, hi, dtype=np.int64)
        for p in peel:
            q = p
            while q < hi:
                start = ((lo + q - 1) // q) * q
                if start < hi:
                    rem[start - lo :: q] //= p
                q *= p
        smooth = rem == 1
        psi += int(smooth.sum())
        if count_primes:
            prime = _segment_flags(lo, hi, mark).view(bool)
            pi_x += int(prime.sum())
            shifted = np.empty_like(smooth)
            shifted[0] = prev_smooth
            shifted[1:] = smooth[:-1]
            pi_smooth += int((prime & shifted).sum())
        prev_smooth = bool(smooth[-1])
    return SmoothCensus(x=x, y=y, psi=psi, pi_smooth=pi_smooth, pi_x=pi_x)


def psi_count(x: int, y: int) -> int:
    """Psi(x, y): exact count of y-smooth integers up to x."""
    return smooth_census(x, y, count_primes=False).psi


def pi_smooth_count(x: int, y: int) -> int:
    """pi(x, y): exact count of primes p <= x with p - 1 y-smooth."""
    if x < 2:
        raise ValueError("x must be at least 2")
    return smooth_census(x, y).pi_smooth


def pomerance_ratio(x: int, y: int, census: SmoothCensus | None = None) -> PomeranceRatio:
    """(pi(x,y)/pi(x), Psi(x,y)/x, and their quotient).

    The conjecture that the two sides agree is asymptotic in y; finite values
    are reported, never asserted against a tolerance.
    """
    if x < 2:
        raise ValueError("x must be at least 2")
    if census is None or (census.x, census.y) != (x, y):
        census = smooth_census(x, y)
    lhs = census.pi_smooth / census.pi_x
    rhs = census.psi / x
    return PomeranceRatio(lhs=lhs, rhs=rhs, quotient=lhs / rhs)


def log_psi_leading(v: float) -> float:
    """(1+v)log(1+v) - v log v: closed form of the integral of log(1 + v/t)
    over t in [0, 1], the leading coefficient of log Psi(x, v log x) in units
    of log x / log log x."""
    if v <= 0:
        raise ValueError("v must be positive")
    return (1.0 + v) * math.log1p(v) - v * math.log(v)


def apr_from_pomerance_report(x: int, v: float) -> AprComparisonReport:
    """Census the smooth counts entering the representation lower bound.

    Emits Psi(x, y) and Psi(x^2, y) at y = round(v log x), the statistic
    Psi(x,y)^2 / Psi(x^2,y) / log x, and the analytic comparator
    exp((log 2 - 1/(1+v)) * 2 log x / log log x).  Report only.
    """
    if x < 3:
        raise ValueError("x must be at least 3 (log log x must be positive)")
    if v <= 0:
        raise ValueError("v must be positive")
    log_x = math.log(x)
    y_unrounded = v * log_x
    y = max(1, round(y_unrounded))
    psi_x_y = psi_count(x, y)
    psi_x2_y = psi_count(x * x, y)
    statistic = psi_x_y**2 / psi_x2_y / log_x
    comparator = math.exp((math.log(2.0) - 1.0 / (1.0 + v)) * 2.0 * log_x / math.log(log_x))
    return AprComparisonReport(
        x=x,
        v=v,
        y=y,
        y_unrounded=y_unrounded,
        psi_x_y=psi_x_y,
        psi_x2_y=psi_x2_y,
        statistic=statistic,
        comparator=comparator,
    )
