"""Shared fixtures and independent brute-force oracles.

Oracles here never call the code path they are checking: primality comes from
trial division or a plain unsegmented sieve, pair counts from literal pair
enumeration, smoothness from per-integer factoring or the unsegmented division
peel, and the GRH-mode acceptance probability from a grid convolution over
parameters recomputed from their documented formulas.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
import pytest


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def trial_division_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if trial_division_is_prime(n)]


def brute_gpf(n: int) -> int:
    """Greatest prime factor by naive trial division; P+(1) = 1."""
    big, m, p = 1, n, 2
    while p * p <= m:
        while m % p == 0:
            big, m = p, m // p
        p += 1
    return max(big, m) if m > 1 else big


def division_census(x: int, y: int) -> tuple[int, int, int]:
    """(Psi(x, y), pi(x, y), pi(x)) by the division peel, unsegmented.

    The reference for smooth_census's product kernel: every prime power
    p^e <= x with p <= y divides its multiples once by p, and the entries
    left at 1 are the y-smooth ones.  Primality comes from a plain
    Eratosthenes sieve over [0, x], sieved as the loop passes each p.
    """
    rem = np.arange(x + 1, dtype=np.int64)
    prime = np.ones(x + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, x + 1):
        if not prime[p]:
            continue
        prime[p * p :: p] = False
        q = p
        while p <= y and q <= x:
            rem[q::q] //= p
            q *= p
    smooth = rem == 1
    return int(smooth.sum()), int((prime[2:] & smooth[1:-1]).sum()), int(prime.sum())


def brute_omega_star(n: int, prime_flags: np.ndarray | None = None) -> int:
    """Divisor scan up to sqrt(n) plus trial-division primality of d + 1."""
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            for piece in {d, n // d}:
                if (
                    prime_flags[piece + 1]
                    if prime_flags is not None
                    else trial_division_is_prime(piece + 1)
                ):
                    count += 1
        d += 1
    return count


def expand_half_table(table) -> np.ndarray:
    """omega*(0..x) from the half table of omega_star_table(x): 1 on odd n,
    counts[n // 2] on even n, and an unused 0 at n = 0."""
    full = np.ones(table.x + 1, dtype=table.counts.dtype)
    full[0] = 0
    full[2::2] = table.counts[1:]
    return full


def brute_pair_count_A(x: int, k: int, primes: list[int]) -> int:
    """Literal enumeration of pairs (m, p), m, p <= x, with k | m(p-1)."""
    ms = np.arange(1, x + 1, dtype=np.int64)
    total = 0
    for p in primes:
        if p > x:
            break
        total += int(np.count_nonzero(ms * (p - 1) % k == 0))
    return total


def brute_pair_count_A_d(x: int, y: int, k: int, d: int, primes: list[int]) -> int:
    """Literal enumeration of pairs (m, p), m <= y, p <= x, with p = 1 (mod d)
    and gcd(m, k) = k/d, as one boolean matrix over every p and m."""
    ps = np.array([p for p in primes if p <= x], dtype=np.int64)
    ms = np.arange(1, y + 1, dtype=np.int64)
    pairs = ((ps[:, None] - 1) % d == 0) & (np.gcd(ms, k)[None, :] == k // d)
    return int(np.count_nonzero(pairs))


class AcceptanceBracket(NamedTuple):
    """Rigorous bounds on the GRH-mode window probabilities at one log x.

    [in_logd_lo, in_logd_hi] brackets P(d in D), the strict log d window;
    fail_omega is the exact probability that Omega(d) leaves its window.
    """

    in_logd_lo: float
    in_logd_hi: float
    fail_omega: float

    @property
    def lo(self) -> float:
        """Lower bound on P(D'), by the union bound over the two windows."""
        return self.in_logd_lo - self.fail_omega

    @property
    def hi(self) -> float:
        """Upper bound on P(D'), since D' is contained in D."""
        return self.in_logd_hi


# Grid step of the convolution below: the bracket is about R * h wide, 7.4e-4
# at log x = 1100 (R = 172), and the oracle runs there in about 2 s.
_GRID_STEP = 5e-4


@functools.cache
def grh_acceptance_bracket(log_x: float) -> AcceptanceBracket:
    """Exact bracket for the GRH-mode acceptance probability P(D') at log x.

    Nothing is read from `build_params`.  epsilon = (log log x)^(-1/2),
    u = (3 + sqrt 5)/4, L = (u - epsilon) log x, rho = (1/2 - eps)/(u - eps),
    the log d window 2L/(log L)^2 about (1/2 - eps) log x and the Omega
    window R^(2/3) about rho R are recomputed here, over trial-division primes.

    Each log p is rounded down to a multiple of h = _GRID_STEP, and the law
    of the integer S = sum v_p floor(log p / h) is convolved exactly, one
    Bernoulli(rho) step per prime.  Since log d lies in [h S, h S + R h),
    with c the centre and w the half-width, the events
    h S in (c - w, c + w - R h] and h S in (c - w - R h, c + w)
    bound the strict window |log d - c| < w from inside and outside.  The
    Omega tail is an exact binomial sum.  Float rounding in the convolution
    is below 1e-13, far inside the grid slack.
    """
    epsilon = 1.0 / math.sqrt(math.log(log_x))
    u = (3.0 + math.sqrt(5.0)) / 4.0
    L = (u - epsilon) * log_x
    primes = trial_division_primes(int(L))
    R = len(primes)
    rho = (0.5 - epsilon) / (u - epsilon)
    center = (0.5 - epsilon) * log_x
    window = 2.0 * L / math.log(L) ** 2
    h = _GRID_STEP

    steps = [math.floor(math.log(p) / h) for p in primes]
    pmf = np.zeros(sum(steps) + 1)
    pmf[0] = 1.0
    top = 0
    for k in steps:
        top += k
        # Both right-hand sides read pmf before this step writes any of it.
        pmf[k : top + 1] = (1.0 - rho) * pmf[k : top + 1] + rho * pmf[: top + 1 - k]
        pmf[:k] *= 1.0 - rho
    grid = np.arange(pmf.size) * h
    inner = (grid > center - window) & (grid <= center + window - R * h)
    outer = (grid > center - window - R * h) & (grid < center + window)

    omega_lo = math.ceil(rho * R - R ** (2.0 / 3.0))
    omega_hi = math.floor(rho * R + R ** (2.0 / 3.0))
    fail_omega = math.fsum(
        math.comb(R, w) * rho**w * (1.0 - rho) ** (R - w)
        for w in range(R + 1)
        if not omega_lo <= w <= omega_hi
    )
    return AcceptanceBracket(
        in_logd_lo=float(pmf[inner].sum()),
        in_logd_hi=float(pmf[outer].sum()),
        fail_omega=fail_omega,
    )


@pytest.fixture(scope="session")
def oracle_primes_2000() -> list[int]:
    return trial_division_primes(2000)


@pytest.fixture(scope="session")
def oracle_prime_flags_1e4() -> np.ndarray:
    """Trial-division prime flags for 0..10002 (covers d + 1 lookups at 1e4)."""
    limit = 10**4 + 2
    flags = np.zeros(limit + 1, dtype=bool)
    for n in range(2, limit + 1):
        flags[n] = trial_division_is_prime(n)
    return flags


@pytest.fixture(scope="session")
def gpf_oracle_1e5() -> np.ndarray:
    limit = 10**5
    out = np.zeros(limit + 1, dtype=np.int64)
    out[1] = 1
    for n in range(2, limit + 1):
        out[n] = brute_gpf(n)
    return out
