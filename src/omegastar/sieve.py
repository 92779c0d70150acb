"""Prime sieving, deterministic primality, factorization, and prime counting."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_CEILING = 2**31
CEILING_ENV = "OMEGASTAR_CEILING"

_TRIAL_LIMIT = 1 << 16


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured memory ceiling."""


def memory_ceiling() -> int:
    return int(os.environ.get(CEILING_ENV, DEFAULT_CEILING))


def check_ceiling(n: int, what: str) -> None:
    ceiling = memory_ceiling()
    if n > ceiling:
        raise ResourceLimitError(
            f"{what} = {n} exceeds the memory ceiling {ceiling} "
            f"(override with the {CEILING_ENV} environment variable)"
        )


@dataclass
class PrimeTable:
    """Sieved primality flags and the ordered list of primes up to `limit`.

    `is_prime[n]` is 1 iff n is prime, for 0 <= n <= limit; `primes` is the
    ascending array of all primes <= limit.
    """

    limit: int
    is_prime: bytearray
    primes: np.ndarray

    def contains(self, n: int) -> bool:
        if not 0 <= n <= self.limit:
            raise ValueError(f"n = {n} outside table range [0, {self.limit}]")
        return bool(self.is_prime[n])

    def count(self, x: int | None = None) -> int:
        """Number of primes <= x (defaults to the full table)."""
        if x is None or x >= self.limit:
            return int(self.primes.size)
        return int(np.searchsorted(self.primes, x, side="right"))


def _simple_sieve(n: int) -> bytearray:
    """Plain byte-per-entry Eratosthenes; used for base primes and small tables."""
    flags = bytearray([1]) * (n + 1) if n >= 0 else bytearray()
    if n >= 0:
        flags[0:1] = b"\x00"
    if n >= 1:
        flags[1:2] = b"\x00"
    p = 2
    while p * p <= n:
        if flags[p]:
            start = p * p
            flags[start :: p] = bytearray(len(range(start, n + 1, p)))
        p += 1
    return flags


def sieve_primes(limit: int, segment_size: int = 1 << 20) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to `limit` inclusive.

    Memory beyond the returned table is O(segment_size).  Passing
    segment_size > limit degenerates to an unsegmented sieve with
    bit-identical output.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if segment_size < 1:
        raise ValueError("segment_size must be positive")
    check_ceiling(limit, "sieve limit")

    flags = np.zeros(limit + 1, dtype=np.uint8)
    if limit >= 2:
        root = math.isqrt(limit)
        base_flags = _simple_sieve(root)
        base = [p for p in range(2, root + 1) if base_flags[p]]
        for lo in range(2, limit + 1, segment_size):
            hi = min(lo + segment_size, limit + 1)
            seg = np.ones(hi - lo, dtype=np.uint8)
            for p in base:
                start = max(p * p, ((lo + p - 1) // p) * p)
                if start < hi:
                    seg[start - lo :: p] = 0
            flags[lo:hi] = seg
    primes = np.flatnonzero(flags).astype(np.int64)
    return PrimeTable(limit=limit, is_prime=bytearray(flags), primes=primes)


_trial_flags = _simple_sieve(_TRIAL_LIMIT)
_TRIAL_PRIMES = tuple(p for p in range(2, _TRIAL_LIMIT + 1) if _trial_flags[p])
del _trial_flags

# Strong-pseudoprime witnesses proving primality for all n < 3.3 * 10^24,
# comfortably covering the 63-bit contract.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**63."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class Factorization:
    """n together with its prime factorization, primes ascending."""

    n: int
    factors: list[tuple[int, int]]

    def rebuild(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def _pollard_brent(n: int) -> int:
    """Brent-cycle Pollard rho; deterministic parameter sweep.  n odd composite."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho parameter sweep exhausted on {n}")


def _split_prime_factors(m: int) -> list[int]:
    if is_prime(m):
        return [m]
    d = _pollard_brent(m)
    return _split_prime_factors(d) + _split_prime_factors(m // d)


def factorize(n: int) -> Factorization:
    """Full prime factorization of 1 <= n < 2**63; factorize(1) has no factors."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n >> 63:
        raise ValueError("factorize contract covers n < 2**63")
    m = n
    factors: list[tuple[int, int]] = []
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 1
            m //= p
            while m % p == 0:
                e += 1
                m //= p
            factors.append((p, e))
    if m > 1:
        if m < (_TRIAL_LIMIT + 1) ** 2 or is_prime(m):
            factors.append((m, 1))
        else:
            big = sorted(_split_prime_factors(m))
            for p in sorted(set(big)):
                factors.append((p, big.count(p)))
    return Factorization(n=n, factors=factors)


def prime_count(x: int, table: PrimeTable | None = None) -> int:
    """pi(x): the number of primes <= x."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x < 2:
        return 0
    if table is not None and table.limit >= x:
        return table.count(x)
    return sieve_primes(int(x)).count()


def primes_in_ap(x: int, d: int, a: int, table: PrimeTable | None = None) -> int:
    """pi(x; d, a): primes p <= x with p congruent to a mod d."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if d < 1 or not 0 <= a < d:
        raise ValueError(f"need d >= 1 and 0 <= a < d, got d={d}, a={a}")
    if x < 2:
        return 0
    if table is None or table.limit < x:
        table = sieve_primes(int(x))
    ps = table.primes[: table.count(x)]
    if d == 1:
        return int(ps.size)
    return int(np.count_nonzero(ps % d == a))


def log_integral(x: float, tol: float = 1e-9) -> float:
    """Li(x) = integral of dt/log t from 2 to x, by adaptive Simpson quadrature."""
    if x < 2:
        raise ValueError("log_integral is defined for x >= 2")
    x = float(x)
    if x == 2.0:
        return 0.0

    def f(t: float) -> float:
        return 1.0 / math.log(t)

    def simpson(a: float, fa: float, b: float, fb: float) -> tuple[float, float, float]:
        m = 0.5 * (a + b)
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, eps, depth) -> float:
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        delta = left + right - whole
        if depth > 60 or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, eps / 2.0, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, eps / 2.0, depth + 1
        )

    fa, fb = f(2.0), f(x)
    m, fm, whole = simpson(2.0, fa, x, fb)
    return recurse(2.0, fa, x, fb, m, fm, whole, tol, 0)
