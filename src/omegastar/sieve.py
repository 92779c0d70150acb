"""Prime sieving, deterministic primality, and factorization."""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_CEILING = 2**31
CEILING_ENV = "OMEGASTAR_CEILING"

_TRIAL_LIMIT = 1 << 16
# Odd slots per segment of _odd_slots, and per slice of smooth.smooth_census's
# walk over the primes above sqrt(x).
_SEGMENT = 1 << 20


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured memory ceiling."""


def memory_ceiling() -> int:
    """OMEGASTAR_CEILING if set, else DEFAULT_CEILING; a value that is not an
    integer >= 1 is a usage error, not a ceiling that refuses everything."""
    raw = os.environ.get(CEILING_ENV)
    if raw is None:
        return DEFAULT_CEILING
    try:
        ceiling = int(raw)
    except ValueError:
        ceiling = 0
    if ceiling < 1:
        raise ValueError(f"{CEILING_ENV} must be an integer >= 1; got {raw!r}")
    return ceiling


def check_ceiling(n: int, what: str) -> None:
    ceiling = memory_ceiling()
    if n > ceiling:
        raise ResourceLimitError(
            f"{what} = {n} exceeds the memory ceiling {ceiling} "
            f"(override with the {CEILING_ENV} environment variable)"
        )


@dataclass
class PrimeTable:
    """The primes <= the sieve limit, held as the _odd_slots flags `slots`
    (about limit / 2 bytes); the ascending int64 `primes` array is built
    from them on first use."""

    slots: np.ndarray

    @functools.cached_property
    def primes(self) -> np.ndarray:
        return _slot_primes(self.slots)


def _segment_flags(lo: int, hi: int, base: list[int], out: np.ndarray) -> None:
    """Write uint8 primality flags for the odd slots [lo, hi) into `out`.

    Slot i stands for the odd integer 2i + 1, so slot 0 (the integer 1) is
    not prime.  `out` is a uint8 array of hi - lo entries, overwritten in
    place.  `base` must hold every odd prime <= isqrt(2 hi - 1), ascending,
    and no 2.  The odd multiples of p are p slots apart; each p crosses them
    out from max(p^2, 2 lo + 1) on, starting at slot p // 2 mod p.
    """
    out.fill(1)
    if lo == 0:
        out[:1] = 0
    for p in base:
        if p * p >= 2 * hi:
            break
        start = max(p * p // 2, lo + (p // 2 - lo) % p)
        if start < hi:  # a narrow window may hold no multiple of p
            out[start - lo :: p] = 0


def _odd_slots(n: int) -> np.ndarray:
    """The (n + 1) // 2 uint8 primality slots of [1, n]: slot i >= 1 flags
    the odd integer 2i + 1, and slot 0 flags the prime 2 (set when n >= 2,
    since the integer 1 is not prime).

    One array is sieved in place _SEGMENT slots at a time, with odd base
    primes from the slots of [1, isqrt(n)], and any segment size gives the
    same slots.
    """
    base = _slot_primes(_odd_slots(math.isqrt(n)))[1:].tolist() if n >= 9 else []
    flags = np.empty((n + 1) // 2, dtype=np.uint8)
    for lo in range(0, flags.size, _SEGMENT):
        hi = min(lo + _SEGMENT, flags.size)
        _segment_flags(lo, hi, base, flags[lo:hi])
    if n >= 2:
        flags[0] = 1
    return flags


def _slot_primes(slots: np.ndarray) -> np.ndarray:
    """Ascending int64 primes flagged in a prefix of an _odd_slots array."""
    primes = np.flatnonzero(slots.view(bool))
    primes *= 2
    primes += 1
    if primes.size and primes[0] == 1:
        primes[0] = 2
    return primes


def sieve_primes(limit: int) -> PrimeTable:
    """Every prime <= `limit`, as the odd-slot flags of the segmented driver
    _odd_slots; the table's `primes` array is mapped from them when first read.
    The only entry to the driver from outside this module."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    check_ceiling(limit, "sieve limit")
    return PrimeTable(slots=_odd_slots(limit))


# Sieved at import straight from the driver: sieve_primes would refuse it
# under a small OMEGASTAR_CEILING.
_TRIAL_PRIMES = tuple(_slot_primes(_odd_slots(_TRIAL_LIMIT)).tolist())

# Strong-pseudoprime witnesses 2..37 prove primality for all n below psi_12
# (Sorenson-Webster), the least composite strong pseudoprime to all twelve,
# 399165290221 * 798330580441 ~ 3.2e23; that covers the 63-bit contract.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < psi_12 ~ 3.2e23 (so every n < 2**63);
    ValueError at larger n, where the witnesses prove nothing."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is proven only below psi_12 = {_MR_LIMIT}, got {n}")
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
