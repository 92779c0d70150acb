"""Prime sieving, deterministic primality, and factorization."""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

DEFAULT_CEILING = 2**31
CEILING_ENV = "OMEGASTAR_CEILING"

_TRIAL_LIMIT = 1 << 16
# Odd slots per kernel window of _odd_slots, and per unpacked window that
# _unpacked hands the omega* table and the census.
_SEGMENT = 1 << 20
# Slots per unpacked window of _set_slots: a window and the int64 positions
# of its set slots are held beside the result, and a whole _SEGMENT of them
# would outweigh the primes below a few million.
_MAP_SLOTS = 1 << 16
# The kernel's pre-sieved wheel: slot i of _WHEEL_FLAGS is 1 exactly when
# 2i + 1 is prime to every one of _WHEEL_PRIMES, whose product is its period
# (15,015 slots), so any window of slots repeats it from offset lo mod 15,015.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_FLAGS = np.ones(math.prod(_WHEEL_PRIMES), dtype=np.uint8)
for _p in _WHEEL_PRIMES:
    _WHEEL_FLAGS[_p // 2 :: _p] = 0
del _p


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


class PrimeTable:
    """The primes <= the sieve limit, held as the _odd_slots bits `bits` of
    its `slots` = (limit + 1) // 2 odd slots (about limit / 16 bytes), with
    their number `count` = pi(limit); the ascending int64 `primes` array is
    built from the bits on first use and kept."""

    def __init__(self, bits: np.ndarray, slots: int, count: int) -> None:
        self.bits, self.slots, self.count = bits, slots, count

    @functools.cached_property
    def primes(self) -> np.ndarray:
        return _slot_primes(self.bits, self.slots, self.count)


def _tile(a: np.ndarray, period: int) -> None:
    """Copy a[:period], one whole period, across the rest of `a` by doubling:
    a[:filled] always holds whole periods, so its head is the next one."""
    filled = period
    while filled < a.size:
        k = min(filled, a.size - filled)
        a[filled : filled + k] = a[:k]
        filled += k


def _segment_flags(lo: int, hi: int, base: np.ndarray, out: np.ndarray) -> None:
    """Write uint8 primality flags for the odd slots [lo, hi) into `out`.

    Slot i stands for the odd integer 2i + 1, so slot 0 (the integer 1) is
    not prime.  `out` is a uint8 array of hi - lo entries, overwritten in
    place.  `base` is an ascending int64 array that must hold every odd
    prime <= isqrt(2 hi - 1); its entries up to 13 are not read.

    The window is first filled from _WHEEL_FLAGS, whose period of
    3 * 5 * 7 * 11 * 13 slots is pre-sieved by those five primes: it is
    copied in from offset lo mod the period and tiled across the window.
    Slot 0 is then cleared and the five primes' own slots set where they
    fall in [lo, hi).  Every other odd p crosses out its odd multiples, p
    slots apart, from max(p^2, 2 lo + 1) on, starting at slot p // 2 mod
    p; those window starts are computed for all p at once, and are exact
    in int64 since p^2 <= 2 hi - 1 < 2^63 (sieve_primes refuses a limit
    from 2^63 on).
    """
    period = _WHEEL_FLAGS.size
    off = lo % period
    head = min(hi - lo, period - off)
    out[:head] = _WHEEL_FLAGS[off : off + head]
    rest = min(hi - lo, period) - head
    out[head : head + rest] = _WHEEL_FLAGS[:rest]
    _tile(out, period)
    if lo == 0:
        out[0] = 0
    for p in _WHEEL_PRIMES:
        if lo <= p // 2 < hi:
            out[p // 2 - lo] = 1
    first, last = np.searchsorted(base, (_WHEEL_PRIMES[-1], math.isqrt(2 * hi - 1)), side="right").tolist()
    ps = base[first:last]
    starts = np.maximum(ps * ps // 2 - lo, (ps // 2 - lo) % ps)
    for start, p in zip(starts.tolist(), ps.tolist()):
        out[start::p] = 0  # empty when a narrow window holds no multiple of p


def _odd_slots(n: int) -> PrimeTable:
    """The primes <= n as a PrimeTable: the (n + 1) // 2 primality slots of
    [1, n], packed 8 to a byte, so that slot i is bit i & 7 of byte i >> 3.
    Slot i >= 1 flags the odd integer 2i + 1, and slot 0 flags the prime 2
    (set when n >= 2, since the integer 1 is not prime); the padding bits
    past the last slot are 0.

    The kernel sieves windows of _SEGMENT slots, with odd base primes from
    the table of isqrt(n), into one reusable byte buffer of lcm(_SEGMENT, 8)
    slots (fewer if all fit); each filled buffer is counted and packed into
    the bits.  Any segment size gives the same bits.
    """
    slots = (n + 1) // 2
    base = _odd_slots(math.isqrt(n)).primes[1:] if n >= 9 else np.empty(0, dtype=np.int64)
    bits = np.empty((slots + 7) // 8, dtype=np.uint8)
    width = math.lcm(_SEGMENT, 8)
    buf = np.empty(min(width, 8 * bits.size), dtype=np.uint8)
    count = int(n >= 2)
    for lo in range(0, slots, width):
        hi = min(lo + width, slots)
        for a in range(lo, hi, _SEGMENT):
            b = min(a + _SEGMENT, hi)
            _segment_flags(a, b, base, buf[a - lo : b - lo])
        count += int(np.count_nonzero(buf[: hi - lo]))
        bits[lo >> 3 : (hi + 7) >> 3] = np.packbits(buf[: hi - lo], bitorder="little")
    if n >= 2:
        bits[0] |= 1
    return PrimeTable(bits=bits, slots=slots, count=count)


def _unpacked(bits: np.ndarray, lo: int, hi: int, width: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """(a, flags) for each window [a, b) of at most `width` slots (default
    _SEGMENT) that tiles the slots [lo, hi) of _odd_slots bits: `flags`
    holds the bool flags of slots a .. b - 1, unpacked afresh for each
    window."""
    width = width or _SEGMENT
    for a in range(lo, hi, width):
        b = min(a + width, hi)
        flags = np.unpackbits(bits[a >> 3 : (b + 7) >> 3], bitorder="little").view(bool)
        yield a, flags[a & 7 : (a & 7) + b - a]
        del flags  # so that a caller that drops its window holds one at a time


def _flags_at(bits: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The 0/1 uint8 flags of _odd_slots bits at the slots of the integer array `idx`."""
    return (bits[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1


def _set_slots(bits: np.ndarray, lo: int, hi: int, count: int | None = None) -> np.ndarray:
    """Ascending int64 indices of the set slots in [lo, hi) of _odd_slots
    bits.  They are counted first, unless the caller passes their `count`,
    then mapped into one array of that size from unpacked windows of
    _MAP_SLOTS slots, so beside it only one window and the int64 positions
    of its set slots are held."""
    if count is None:
        count = sum(np.count_nonzero(f) for _, f in _unpacked(bits, lo, hi, _MAP_SLOTS))
    out = np.empty(count, dtype=np.int64)
    at = 0
    for a, flags in _unpacked(bits, lo, hi, _MAP_SLOTS):
        got = np.flatnonzero(flags)
        out[at : at + got.size] = got
        out[at : at + got.size] += a
        at += got.size
    return out


def _slot_primes(bits: np.ndarray, slots: int, count: int | None = None) -> np.ndarray:
    """Ascending int64 primes flagged in the first `slots` slots of _odd_slots
    bits; `count`, if given, is their number, which spares _set_slots its
    counting pass."""
    primes = _set_slots(bits, 0, slots, count)
    primes *= 2
    primes += 1
    if primes.size and primes[0] == 1:
        primes[0] = 2
    return primes


def sieve_primes(limit: int) -> PrimeTable:
    """Every prime <= `limit`, as the packed odd-slot bits of the segmented
    driver _odd_slots; the table's `primes` array is mapped from them when
    first read.  The only entry to the driver from outside this module."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    check_ceiling(limit, "sieve limit")
    if limit >> 63:
        raise ResourceLimitError(f"sieve limit = {limit} reaches 2**63, past the sieve's int64 slot arithmetic")
    return _odd_slots(limit)


# Sieved at import straight from the driver: sieve_primes would refuse it
# under a small OMEGASTAR_CEILING.
_TRIAL_PRIMES = tuple(_odd_slots(_TRIAL_LIMIT).primes.tolist())

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


class Factorization(NamedTuple):
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
