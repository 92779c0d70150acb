"""Smooth-number censuses: Psi(x, y), pi(x, y), pi(x), and the ratio they feed.

An integer is y-smooth when its greatest prime factor P+(n) is at most y
(P+(1) = 1).  Psi(x, y) counts y-smooth n <= x; pi(x, y) counts primes p <= x
with p - 1 y-smooth.  One census serves every y at once by sorting the
smooth n by their largest prime factor: the n <= x with P+(n) = p are p * m
for the m <= x // p with P+(m) <= p.  Psi(x, y) is n = 1 plus a prefix sum of
their number over the primes p <= y, and pi(x, y) the same prefix sum over
those n < x with n + 1 prime (and n = 1, which pairs with the prime 2).

For p <= sqrt(x) the m are enumerated as a set grown prime by prime.  Past
sqrt(x) every m <= x // p is below p, so p adds floor(x / p) to Psi and
the even m with p * m + 1 prime to pi.  Primality and the primes themselves
come from the odd-slot bits of sieve.sieve_primes(x), packed 8 to a byte,
which cost x / 16 bytes, and pi(x) from the count it keeps beside them; its
int64 primes array is never read.  The rest stays small beside them,
whatever y: the enumerated sets hold Psi(x / p, p) entries at most, the
primes above sqrt(x) are walked in unpacked windows of the bits, and no
list of all primes up to y is built.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

from .sieve import _flags_at, _slot_primes, _unpacked, sieve_primes

import numpy as np


class SmoothCensus(NamedTuple):
    x: int
    y: int
    psi: int
    pi_smooth: int
    pi_x: int


class PomeranceRatio(NamedTuple):
    lhs: float
    rhs: float
    quotient: float


def _grow(smooth: np.ndarray, cap: int, p: int) -> np.ndarray:
    """The entries of `smooth` up to `cap`, with their multiples by powers of p
    that stay up to `cap`."""
    smooth = smooth[smooth <= cap]
    grown = [smooth]
    power = smooth[smooth <= cap // p] * p
    while power.size:
        grown.append(power)
        power = power[power <= cap // p] * p
    return np.concatenate(grown)


def _small_prime_counts(x: int, bits: np.ndarray, primes: list[int]) -> tuple[list[int], list[int]]:
    """For each of `primes` (every prime from 2 on, ascending, each at most
    isqrt(x) or 2): the n <= x with P+(n) = p, and those n < x with n + 1
    prime, counted in two lists.

    The m <= x // p with P+(m) <= p are kept as the odd m in `odd` and the
    even m as m / 2 in `half`.  Going from one prime to the next drops the
    entries above the new x // p and adds their multiples by powers of p;
    an odd p keeps each m's parity.  n + 1 is even for odd n, so only even
    n are looked up, at slot n / 2 of the odd-slot `bits`: slot m for
    p = 2, whose m are 1 and the powers of 2, and slot hp for odd p.
    """
    if not primes:
        return [], []
    twos = 2 ** np.arange((x // 2).bit_length(), dtype=np.int64)  # the m for p = 2
    psi, pi = [twos.size], [int(np.count_nonzero(_flags_at(bits, twos[twos <= (x - 1) // 2])))]
    odd, half = twos[:1], twos[:-1]
    for p in primes[1:]:
        odd = _grow(odd, x // p, p)
        half = _grow(half, x // (2 * p), p)
        # 2hp < x fails only at h = x / 2p
        looked = half[half < x // (2 * p)] if x % (2 * p) == 0 else half
        psi.append(odd.size + half.size)
        pi.append(int(np.count_nonzero(_flags_at(bits, looked * p))))
    return psi, pi


def _large_prime_counts(x: int, bits: np.ndarray, a: int, b: int) -> tuple[int, int]:
    """(Psi, pi) gained from the primes of the odd slots [a, b), all above
    isqrt(x), walked one unpacked window of sieve._SEGMENT slots at a time.

    Each p adds x // p to Psi, one for every m <= x // p.  To pi it adds the
    even m = 2j with p * m + 1 <= x prime, read at slot p * j; for each j
    those p are a prefix of the window's primes.
    """
    psi = pi = 0
    for lo, flags in _unpacked(bits, a, b):
        ps = np.flatnonzero(flags)
        if not ps.size:
            continue
        ps *= 2
        ps += 2 * lo + 1
        psi += int((x // ps).sum())
        js = np.arange(1, (x - 1) // (2 * int(ps[0])) + 1)
        for j, k in zip(js.tolist(), np.searchsorted(ps, (x - 1) // (2 * js), side="right").tolist()):
            pi += int(np.count_nonzero(_flags_at(bits, ps[:k] * j)))
    return psi, pi


def smooth_census(x: int, ys: list[int]) -> list[SmoothCensus]:
    """Psi(x, y), pi(x, y) and pi(x) for each y of `ys`, in the given order.

    The primes up to both max(ys) and isqrt(x) go through
    _small_prime_counts; the primes above isqrt(x) and up to min(y, x)
    through _large_prime_counts, one stretch of slots from each y to the
    next.  Both read the one odd-slot bit array of sieve_primes(x).  Its
    slot 0 stands for the prime 2, so 2 is a small prime even for x < 4,
    where isqrt(x) = 1.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    if not ys:
        raise ValueError("ys must be nonempty")
    if min(ys) < 1:
        raise ValueError("y must be at least 1")

    order = sorted(set(ys))
    root = math.isqrt(x)
    table = sieve_primes(x)
    small = _slot_primes(table.bits, (root + 1) // 2).tolist()
    psi, pi = _small_prime_counts(x, table.bits, small[: bisect.bisect_right(small, order[-1])])
    psi = list(itertools.accumulate(psi, initial=1))  # n = 1 is smooth for every y
    pi = list(itertools.accumulate(pi, initial=int(x >= 2)))  # and pairs with the prime 2
    by_y = {}
    psi_large = pi_large = 0
    lo = (root + 1) // 2
    for y in order:
        hi = max(lo, (min(y, x) + 1) // 2)
        gained_psi, gained_pi = _large_prime_counts(x, table.bits, lo, hi)
        psi_large, pi_large, lo = psi_large + gained_psi, pi_large + gained_pi, hi
        i = bisect.bisect_right(small, y)
        by_y[y] = (psi[i] + psi_large, pi[i] + pi_large)
    return [SmoothCensus(x=x, y=y, psi=by_y[y][0], pi_smooth=by_y[y][1], pi_x=table.count) for y in ys]


def pomerance_ratio(census: SmoothCensus) -> PomeranceRatio:
    """(pi(x,y)/pi(x), Psi(x,y)/x, and their quotient).

    The conjecture that the two sides agree is asymptotic in y; finite values
    are reported, never asserted against a tolerance.
    """
    if census.x < 2:
        raise ValueError("x must be at least 2")
    lhs = census.pi_smooth / census.pi_x
    rhs = census.psi / census.x
    return PomeranceRatio(lhs=lhs, rhs=rhs, quotient=lhs / rhs)
