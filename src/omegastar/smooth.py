"""Smooth-number censuses: Psi(x, y), pi(x, y), pi(x), and the ratio they feed.

An integer is y-smooth when its greatest prime factor P+(n) is at most y
(P+(1) = 1).  Psi(x, y) counts y-smooth n <= x; pi(x, y) counts primes p <= x
with p - 1 y-smooth.  One segmented sieve pass serves every y at once: it
multiplies up the smooth part of each n over the primes in ascending order
(exactness over Buchstab-style recursion), reading the counts off as the
primes pass each y, with one set of primality flags shared by all.  Past
sqrt(x), the cofactor left after the primes <= sqrt(x) is compared with y.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import sieve
from .sieve import _primes_upto, _segment_flags, check_ceiling

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


def _census_segment(
    lo: int, hi: int, mark: list[int], stages: list[tuple[list[int], int | None]]
) -> tuple[int, list[tuple[int, int]]]:
    """pi over (lo, hi), and (psi, pi_smooth) over (lo, hi) after each stage;
    the window holds lo only as the predecessor of lo + 1.

    `mark` holds every prime <= isqrt(hi - 1), ascending.  Stage i is a pair
    (primes, cap); its primes are ascending and above those of earlier
    stages.  `part` is multiplied by p once for every p^e dividing n, so it
    stays the smooth part of n, at most n.  Cap None: every prime <= the
    stage's y is in, and n is smooth exactly when part == n.  Cap y: every
    prime in `mark` is in, so the cofactor n // part is 1 or one prime, and
    n is smooth exactly when it is at most y.  n and part are uint32 while
    hi - 1 fits, else uint64.

    Only the odd integers in (lo, hi) are sieved, as the odd slots [a, b) of
    sieve._segment_flags.  `pairs` holds the window offset 2i - lo of n = 2i
    for each odd prime 2i + 1 there, so each stage reads pi_smooth off
    smooth[pairs].  The prime 2, when in (lo, hi), adds one to pi and to
    every pi_smooth, since its n = 1 is smooth for every y >= 1.
    """
    a, b = (lo + 1) // 2, hi // 2
    odd = np.empty(b - a, dtype=np.uint8)
    _segment_flags(a, b, mark[1:], odd)
    pairs = np.flatnonzero(odd.view(bool))
    del odd  # freed before n and part are allocated
    pairs *= 2
    pairs += 2 * a - lo
    two = int(lo < 2 < hi)
    n = np.arange(lo, hi, dtype=np.uint32 if hi <= 2**32 else np.uint64)
    part = np.ones_like(n)
    counts = []
    for primes, cap in stages:
        for p in primes:
            q = p
            while q < hi:
                start = -(-lo // q) * q
                if start < hi:
                    part[start - lo :: q] *= p
                q *= p
        smooth = part == n if cap is None else n // part <= cap
        counts.append((int(np.count_nonzero(smooth[1:])), int(np.count_nonzero(smooth[pairs])) + two))
        del smooth  # freed before the next stage builds its own
    return pairs.size + two, counts


def smooth_census(x: int, ys: list[int]) -> list[SmoothCensus]:
    """Psi(x, y), pi(x, y) and pi(x) for each y of `ys`, in the given order,
    from one pass over [1, x] in segments of sieve._SEGMENT.

    The distinct y values, ascending, are the stages of _census_segment.  Its
    windows [lo - 1, hi) overlap by one integer, so no state passes between
    them.  Only the primes <= isqrt(x) are walked, so the cost does not
    grow with y; a y above isqrt(x) (capped at x) takes the cofactor test.
    For x < 2^32 every window works in uint32.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    if not ys:
        raise ValueError("ys must be nonempty")
    if min(ys) < 1:
        raise ValueError("y must be at least 1")
    check_ceiling(x, "smooth census size")

    root = math.isqrt(x)
    order = sorted(set(ys))
    mark = _primes_upto(root).tolist()
    cuts = [0] + [bisect.bisect_right(mark, y) for y in order]
    stages = [(mark[a:b], None if y <= root else min(y, x)) for a, b, y in zip(cuts, cuts[1:], order)]

    pi_x = 0
    totals = np.zeros((len(order), 2), dtype=np.int64)  # (psi, pi_smooth) per stage
    for lo in range(1, x + 1, sieve._SEGMENT):
        pi, counts = _census_segment(lo - 1, min(lo + sieve._SEGMENT, x + 1), mark, stages)
        pi_x += pi
        totals += counts
    by_y = dict(zip(order, totals.tolist()))
    return [SmoothCensus(x=x, y=y, psi=by_y[y][0], pi_smooth=by_y[y][1], pi_x=pi_x) for y in ys]


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


def log_psi_leading(v: float) -> float:
    """(1+v)log(1+v) - v log v: closed form of the integral of log(1 + v/t)
    over t in [0, 1], the leading coefficient of log Psi(x, v log x) in units
    of log x / log log x."""
    if v <= 0:
        raise ValueError("v must be positive")
    return (1.0 + v) * math.log1p(v) - v * math.log(v)
