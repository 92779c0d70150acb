"""The shifted-prime divisor function omega*(n) and its moments M_k(x).

omega*(n) counts divisors d of n with d + 1 prime; it is >= 1 always, equals
1 exactly on odd n, and is bounded by the divisor count tau(n).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arith import divisors
from .sieve import (
    _TRIAL_PRIMES,
    ResourceLimitError,
    _cutoffs,
    _slot_windows,
    check_ceiling,
    factorize,
    is_prime,
    sieve_primes,
)

# Half-steps (p - 1)/2 with this many multiples in a period of _WHEEL (or in
# [1, x // 2], if shorter) get slice updates, and so do all those up to it.
_SMALL_STEP_MULTIPLES = 256
# 2^4 * 3^2 * 5 * 7 * 11 * 13: the small half-steps that divide it are
# periodic mod _WHEEL, so one period of them is written and copied, and the
# table is then walked one period (0.7 MB of uint8 below _UINT8_BELOW,
# 1.4 MB of uint16 from it) at a time.
_WHEEL = 720_720
# The least n with omega*(n) >= 2^8, 2^5 * 3^2 * 5^2 * 7 * 11 * 13 * 17
# (omega* = 259): every count below it is at most 247, so uint8 holds it.
_UINT8_BELOW = 122_522_400
# omega*(n) <= tau(n), and the least n with tau(n) >= 2^16 is this one,
# 2^7 * 3^3 * 5^3 * 7 * 11 * ... * 37, so uint16 holds every count below it.
_UINT16_BELOW = 106_858_629_141_264_000
# Entries per np.bincount call in moment_sum, whose intp copy of a block is
# 512 KiB.  A block of uint8 or uint16 counts also sums exactly in uint32:
# 2^16 * 65,535 < 2^32.
_HIST_BLOCK = 1 << 16
_TOO_LARGE = "M_k(x) at k = {k}, x = {x} is too large for a float"


class OmegaStarTable(NamedTuple):
    """The even half of omega* over [1, x]: counts[m] = omega*(2m) for
    1 <= m <= x // 2, and counts[0] is unused.  Odd n are not stored, since
    omega*(n) = 1 on every odd n.  The counts are uint8 below
    _UINT8_BELOW and uint16 from it, so the table takes about x / 2 bytes
    there and x bytes past it."""

    x: int
    counts: np.ndarray


def omega_star(n: int) -> int:
    """Number of divisors d of n such that d + 1 is prime."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sum(1 for d in divisors(factorize(n)) if is_prime(d + 1))


def _check_table_size(x: int) -> None:
    """Refuse a table over [1, x] past the memory ceiling or at x >= _UINT16_BELOW."""
    check_ceiling(x, "omega* table size")
    if x >= _UINT16_BELOW:
        raise ResourceLimitError(f"omega* table size = {x} reaches {_UINT16_BELOW}, where uint16 counts end")


def omega_star_table(x: int) -> OmegaStarTable:
    """Bulk omega* over [1, x]: for each prime p <= x + 1, every multiple of
    p - 1 gains one count.

    p = 2 gives the 1 that every n holds, and every other p - 1 is even, so
    only n = 2m need work: counts[m] = 1 + the number of half-steps
    t = (p - 1)/2 of odd primes p <= x + 1 that divide m.  These are read
    straight from the sieve's packed odd-slot bits: slot t >= 1 flags
    2t + 1, so it is set exactly when t is such a half-step.

    With B = _SMALL_STEP_MULTIPLES, half-steps t up to the split
    max(min(x // 2, _WHEEL) // B, min(x // 2, B)) are small: each has at
    least B multiples in one period of _WHEEL, or in the whole table when
    that is shorter, and adds one to the strided slice of its multiples.
    The floor min(x // 2, B) keeps a small table in slices rather than in
    up to B - 1 multiplier passes.  Small half-steps that divide _WHEEL are
    periodic: t divides m exactly when it divides m mod _WHEEL, so they are
    added to the first period counts[1 : _WHEEL + 1] only.  The other small
    half-steps are near.  The table is then walked one period at a time,
    from the last period down: each later period is copied from the first
    and, while it is still in cache, gains the near half-steps' multiples
    that fall in it.  The first period gains its own near multiples last,
    after every copy has read it.

    Every larger half-step has fewer than B multiples in a period, so those
    are added by multiplier instead, one window of slots at a time: for the
    half-steps that _slot_windows maps from each window of the bits, pass
    j = 1, 2, ... adds one to j * t for each of them still at most
    (x // 2) // j, a prefix that sieve._cutoffs gives, through one
    np.add.at on the view h[::j] at t (the multiples are distinct for a
    fixed j), until none is left.

    The counts are uint8 below _UINT8_BELOW and uint16 from it.  A count
    only rises while the table is built, so none passes its final value
    and none wraps.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    _check_table_size(x)
    half = x // 2
    # (x + 2) // 2 = half + 1 slots: slot t for every t <= half
    bits = sieve_primes(x + 1).bits
    h = np.empty(half + 1, dtype=np.uint8 if x < _UINT8_BELOW else np.uint16)
    first = min(_WHEEL, half) + 1
    h[:first] = 1
    split = max(min(half, _WHEEL) // _SMALL_STEP_MULTIPLES, min(half, _SMALL_STEP_MULTIPLES))
    small = np.concatenate([np.empty(0, dtype=np.int64), *_slot_windows(bits, 1, split + 1)])
    on_wheel = _WHEEL % small == 0
    # Each slice gains one in place on its view: `h[...] += 1` would add a
    # __setitem__ of the view onto itself and convert the Python int 1 per step.
    one = h.dtype.type(1)
    for step in small[on_wheel].tolist():
        multiples = h[step:first:step]
        multiples += one
    near = small[~on_wheel].tolist()
    # Periods [a, b) from the last down, so the first is read before it gains them
    for a in range(1 + (half - 1) // _WHEEL * _WHEEL, 0, -_WHEEL):
        b = min(a + _WHEEL, half + 1)
        if a > 1:
            h[a:b] = h[1 : 1 + b - a]
        for step in near:
            multiples = h[a + (-a) % step : b : step]
            multiples += one
    for large in _slot_windows(bits, split + 1, half + 1):
        for j, k in enumerate(_cutoffs(large, half), 1):
            np.add.at(h[::j], large[:k], one)
    return OmegaStarTable(x=x, counts=h)


def moment_sum(table: OmegaStarTable, k: int, upto: int | None = None, lo: int = 0) -> int:
    """Exact integer sum of omega*(n)^k over lo < n <= upto (default: the
    whole table).

    The odd n in (lo, upto] add (upto - upto // 2) - (lo - lo // 2) entries
    of value 1.  The even n are read in blocks of _HIST_BLOCK entries, so
    the working memory beyond the table does not grow with upto.  At k = 1
    each block's uint8 or uint16 counts are summed exactly in uint32 and
    the block sums are added as Python ints; at k >= 2 the blocks
    accumulate a value histogram.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    x = table.x if upto is None else upto
    if not 1 <= x <= table.x:
        raise ValueError(f"upto = {x} outside table range [1, {table.x}]")
    if not 0 <= lo <= x:
        raise ValueError(f"lo = {lo} outside [0, upto = {x}]")
    even = table.counts[lo // 2 + 1 : x // 2 + 1]
    odd = (x - x // 2) - (lo - lo // 2)
    if k == 1:
        blocks = range(0, even.size, _HIST_BLOCK)
        return sum(int(even[a : a + _HIST_BLOCK].sum(dtype=np.uint32)) for a in blocks) + odd
    hist = np.zeros(int(even.max(initial=1)) + 1, dtype=np.int64)
    for a in range(0, even.size, _HIST_BLOCK):
        hist += np.bincount(even[a : a + _HIST_BLOCK], minlength=hist.size)
    hist[1] += odd
    return sum(int(c) * v**k for v, c in enumerate(hist.tolist()) if c)


def moment_scan(xs: list[int], k: int, table: OmegaStarTable | None = None) -> list[tuple[int, float]]:
    """(x, M_k(x)) at each x in ascending xs, from one shared bulk table;
    M_k(x) = (1/x) * sum of omega*(n)^k over n <= x, accumulated exactly as
    the sum of the intervals between consecutive checkpoints."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not xs:
        raise ValueError("xs must be nonempty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("xs must be strictly ascending")
    if xs[0] < 1:
        raise ValueError("xs entries must be >= 1")
    # Before the overflow bound, which factorizes primorials up to xs[-1]
    _check_table_size(xs[-1])
    # Before the table: M_k(x) >= omega*(n)^k / x at the largest primorial n <= x,
    # so refuse a k that puts this a nat (against log rounding) past the float range.
    # omega*(n) <= tau(n) = 2^r for the primorial of r primes, so n is
    # factorized only when 2^(k r) / x would pass that bound.
    n, r = 1, 0
    limit = math.log(np.finfo(np.float64).max) + 1
    for x in xs:
        while n * _TRIAL_PRIMES[r] <= x:
            n, r = n * _TRIAL_PRIMES[r], r + 1
        log_x = math.log(x)
        if k * r * math.log(2.0) - log_x > limit and k * math.log(omega_star(n)) - log_x > limit:
            raise ValueError(_TOO_LARGE.format(k=k, x=x))
    if table is None or table.x < xs[-1]:
        table = omega_star_table(xs[-1])
    # Each checkpoint bins only the n past the one before it.
    points, total, lo = [], 0, 0
    for x in xs:
        total += moment_sum(table, k, upto=x, lo=lo)
        lo = x
        try:
            points.append((x, total / x))
        except OverflowError:
            raise ValueError(_TOO_LARGE.format(k=k, x=x)) from None
    return points
