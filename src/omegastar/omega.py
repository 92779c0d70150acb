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
    _set_slots,
    _tile,
    _unpacked,
    check_ceiling,
    factorize,
    is_prime,
    sieve_primes,
)

# Half-steps (p - 1)/2 with at least this many multiples in [1, x // 2] get a
# slice update each.
_SMALL_STEP_MULTIPLES = 128
# 2^4 * 3^2 * 5 * 7 * 11 * 13: the small half-steps that divide it are
# periodic mod _WHEEL, so one period of them is written and copied.
_WHEEL = 720_720
# omega*(n) <= tau(n), and the least n with tau(n) >= 2^16 is this one,
# 2^7 * 3^3 * 5^3 * 7 * 11 * ... * 37, so uint16 holds every count below it.
_UINT16_BELOW = 106_858_629_141_264_000
# Entries per np.bincount call in moment_sum, whose intp copy of a block is 512 KiB.
_HIST_BLOCK = 1 << 16
# Multiplier passes j <= this add the slot flags of the large half-steps in
# dense strided slices; later passes index the few live half-steps.  The
# dense pass writes 2j bytes apart, so from about j = 32 each entry touches
# its own cache line and costs more than the sparse update of the half-steps.
_DENSE_PASSES = 16
_TOO_LARGE = "M_k(x) at k = {k}, x = {x} is too large for a float"


class OmegaStarTable(NamedTuple):
    """The even half of omega* over [1, x]: counts[m] = omega*(2m) for
    1 <= m <= x // 2, and counts[0] is unused.  Odd n are not stored, since
    omega*(n) = 1 on every odd n.  The counts are uint16, so the table
    takes about x bytes."""

    x: int
    counts: np.ndarray


def omega_star(n: int) -> int:
    """Number of divisors d of n such that d + 1 is prime."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sum(1 for d in divisors(factorize(n)) if is_prime(d + 1))


def omega_star_table(x: int) -> OmegaStarTable:
    """Bulk omega* over [1, x]: for each prime p <= x + 1, every multiple of
    p - 1 gains one count.

    p = 2 gives the 1 that every n holds, and every other p - 1 is even, so
    only n = 2m need work: counts[m] = 1 + the number of half-steps
    t = (p - 1)/2 of odd primes p <= x + 1 that divide m.  These are read
    straight from the sieve's packed odd-slot bits: slot t >= 1 flags
    2t + 1, so it is set exactly when t is such a half-step.

    Half-steps t <= (x // 2) // _SMALL_STEP_MULTIPLES are small; each adds
    one to the strided slice of its multiples.  Those that divide _WHEEL
    are periodic: t divides m exactly when it divides m mod _WHEEL, so they
    are added to the first period counts[1 : _WHEEL + 1] only, and that
    period is then copied across the table by doubling.  Every other small
    half-step gets one slice over the whole table.

    Every larger half-step has fewer than _SMALL_STEP_MULTIPLES multiples,
    so those are added by multiplier instead: pass j adds one to j * t for
    all large t <= (x // 2) // j.  For j <= _DENSE_PASSES that is a strided
    slice, counts[j * t] += flags[t] over every large t, run for all those j
    on each unpacked window of sieve._SEGMENT slots in turn; later passes
    index only the large half-steps still in range, whose multiples are
    distinct for a fixed j.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    check_ceiling(x, "omega* table size")
    if x >= _UINT16_BELOW:
        raise ResourceLimitError(f"omega* table size = {x} reaches {_UINT16_BELOW}, where uint16 counts end")
    half = x // 2
    # (x + 2) // 2 = half + 1 slots: slot t for every t <= half
    bits = sieve_primes(x + 1).bits
    h = np.ones(half + 1, dtype=np.uint16)
    split = half // _SMALL_STEP_MULTIPLES
    small = _set_slots(bits, 1, split + 1)
    on_wheel = _WHEEL % small == 0
    # Each slice gains one in place on its view: `h[...] += 1` would add a
    # __setitem__ of the view onto itself and convert the Python int 1 per step.
    one = np.uint16(1)
    for step in small[on_wheel].tolist():
        multiples = h[step : _WHEEL + 1 : step]
        multiples += one
    _tile(h[1:], _WHEEL)
    for step in small[~on_wheel].tolist():
        multiples = h[step::step]
        multiples += one
    lo = split + 1
    for a, flags in _unpacked(bits, lo, half + 1):
        ones = flags.view(np.uint8)  # a uint16 slice adds uint8 faster than bool
        for j in range(1, _DENSE_PASSES + 1):
            b = min(a + ones.size, half // j + 1)
            if b <= a:
                break
            h[j * a : j * (b - 1) + 1 : j] += ones[: b - a]
        del flags, ones  # so that one unpacked window is held at a time
    large = _set_slots(bits, lo, half // (_DENSE_PASSES + 1) + 1)
    del bits  # x / 16 bytes that the sparse passes no longer read
    j = _DENSE_PASSES + 1
    while large.size:
        h[j * large] += 1
        j += 1
        large = large[: np.searchsorted(large, half // j, side="right")]
    return OmegaStarTable(x=x, counts=h)


def moment_sum(table: OmegaStarTable, k: int, upto: int | None = None, lo: int = 0) -> int:
    """Exact integer sum of omega*(n)^k over lo < n <= upto (default: the
    whole table).

    The odd n in (lo, upto] add (upto - upto // 2) - (lo - lo // 2) entries
    of value 1.  At k = 1 the even n add the plain int64 sum of their counts.
    At k >= 2 their value histogram is accumulated in blocks of _HIST_BLOCK
    entries, so the working memory beyond the table does not grow with upto.
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
        return int(even.sum(dtype=np.int64)) + odd
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
    check_ceiling(xs[-1], "omega* table size")
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
