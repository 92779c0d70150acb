"""The shifted-prime divisor function omega*(n) and its moments M_k(x).

omega*(n) counts divisors d of n with d + 1 prime; it is >= 1 always, equals
1 exactly on odd n, and is bounded by the divisor count tau(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import divisors
from .sieve import PrimeTable, check_ceiling, factorize, is_prime, sieve_primes

# Steps p - 1 with at least this many multiples in [1, x] get a slice update each.
_SMALL_STEP_MULTIPLES = 64
# Entries per np.bincount call in moment_sum.
_HIST_BLOCK = 1 << 20


@dataclass
class OmegaStarTable:
    """counts[n] = omega*(n) for 1 <= n <= x; counts[0] is an unused 0."""

    x: int
    counts: np.ndarray


@dataclass
class MomentSeries:
    k: int
    points: list[tuple[int, float]]


def omega_star(n: int) -> int:
    """Number of divisors d of n such that d + 1 is prime."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sum(1 for d in divisors(factorize(n)).divisors if is_prime(d + 1))


def omega_star_table(x: int, table: PrimeTable | None = None) -> OmegaStarTable:
    """Bulk omega* over [1, x]: for each prime p <= x + 1, every multiple of
    p - 1 gains one count (p = 2 contributes to every n).

    Steps s = p - 1 <= x // _SMALL_STEP_MULTIPLES get one strided slice
    update each.  Every larger step has fewer than _SMALL_STEP_MULTIPLES
    multiples, so those are added by multiplier instead: pass j adds one to
    j * s for all large steps s <= x // j in a single fancy-index update,
    whose indices are distinct for a fixed j.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    check_ceiling(x, "omega* table size")
    if table is None or table.limit < x + 1:
        table = sieve_primes(x + 1)
    counts = np.zeros(x + 1, dtype=np.int32)
    steps = table.primes[: table.count(x + 1)] - 1
    split = np.searchsorted(steps, x // _SMALL_STEP_MULTIPLES, side="right")
    for step in steps[:split].tolist():
        counts[step::step] += 1
    large = steps[split:]
    j = 1
    while large.size:
        counts[j * large] += 1
        j += 1
        large = large[: np.searchsorted(large, x // j, side="right")]
    return OmegaStarTable(x=x, counts=counts)


def moment_sum(table: OmegaStarTable, k: int, upto: int | None = None) -> int:
    """Exact integer sum of omega*(n)^k over n <= upto (default: the whole table).

    The value histogram is accumulated over blocks of _HIST_BLOCK entries, so
    the working memory beyond the table does not grow with upto.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    x = table.x if upto is None else upto
    if not 1 <= x <= table.x:
        raise ValueError(f"upto = {x} outside table range [1, {table.x}]")
    values = table.counts[1 : x + 1]
    hist = np.zeros(int(values.max()) + 1, dtype=np.int64)
    for lo in range(0, x, _HIST_BLOCK):
        hist += np.bincount(values[lo : lo + _HIST_BLOCK], minlength=hist.size)
    return sum(int(c) * v**k for v, c in enumerate(hist.tolist()) if c)


def moment(table: OmegaStarTable, k: int) -> float:
    """M_k(x) = (1/x) * sum of omega*(n)^k over n <= x, accumulated exactly."""
    return moment_sum(table, k) / table.x


def moment_scan(xs: list[int], k: int, table: OmegaStarTable | None = None) -> MomentSeries:
    """M_k at each x in ascending xs, from one shared bulk table."""
    if not xs:
        raise ValueError("xs must be nonempty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("xs must be strictly ascending")
    if xs[0] < 1:
        raise ValueError("xs entries must be >= 1")
    if table is None or table.x < xs[-1]:
        table = omega_star_table(xs[-1])
    points = [(x, moment_sum(table, k, upto=x) / x) for x in xs]
    return MomentSeries(k=k, points=points)


def moment_series_csv(series: MomentSeries) -> str:
    """CSV rendering with header x,k,Mk,log_x,loglog_x."""
    lines = ["x,k,Mk,log_x,loglog_x"]
    for x, mk in series.points:
        log_x = math.log(x) if x >= 1 else float("nan")
        loglog_x = math.log(math.log(x)) if x >= 2 else float("nan")
        lines.append(f"{x},{series.k},{mk!r},{log_x!r},{loglog_x!r}")
    return "\n".join(lines) + "\n"
