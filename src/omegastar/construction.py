"""Pair counting and the randomized divisor-set construction.

Two families of objects live here.  The pair-counting side works with genuine
small integers: counts A_d of pairs (m, p) with p = 1 (mod d) and
gcd(m, k) = k/d, the total count A of pairs with k | m(p-1), representation
counts for n = m(p-1), and champion scans for record omega* values.

The randomized side is parameterized by log x directly (every quantity
depends on x only through log x, so realistic regimes like log x ~ 1100 are
testable without astronomical integers).  A random divisor d of the primorial
k picks each prime r <= L independently with probability rho; acceptance
windows on log d and on Omega(d) carve out the divisor sets D and D', whose
cardinality is bounded below through Chebyshev concentration plus a Bernoulli
entropy count.  k and d are carried as prime lists and log-values, never as
big integers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .arith import count_coprime_up_to, divisors
from .constants import GRH_U, UNCONDITIONAL_THETA, UNCONDITIONAL_U
from .omega import OmegaStarTable, omega_star_table
from .sieve import (
    Factorization,
    PrimeTable,
    ResourceLimitError,
    check_ceiling,
    factorize,
    is_prime,
    primes_in_ap,
    sieve_primes,
)

MODES = ("GRH", "UNCONDITIONAL")

_MIN_LOG_X = 100.0
_MAX_EXACT_R = 24
_MAX_PAIR_X = 10**5
# Samples per Monte Carlo chunk.  Chunk boundaries set the summation order of
# log d, so this size is part of the byte-identical output contract.
_CHUNK = 4096
# Draws per row block within a chunk.  A block of 2^16 // R rows keeps its
# matrix near 512 KiB (381 x 172 at log x = 1100), so drawing, thresholding
# and reducing it stay in a per-core L2 cache.  Each row is summed on its own,
# so block boundaries do not change any output bit.
_BLOCK_WORDS = 1 << 16


@dataclass(eq=False)
class ConstructionParams:
    """Everything the randomized construction needs, derived from log x.

    epsilon = (log log x)^(-1/2); L = (u - epsilon) log x; k is the product of
    the R primes <= L; each prime enters a random divisor with probability
    rho = (theta - eps)/(u - eps), with (theta, u) = (1/2, (3 + sqrt 5)/4) in
    GRH mode and (0.4736, 1.2694) unconditionally.
    """

    log_x: float
    mode: str
    theta: float
    u: float
    epsilon: float
    rho: float
    L: float
    R: int
    k_primes: np.ndarray
    log_primes: np.ndarray

    @property
    def log_k(self) -> float:
        return float(self.log_primes.sum())

    @property
    def target_log_d(self) -> float:
        return (self.theta - self.epsilon) * self.log_x

    @property
    def window_log_d(self) -> float:
        if self.mode == "GRH":
            return 2.0 * self.L / math.log(self.L) ** 2
        return self.L ** (2.0 / 3.0)

    @property
    def window_omega(self) -> float:
        return float(self.R) ** (2.0 / 3.0)

    @property
    def expected_omega(self) -> float:
        return self.rho * self.R


@dataclass(eq=False)
class DivisorSample:
    """One random divisor d | k: indicator bits over k's primes, log d,
    Omega(d), and its acceptance-window flags."""

    indicators: np.ndarray
    log_d: float
    big_omega_d: int
    in_window_logd: bool
    in_window_omega: bool


@dataclass
class ChampionRecord:
    n: int
    omega_star_n: int
    score: float


@dataclass
class PairCountReport:
    x: int
    k: Factorization
    per_d: list[tuple[int, int]]
    total_A: int


class ExactEnumeration(NamedTuple):
    size_D: int
    size_Dprime: int
    prob_Dprime: float
    max_mass: float


@dataclass
class SampleStats:
    """Aggregates over seeded divisor samples; counts are exact integers."""

    trials: int
    seed: int
    n_in_logd: int
    n_in_omega: int
    n_in_dprime: int
    sum_log_d: float
    sum_omega: int

    @property
    def fail_rate_logd(self) -> float:
        return 1.0 - self.n_in_logd / self.trials

    @property
    def fail_rate_omega(self) -> float:
        return 1.0 - self.n_in_omega / self.trials

    @property
    def acceptance(self) -> float:
        return self.n_in_dprime / self.trials

    @property
    def mean_log_d(self) -> float:
        return self.sum_log_d / self.trials

    @property
    def mean_omega(self) -> float:
        return self.sum_omega / self.trials


def build_params(log_x: float, mode: str = "GRH") -> ConstructionParams:
    """Derive all construction parameters from log x and the mode.

    log_x >= _MIN_LOG_X keeps epsilon <= 0.466, below both size exponents.
    """
    mode = mode.strip().upper()
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not math.isfinite(log_x):
        raise ValueError(f"log_x must be finite, got {log_x}")
    if log_x < _MIN_LOG_X:
        raise ValueError(
            f"log_x = {log_x} is too small: require log_x >= {_MIN_LOG_X:g} so that "
            "epsilon = (log log_x)^(-1/2) stays below the size exponent and the "
            "acceptance windows are meaningful"
        )
    theta, u = (0.5, GRH_U) if mode == "GRH" else (UNCONDITIONAL_THETA, UNCONDITIONAL_U)
    epsilon = 1.0 / math.sqrt(math.log(log_x))
    L = (u - epsilon) * log_x
    if math.isinf(L):
        raise ResourceLimitError(f"sieve limit L = (u - epsilon) * log_x overflows a float at log_x = {log_x}")
    k_primes = sieve_primes(int(L)).primes
    rho = (theta - epsilon) / (u - epsilon)
    return ConstructionParams(
        log_x=float(log_x),
        mode=mode,
        theta=theta,
        u=u,
        epsilon=epsilon,
        rho=rho,
        L=L,
        R=int(k_primes.size),
        k_primes=k_primes,
        log_primes=np.log(k_primes.astype(np.float64)),
    )


def count_A_d(x: int, y: int, k: Factorization, d: int, table: PrimeTable | None = None) -> int:
    """#{(m, p) : m <= y, p <= x prime, p = 1 (mod d), gcd(m, k) = k/d}.

    Counted without enumerating pairs: the p-count and m-count factor, because
    gcd(m, k) = k/d forces m = (k/d) m' with m' <= y d / k coprime to d.
    """
    if x < 0 or y < 0:
        raise ValueError("x and y must be nonnegative")
    if not k.is_squarefree():
        raise ValueError(f"k = {k.n} is not squarefree")
    if d < 1 or k.n % d != 0:
        raise ValueError(f"d = {d} does not divide k = {k.n}")
    p_count = primes_in_ap(x, d, 1 % d, table=table)
    m_count = count_coprime_up_to(y // (k.n // d), factorize(d))
    return p_count * m_count


def _check_pair_x(x: int) -> None:
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x > _MAX_PAIR_X:
        raise ValueError(f"total pair counts are capped at x <= {_MAX_PAIR_X} (quadratic pair space)")


def total_pairs_A(x: int, k: Factorization, table: PrimeTable | None = None) -> int:
    """Exact number of pairs (m, p) with m, p <= x and k | m(p-1).

    Iterates p and counts the multiples of k/gcd(p-1, k); quadratic pair space
    is capped at desk scale.
    """
    _check_pair_x(x)
    if k.n < 1:
        raise ValueError("k must be positive")
    if table is None or table.limit < x:
        table = sieve_primes(int(x))
    ps = table.primes[: table.count(x)]
    if ps.size == 0:
        return 0
    g = np.gcd(ps - 1, k.n)
    return int((x // (k.n // g)).sum())


def count_representations(n: int, m_max: int, p_max: int) -> int:
    """#{(m, p) : m <= m_max, p <= p_max prime, n = m(p-1)}, by iterating the
    divisors d of n and testing p = d + 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    count = 0
    for d in divisors(factorize(n)):
        p = d + 1
        if p <= p_max and n // d <= m_max and is_prime(p):
            count += 1
    return count


def champion_search(
    N: int, k: Factorization, table: OmegaStarTable | None = None
) -> ChampionRecord:
    """Maximize omega*(n) over multiples n of k with k <= n <= N; ties break
    toward the smallest n.  omega* is >= 2 on even n and 1 on odd n, so only
    n = 2m are read, m a multiple of k / 2 (even k) or k (odd k, if 2k <= N)."""
    if k.n < 1:
        raise ValueError("k must be positive")
    if k.n > N:
        raise ValueError(f"k = {k.n} exceeds N = {N}: no multiples to scan")
    if table is None or table.x < N:
        table = omega_star_table(N)
    step = k.n // 2 if k.n % 2 == 0 else k.n
    multiples = table.counts[step : N // 2 + 1 : step]
    if not multiples.size:
        return ChampionRecord(n=k.n, omega_star_n=1, score=champion_score(k.n, 1))
    i = int(multiples.argmax())
    w = int(multiples[i])
    n = 2 * step * (i + 1)
    return ChampionRecord(n=n, omega_star_n=w, score=champion_score(n, w))


def champion_score(n: int, omega_star_n: int) -> float:
    """log(omega*(n)) log log n / log n, the exponent normalization; NaN below
    n = 3 where log log n degenerates."""
    if n < 3:
        return float("nan")
    return math.log(omega_star_n) * math.log(math.log(n)) / math.log(n)


def _window_flags(params: ConstructionParams, log_d, big_omega_d):
    """(in log d window, in Omega window), elementwise on scalars or arrays:
    |log d - target| < window_log_d strictly, |Omega - rho R| <= window_omega."""
    in_logd = abs(log_d - params.target_log_d) < params.window_log_d
    in_omega = abs(big_omega_d - params.expected_omega) <= params.window_omega
    return in_logd, in_omega


def sample_divisor(params: ConstructionParams, seed: int) -> DivisorSample:
    """Draw one random divisor of k: prime r enters with probability rho,
    decided by thresholding row 0 of rng.unit_block for `seed` in [0, 2^64).
    Deterministic given the seed, bit-for-bit across platforms."""
    draws = rng.unit_block(np.array([seed], dtype=np.uint64), params.R)[0]
    indicators = draws < _threshold(params.rho)
    log_d = float((indicators * params.log_primes).sum())
    w = int(indicators.sum())
    in_logd, in_omega = _window_flags(params, log_d, w)
    return DivisorSample(
        indicators=indicators,
        log_d=log_d,
        big_omega_d=w,
        in_window_logd=bool(in_logd),
        in_window_omega=bool(in_omega),
    )


def _threshold(rho: float) -> np.uint64:
    """ceil(rho * 2^53): a 53-bit draw k has unit float k * 2^-53 < rho exactly
    when k < this, since k * 2^-53 and rho * 2^53 are both exact."""
    return np.uint64(math.ceil(math.ldexp(rho, 53)))


def _block_rows(R: int) -> int:
    return max(1, _BLOCK_WORDS // R)


def _chunk_stats(params: ConstructionParams, seed: int, start: int, count: int):
    seeds = rng.substream_seeds(seed, start, count)
    rows = _block_rows(params.R)
    threshold = _threshold(params.rho)
    # One block matrix per chunk, reused by every block.  The allocator hands
    # a freed 512 KiB matrix back to the OS, so a fresh one per block would be
    # page-faulted in again each time.
    block = np.empty((min(rows, count), params.R), dtype=np.uint64)
    log_d = np.empty(count, dtype=np.float64)
    # Omega as float64 row sums of 0.0 and 1.0: exact, since none exceeds R.
    w = np.empty(count, dtype=np.float64)
    for a in range(0, count, rows):
        b = min(a + rows, count)
        draws = rng.unit_block(seeds[a:b], params.R, out=block[: b - a])
        # The indicators draws < threshold, as in sample_divisor, written over
        # the draws as 0.0 and 1.0.  Input and output share memory; numpy
        # gives overlapping operands the result they would have without the
        # overlap.  Times log r they are the terms of log d.
        terms = np.less(draws, threshold, out=draws.view(np.float64))
        w[a:b] = terms.sum(axis=1)
        terms *= params.log_primes
        log_d[a:b] = terms.sum(axis=1)
    in_logd, in_omega = _window_flags(params, log_d, w)
    return (
        int(in_logd.sum()),
        int(in_omega.sum()),
        int((in_logd & in_omega).sum()),
        float(log_d.sum()),
        int(w.sum()),
    )


def sample_stats(params: ConstructionParams, trials: int, seed: int, workers: int = 1) -> SampleStats:
    """Aggregate `trials` seeded samples.

    Sample i is exactly sample_divisor(params, rng.substream_seed(seed, i)),
    so disjoint index chunks can run on parallel workers; chunk results are
    reduced in index order, making the output independent of worker count.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    check_ceiling(trials, "trials")
    chunks = [(start, min(_CHUNK, trials - start)) for start in range(0, trials, _CHUNK)]
    with ThreadPoolExecutor(max_workers=max(1, min(workers, os.cpu_count() or 1, len(chunks)))) as pool:
        results = list(pool.map(lambda c: _chunk_stats(params, seed, *c), chunks))
    n_logd = sum(r[0] for r in results)
    n_omega = sum(r[1] for r in results)
    n_dprime = sum(r[2] for r in results)
    sum_log_d = math.fsum(r[3] for r in results)
    sum_omega = sum(r[4] for r in results)
    return SampleStats(
        trials=trials,
        seed=seed,
        n_in_logd=n_logd,
        n_in_omega=n_omega,
        n_in_dprime=n_dprime,
        sum_log_d=sum_log_d,
        sum_omega=sum_omega,
    )


def log_d_moments(params: ConstructionParams) -> tuple[float, float]:
    """Exact mean and variance of log d = sum of v_r log r over the actual
    prime list (not asymptotics)."""
    mean = params.rho * float(params.log_primes.sum())
    var = params.rho * (1.0 - params.rho) * float((params.log_primes**2).sum())
    return mean, var


def chebyshev_bounds(params: ConstructionParams) -> tuple[float, float]:
    """Chebyshev bounds on the window failure probabilities.

    p_fail_logd = Var[log d] / window^2 with the exact per-mode window;
    p_fail_omega = rho(1-rho) R / R^(4/3).
    """
    _, var = log_d_moments(params)
    p_fail_logd = var / params.window_log_d**2
    p_fail_omega = params.rho * (1.0 - params.rho) * params.R / float(params.R) ** (4.0 / 3.0)
    return p_fail_logd, p_fail_omega


def entropy_lower_bound(params: ConstructionParams) -> float:
    """R * H(rho), the natural log of the concentration count bound
    rho^(-rho R) (1-rho)^(-(1-rho) R); the exp(O(R^(2/3))) fudge is excluded
    (report it separately as R^(2/3))."""
    rho = params.rho
    if not 0.0 < rho < 1.0:
        return 0.0
    h = -rho * math.log(rho) - (1.0 - rho) * math.log(1.0 - rho)
    return params.R * h


def _subset_profiles(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = logs.size
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1).astype(np.float64)
    return (bits * logs).sum(axis=1), bits.sum(axis=1).astype(np.int64)


def enumerate_D_exact(params: ConstructionParams) -> ExactEnumeration:
    """Exhaustive walk over all 2^R divisors of k.

    Returns the exact sizes of D and D', the total probability mass of D'
    (mass(d) = rho^Omega(d) (1-rho)^(R-Omega(d)), a function of Omega(d)
    alone), and the largest mass carried by any member of D'.
    """
    R = params.R
    if R > _MAX_EXACT_R:
        raise ResourceLimitError(f"exact enumeration needs 2^R walks; R = {R} > {_MAX_EXACT_R}")
    rho = params.rho
    logs = params.log_primes
    half = R // 2
    sums_a, pops_a = _subset_profiles(logs[:half])
    sums_b, pops_b = _subset_profiles(logs[half:])
    size_D = 0
    omega_counts = np.zeros(R + 1, dtype=np.int64)
    for sa, pa in zip(sums_a.tolist(), pops_a.tolist()):
        log_d = sa + sums_b
        w = pa + pops_b
        in_logd, in_omega = _window_flags(params, log_d, w)
        size_D += int(in_logd.sum())
        sel = in_logd & in_omega
        if sel.any():
            omega_counts += np.bincount(w[sel], minlength=R + 1)
    mass = np.array([rho**w * (1.0 - rho) ** (R - w) for w in range(R + 1)])
    prob = float((omega_counts * mass).sum())
    populated = omega_counts > 0
    max_mass = float(mass[populated].max()) if populated.any() else 0.0
    return ExactEnumeration(
        size_D=size_D,
        size_Dprime=int(omega_counts.sum()),
        prob_Dprime=prob,
        max_mass=max_mass,
    )


def pair_count_report(x: int, k: Factorization) -> PairCountReport:
    """A_d for every divisor d <= sqrt(k) of k, next to the exact total A.

    Each pair lands in A_d for at most one d, so the listed counts must sum to
    at most total_A.
    """
    _check_pair_x(x)
    table = sieve_primes(int(x))
    small_d = [d for d in divisors(k) if d * d <= k.n]
    per_d = [(d, count_A_d(x, x, k, d, table=table)) for d in small_d]
    return PairCountReport(x=x, k=k, per_d=per_d, total_A=total_pairs_A(x, k, table=table))
