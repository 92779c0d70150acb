"""Pair counting and the randomized divisor-set construction.

Two families of objects live here.  The pair-counting side works with genuine
small integers: one report of the counts A_d of pairs (m, p) with
p = 1 (mod d) and gcd(m, k) = k/d, and the total count A of pairs with
k | m(p-1), all read from one histogram of gcd(p - 1, k) over the primes;
and champion scans for record omega* values.

The randomized side is parameterized by log x directly (every quantity
depends on x only through log x, so realistic regimes like log x ~ 1100 are
testable without astronomical integers).  A random divisor d of the primorial
k picks each prime r <= L independently with probability rho; acceptance
windows on log d and on Omega(d) carve out the divisor sets D and D', whose
cardinality is bounded below through Chebyshev concentration plus a Bernoulli
entropy count.  k and d are carried as prime lists and log-values, never as
big integers.

Test-only references live in tests/oracles.py: a one-sample sampler that
shares no kernel with the Monte Carlo chunk, the exhaustive walk over all
2^R divisors at R = 24, and the representation count of n = m(p - 1).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from . import rng
from .arith import count_coprime_up_to, divisors
from .constants import GRH_U, UNCONDITIONAL_THETA, UNCONDITIONAL_U
from .omega import OmegaStarTable, omega_star_table
from .sieve import (
    Factorization,
    ResourceLimitError,
    check_ceiling,
    factorize,
    sieve_primes,
)

MODES = ("GRH", "UNCONDITIONAL")

_MIN_LOG_X = 100.0
# Samples per Monte Carlo chunk.  Chunk boundaries set the summation order of
# log d, so this size is part of the byte-identical output contract.
_CHUNK = 4096
# Draws per row block within a chunk.  A block of 2^16 // R rows keeps its
# matrix near 512 KiB (381 x 172 at log x = 1100), so drawing, thresholding
# and reducing it stay in a per-core L2 cache.  Each row is summed on its own,
# so block boundaries do not change any output bit.
_BLOCK_WORDS = 1 << 16


class ConstructionParams(NamedTuple):
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


class ChampionRecord(NamedTuple):
    n: int
    omega_star_n: int
    score: float


class PairCountReport(NamedTuple):
    per_d: list[tuple[int, int]]
    total_A: int


class SampleStats(NamedTuple):
    """Aggregates over seeded divisor samples; counts are exact integers."""

    trials: int
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
    table = sieve_primes(int(L))
    rho = (theta - epsilon) / (u - epsilon)
    return ConstructionParams(
        log_x=float(log_x),
        mode=mode,
        theta=theta,
        u=u,
        epsilon=epsilon,
        rho=rho,
        L=L,
        R=table.count,
        log_primes=np.log(table.primes),
    )


def champion_search(N: int, k: int, table: OmegaStarTable | None = None) -> ChampionRecord:
    """Maximize omega*(n) over multiples n of k with k <= n <= N; ties break
    toward the smallest n.  omega* is >= 2 on even n and 1 on odd n, so only
    n = 2m are read, m a multiple of k / 2 (even k) or k (odd k, if 2k <= N)."""
    if k < 1:
        raise ValueError(f"k = {k} must be positive")
    if k > N:
        raise ValueError(f"k = {k} exceeds N = {N}: no multiples to scan")
    if table is None or table.x < N:
        table = omega_star_table(N)
    step = k // 2 if k % 2 == 0 else k
    multiples = table.counts[step : N // 2 + 1 : step]
    if not multiples.size:
        return ChampionRecord(n=k, omega_star_n=1, score=champion_score(k, 1))
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


def _below_limit(words: np.ndarray, rho: float, out: np.ndarray) -> np.ndarray:
    """Whether each raw word's draw has unit float below rho, elementwise,
    into `out`: the compare words < ceil(rho * 2^53) * 2^11.

    A 53-bit draw k has unit float k * 2^-53 < rho exactly when
    k < T = ceil(rho * 2^53), since k * 2^-53 and rho * 2^53 are both exact;
    and the word z with k = z >> 11 is below T * 2^11 exactly when k < T.
    At rho = 0 the limit is 0 and no word is below it.
    """
    limit = math.ceil(math.ldexp(rho, 53)) << 11
    if limit >> 64:
        # At rho >= 1 the limit is 2^64 or more, which no uint64 holds, and
        # every word is below it.
        return np.less_equal(words, np.uint64(2**64 - 1), out=out)
    return np.less(words, np.uint64(limit), out=out)


def _block_rows(R: int) -> int:
    return max(1, _BLOCK_WORDS // R)


class _ChunkBuffers(NamedTuple):
    """The arrays a chunk writes into.  One worker reuses them for every chunk
    it runs, so that no block allocates a matrix: a freed matrix goes back to
    the OS and would be page-faulted in again."""

    block: np.ndarray  # words of one row block: uint64, rows x R
    mix: np.ndarray  # mix64's shifted copies, block's dtype and shape
    log_d: np.ndarray  # log d of each sample: float64, one per sample
    omega: np.ndarray  # Omega(d) of each sample, log_d's dtype and shape


def _chunk_buffers(params: ConstructionParams, count: int) -> _ChunkBuffers:
    """Buffers for chunks of at most `count` samples, in row blocks of
    min(2^16 // R, count) rows."""
    block = np.empty((min(_block_rows(params.R), count), params.R), dtype=np.uint64)
    return _ChunkBuffers(block, np.empty_like(block), np.empty(count), np.empty(count))


def _chunk_stats(params: ConstructionParams, seed: int, start: int, count: int, buffers: _ChunkBuffers):
    """Window counts and sums over samples start .. start+count-1, written
    into `buffers`, made for this count or a larger one."""
    seeds = rng.substream_seeds(seed, start, count)
    rows = buffers.block.shape[0]
    log_d = buffers.log_d[:count]
    w = buffers.omega[:count]
    for a in range(0, count, rows):
        b = min(a + rows, count)
        words = rng.unit_block(seeds[a:b], params.R, out=buffers.block[: b - a], scratch=buffers.mix[: b - a])
        # The indicators, written over the words as 0.0 and 1.0.  Input and
        # output share memory; numpy gives overlapping operands the result
        # they would have without the overlap.  Times log r they are the
        # terms of log d.
        terms = _below_limit(words, params.rho, out=words.view(np.float64))
        # Omega: each term is 0.0 or 1.0 and no count exceeds R, so any
        # summation order is exact.  log d keeps numpy's pairwise row sum,
        # which its bytes depend on.
        np.einsum("ij->i", terms, out=w[a:b])
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


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, otherwise 0 .. cpu_count - 1."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin_thread(cpu: int) -> None:
    """Keep the calling thread on `cpu`, if the platform allows it.

    Sampler threads wake each other as they hand the GIL back and forth,
    and in a fresh process the kernel often keeps two of them on one CPU
    for a whole call, each chunk taking three times as long or more.  A pin
    is only a placement hint; where the call is missing or refused the
    thread runs unpinned.  On Linux, pid 0 names the calling thread alone.
    """
    pin = getattr(os, "sched_setaffinity", None)
    if pin is not None:
        try:
            pin(0, {cpu})
        except OSError:
            pass


def sample_stats(params: ConstructionParams, trials: int, seed: int, workers: int = 1) -> SampleStats:
    """Aggregate `trials` seeded samples.

    Sample i reads the words of substream i of `seed`, so disjoint index
    chunks can run on parallel workers; sample_divisor in tests/oracles.py
    draws the same sample alone, from the definition of a draw.  There is one
    thread per worker, at most one per usable CPU and per chunk, and several
    are pinned to distinct CPUs.  Each claims the next chunk nobody has
    claimed; chunk results are reduced in index order, making the output
    independent of worker count and scheduling.  Once a chunk raises, no
    worker claims another, and the first exception is raised here after
    every worker has stopped.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    check_ceiling(trials, "trials")
    chunks = [(start, min(_CHUNK, trials - start)) for start in range(0, trials, _CHUNK)]
    claims = iter(range(len(chunks)))
    lock = threading.Lock()
    results = [None] * len(chunks)
    errors = []
    cpus = _usable_cpus()
    n_threads = max(1, min(workers, len(cpus), len(chunks)))

    def work(cpu):
        try:
            if n_threads > 1:  # a lone worker stays free to leave a busy CPU
                _pin_thread(cpu)
            buffers = _chunk_buffers(params, chunks[0][1])
            while not errors:
                with lock:
                    i = next(claims, None)
                if i is None:
                    return
                results[i] = _chunk_stats(params, seed, *chunks[i], buffers)
        except BaseException as exc:  # raised again in the caller, below
            errors.append(exc)

    threads = [threading.Thread(target=functools.partial(work, cpu)) for cpu in cpus[:n_threads]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    n_logd = sum(r[0] for r in results)
    n_omega = sum(r[1] for r in results)
    n_dprime = sum(r[2] for r in results)
    sum_log_d = math.fsum(r[3] for r in results)
    sum_omega = sum(r[4] for r in results)
    return SampleStats(
        trials=trials,
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


def pair_count_report(x: int, k: Factorization) -> PairCountReport:
    """A_d = #{(m, p) : m, p <= x, p = 1 (mod d), gcd(m, k) = k/d} for every
    divisor d <= sqrt(k) of a squarefree k, next to the exact total A of
    pairs (m, p), m, p <= x, with k | m(p-1).

    Both depend on a prime p only through g = gcd(p - 1, k), so one sieve and
    one histogram c_g of g over the primes p <= x give them all.  k | m(p - 1)
    exactly when k/g divides m, so A = sum of c_g floor(x / (k/g)).  For d | k,
    d | p - 1 exactly when d | g, so A_d takes the sum of c_g over d | g,
    times the m <= x with gcd(m, k) = k/d: m = (k/d) m' with m' <= x d / k
    coprime to d, since gcd((k/d) m', k) = (k/d) gcd(m', d).

    Each pair lands in A_d for at most one d, so the listed counts must sum to
    at most total_A.  Both k and x are checked before the sieve runs.
    """
    if not k.is_squarefree():
        raise ValueError(f"k = {k.n} is not squarefree")
    if x < 0:
        raise ValueError("x must be nonnegative")
    ps = sieve_primes(int(x)).primes
    gs, cs = np.unique(np.gcd(ps - 1, k.n), return_counts=True)
    per_d = [
        (d, int(cs[gs % d == 0].sum()) * count_coprime_up_to(x // (k.n // d), factorize(d)))
        for d in divisors(k)
        if d * d <= k.n
    ]
    return PairCountReport(per_d=per_d, total_A=int((cs * (x // (k.n // gs))).sum()))
