"""Test-only references that no CLI path reaches.

The scalar SplitMix64 finalizer and substream seed in pure Python integers,
which the vectorized `omegastar.rng` is pinned against; a one-sample
reference for the Monte Carlo chunk; the exhaustive walk over all 2^R
divisors at R = 24; the representation count behind the bridging
identity; and the argparse grammar that the CLI's option-table parser
must accept and refuse alike.

`sample_divisor` shares no kernel with the Monte Carlo chunk of
`omegastar.construction`.  It takes its words from `rng.substream_seeds`,
which the rng tests pin against the pure-integer stream below, includes a
prime when the draw's unit float is below rho, and states both window
compares itself.  A fault in the chunk's word matrix, its threshold or its
window test therefore shows as a mismatch between the two.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from omegastar import rng
from omegastar.arith import divisors
from omegastar.cli import (
    _cmd_champions,
    _cmd_constants,
    _cmd_moments,
    _cmd_omega_star,
    _cmd_pairs,
    _cmd_report,
    _cmd_sample_divisors,
    _cmd_smooth,
    _cmd_smooth_scan,
)
from omegastar.constants import UNCONDITIONAL_THETA
from omegastar.sieve import ResourceLimitError, factorize, is_prime

_MASK = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MAX_EXACT_R = 24


def mix64(z: int) -> int:
    """The SplitMix64 finalizer on one 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def substream_seed(seed: int, j: int) -> int:
    """Seed of substream j of `seed`: mix64(seed + j * GAMMA)."""
    return mix64((seed + j * rng.GAMMA) & _MASK)


def _in_windows(params, log_d, big_omega_d):
    """(in log d window, in Omega window), elementwise on scalars or arrays:
    |log d - target| < window_log_d strictly, |Omega - rho R| <= window_omega."""
    in_logd = abs(log_d - params.target_log_d) < params.window_log_d
    in_omega = abs(big_omega_d - params.expected_omega) <= params.window_omega
    return in_logd, in_omega


@dataclass(eq=False)
class DivisorSample:
    """One random divisor d | k: indicator bits over k's primes, log d,
    Omega(d), and its acceptance-window flags."""

    indicators: np.ndarray
    log_d: float
    big_omega_d: int
    in_window_logd: bool
    in_window_omega: bool


def sample_divisor(params, seed: int) -> DivisorSample:
    """Draw one random divisor of k from the stream of `seed` in [0, 2^64).

    Word j of the stream is substream j of the seed, j = 1 .. R; prime j is
    included when the draw's unit float (word >> 11) * 2^-53 is below rho.
    log d keeps numpy's sum of the indicator-weighted logs, whose bytes the
    chunk's row sums must match.
    """
    words = rng.substream_seeds(seed, 1, params.R)
    indicators = (words >> np.uint64(11)) * 2.0**-53 < params.rho
    log_d = float((indicators * params.log_primes).sum())
    w = int(indicators.sum())
    in_logd, in_omega = _in_windows(params, log_d, w)
    return DivisorSample(
        indicators=indicators,
        log_d=log_d,
        big_omega_d=w,
        in_window_logd=bool(in_logd),
        in_window_omega=bool(in_omega),
    )


class ExactEnumeration(NamedTuple):
    size_D: int
    size_Dprime: int
    prob_Dprime: float
    max_mass: float


def _subset_profiles(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = logs.size
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1).astype(np.float64)
    return (bits * logs).sum(axis=1), bits.sum(axis=1).astype(np.int64)


def enumerate_D_exact(params) -> ExactEnumeration:
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
        in_logd, in_omega = _in_windows(params, log_d, w)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegastar",
        description="Shifted-prime divisor counts, moments, divisor-set sampling, and smooth censuses.",
    )
    parser.add_argument("--seed", type=int, default=1, help="seed in [0, 2^64) for sampled sections")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument(
        "--workers",
        type=int,
        default=max(1, os.cpu_count() or 1),
        help="worker count for Monte Carlo sections (results are worker-count independent)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, handler, help: str, *formats: str) -> argparse.ArgumentParser:
        # `formats` are those the subcommand can write, default first; any other exits 2.
        s = sub.add_parser(name, help=help)
        s.set_defaults(handler=handler, formats=formats)
        return s

    s = command("omega-star", _cmd_omega_star, "omega*(n) for one n", "csv", "json")
    s.add_argument("--n", type=int, required=True)

    s = command("moments", _cmd_moments, "M_k at one or more x (comma separated)", "csv", "json")
    s.add_argument("--x", type=str, required=True)
    s.add_argument("--k", type=int, default=1)

    s = command("champions", _cmd_champions, "maximize omega* over multiples of k up to max-n", "csv", "json")
    s.add_argument("--max-n", type=int, required=True)
    s.add_argument("--k", type=int, default=1)

    s = command("constants", _cmd_constants, "optimized constants and identity residuals", "json", "csv")
    s.add_argument("--theta", type=float, default=UNCONDITIONAL_THETA)

    s = command("sample-divisors", _cmd_sample_divisors, "seeded random-divisor acceptance experiment", "json")
    s.add_argument("--log-x", type=float, required=True)
    s.add_argument("--mode", choices=("grh", "unconditional"), default="grh")
    s.add_argument("--trials", type=int, default=10**5)

    s = command("pairs", _cmd_pairs, "A_d pair counts for divisors d <= sqrt(k), plus total A", "json", "csv")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--k", type=int, required=True)

    s = command("smooth", _cmd_smooth, "Psi(x,y), pi(x,y), pi(x) and the density ratio", "csv", "json")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--y", type=int, required=True)

    s = command("smooth-scan", _cmd_smooth_scan, "smooth census at y = round(v log x) for each v", "csv")
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--v-list", type=str, required=True)

    s = command("report", _cmd_report, "consolidated JSON document", "json")
    s.add_argument("--x", type=int, default=10**6)
    s.add_argument("--log-x", type=float, default=1100.0)
    s.add_argument("--trials", type=int, default=10**5)
    s.add_argument("--mode", choices=("grh", "unconditional"), default="unconditional")
    s.add_argument("--smooth-y", type=int, default=100)

    return parser
