"""SplitMix64: the pinned pseudorandom generator for all sampling.

Contract (stable across platforms and versions): a stream seeded with the
64-bit integer `seed` produces outputs

    out_i = mix64((seed + i * GAMMA) mod 2**64),  i = 1, 2, ...

where GAMMA = 0x9E3779B97F4A7C15 and mix64 is the murmur-style finalizer
below.  A draw is the top 53 bits of an output, the integer out >> 11 in
[0, 2**53); its unit float is (out >> 11) * 2**-53, exact in float64.
Substream j of a seed is itself SplitMix64-seeded with
mix64(seed + j * GAMMA), so disjoint index ranges give reproducible,
order-independent parallel sampling.

Scalar (pure int) and vectorized (numpy uint64) paths are bit-identical.
"""

from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array, overwriting it; returns z.  Callers pass an
    array they own, never one a caller of theirs handed in."""
    t = np.empty_like(z)
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def substream_seed(seed: int, j: int) -> int:
    """Seed of substream j; substreams of one seed never share raw states for
    the index ranges used here."""
    return mix64((seed + j * GAMMA) & _MASK)


def substream_seeds(seed: int, start: int, count: int) -> np.ndarray:
    """Vector of substream seeds for indices start .. start+count-1."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    return _mix64_inplace(np.uint64(seed & _MASK) + idx * np.uint64(GAMMA))


def unit_block(seeds: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of 53-bit draws: row i holds the first n draws of seeds[i].

    Entry (i, j - 1) is mix64(seeds[i] + j * GAMMA) >> 11 as uint64; times
    2**-53 it is the unit float of that draw.  The states are mixed and shifted
    in place in one uint64 matrix: a fresh one, or `out` (uint64, shape
    (seeds.size, n)), which is then returned.  `seeds` is only read.
    """
    offs = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA)
    z = _mix64_inplace(np.add(seeds[:, None], offs[None, :], out=out))
    z >>= np.uint64(11)
    return z
