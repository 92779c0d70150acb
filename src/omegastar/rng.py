"""SplitMix64: the pinned pseudorandom generator for all sampling.

Contract (stable across platforms and versions): a stream seeded with the
64-bit integer `seed` produces outputs

    out_i = mix64((seed + i * GAMMA) mod 2**64),  i = 1, 2, ...

where GAMMA = 0x9E3779B97F4A7C15 and mix64 is the murmur-style finalizer
that `_mix64_inplace` applies to each entry of a uint64 array.  A draw is
the top 53 bits of an output, the integer out >> 11 in [0, 2**53); its
unit float is (out >> 11) * 2**-53, exact in float64.
`unit_block` hands back the raw outputs, the words out, not the draws: a
caller compares a word with T * 2**11 to ask whether its draw is below the
integer T, which holds exactly when (out >> 11) < T.
Substream j of a seed is itself SplitMix64-seeded with
mix64(seed + j * GAMMA), so disjoint index ranges give reproducible,
order-independent parallel sampling.

The pure-integer mix64 and substream seed live in tests/oracles.py; the
tests pin this module's numpy paths to them bit for bit.
"""

from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array, overwriting it; returns z.  Callers pass an
    array they own, never one a caller of theirs handed in.  The shifted
    copies go to `scratch` (uint64, z's shape)."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def substream_seeds(seed: int, start: int, count: int) -> np.ndarray:
    """Vector of substream seeds for indices start .. start+count-1;
    substreams of one seed never share raw states for the index ranges used
    here."""
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= np.uint64(GAMMA)
    z += np.uint64(seed & _MASK)
    return _mix64_inplace(z, np.empty_like(z))


def unit_block(seeds: np.ndarray, n: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Matrix of raw outputs: row i holds the first n words of seeds[i].

    Entry (i, j - 1) is the word mix64(seeds[i] + j * GAMMA) as uint64; its
    draw is word >> 11, and that times 2**-53 is the draw's unit float.  The
    states are mixed in place in the caller's `out` (uint64, shape
    (seeds.size, n)), which is returned; `scratch`, of the same dtype and
    shape, takes the mixing's shifted copies.  `seeds` is only read.
    """
    # A row of offsets copied in, then the seeds added down the columns.  A
    # ufunc stages each broadcast operand through a numpy iterator buffer, so
    # one add of both would cost two buffers and more time than this.
    np.copyto(out, np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA))
    out += seeds[:, None]
    return _mix64_inplace(out, scratch)
