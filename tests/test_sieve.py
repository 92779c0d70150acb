import bisect
import math
import tracemalloc

import numpy as np
import pytest

from omegastar import sieve
from omegastar.sieve import (
    ResourceLimitError,
    _cutoffs,
    _flags_at,
    _odd_slots,
    _segment_flags,
    _slot_primes,
    _slot_windows,
    factorize,
    is_prime,
    sieve_primes,
)
from omegastar.smooth import smooth_census

from conftest import trial_division_is_prime, trial_division_primes


class TestSievePrimes:
    def test_first_primes(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]

    def test_limit_one_is_empty(self):
        t = sieve_primes(1)
        assert t.primes.size == 0

    def test_limit_zero(self):
        assert sieve_primes(0).primes.size == 0

    def test_hundred_against_trial_division(self):
        t = sieve_primes(100)
        assert t.primes.size == 25
        assert t.primes.tolist() == trial_division_primes(100)

    def test_primes_match_trial_division_to_1e4(self):
        assert sieve_primes(10**4).primes.tolist() == trial_division_primes(10**4)

    def test_table_invariants(self):
        t = sieve_primes(10**5)
        assert np.all(np.diff(t.primes) > 0)
        assert t.primes[0] == 2
        assert t.primes.dtype == np.int64

    def test_segmented_matches_unsegmented(self, monkeypatch):
        limit = 10**6
        monkeypatch.setattr(sieve, "_SEGMENT", 1 << 16)
        seg = sieve_primes(limit)
        monkeypatch.setattr(sieve, "_SEGMENT", 1 << 20)  # above the 500,000 slots
        whole = sieve_primes(limit)
        assert np.array_equal(seg.primes, whole.primes)

    def test_ceiling_enforced(self, monkeypatch):
        monkeypatch.setenv("OMEGASTAR_CEILING", "1000")
        with pytest.raises(ResourceLimitError):
            sieve_primes(2000)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            sieve_primes(-1)

    def test_limit_from_2_63_refused_under_any_ceiling(self, monkeypatch):
        # the kernel's slot arithmetic is int64, and p^2 <= limit for every
        # base prime, so a limit below 2^63 keeps it exact
        monkeypatch.setenv("OMEGASTAR_CEILING", str(2**70))
        for limit in (2**63, 2**64 + 1):
            with pytest.raises(ResourceLimitError, match="2\\*\\*63"):
                sieve_primes(limit)

    @pytest.mark.parametrize("limit, pi", [(10**7 + 1, 664_579), (10**8, 5_761_455)])
    def test_prime_counts(self, limit, pi):
        assert sieve_primes(limit).count == pi


def odd_base(limit: int) -> np.ndarray:
    """The odd primes <= limit, as the kernel takes them."""
    return np.array([p for p in trial_division_primes(limit) if p > 2], dtype=np.int64)


def byte_slots(n: int) -> np.ndarray:
    """The (n + 1) // 2 odd slots of [1, n] at one uint8 each, from a plain
    Eratosthenes over every integer: slot i >= 1 flags 2i + 1, slot 0 the
    prime 2."""
    flags = np.ones(n + 1, dtype=np.uint8)
    flags[:2] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = 0
    slots = flags[1::2].copy()
    slots[:1] = n >= 2
    return slots


def slot_count(n: int) -> int:
    return (n + 1) // 2


WHEEL = 3 * 5 * 7 * 11 * 13  # the kernel's pre-sieved period, in slots


def kernel_slots(hi: int) -> np.ndarray:
    """What the kernel writes for the odd slots [0, hi): byte_slots, but slot
    0 stands for the integer 1 and is 0."""
    want = byte_slots(2 * hi)[:hi]
    want[:1] = 0
    return want


class TestSegmentKernel:
    """The kernel sieves odd slots: slot i stands for the integer 2i + 1.  The
    odd integers of an integer window [lo, hi) are the slots [lo // 2, hi // 2)."""

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 2),
            (0, 3),
            (0, 200),
            (1, 150),
            (2, 97),  # slots from 1
            (47, 51),  # straddles 7^2, slot 24
            (120, 122),  # 11^2, slot 60
            (955, 970),  # straddles 31^2, slot 480
            (1368, 1370),  # 37^2, slot 684
            (10**4 - 3, 10**4 + 250),  # slots near 5,000
        ],
    )
    def test_window_against_trial_division(self, lo, hi):
        a, b = lo // 2, hi // 2
        buf = np.full(b - a + 2, 7, dtype=np.uint8)
        _segment_flags(a, b, odd_base(math.isqrt(2 * b - 1)), buf[1:-1])
        assert buf[0] == buf[-1] == 7  # nothing written outside the slice handed in
        assert buf[1:-1].tolist() == [int(trial_division_is_prime(2 * i + 1)) for i in range(a, b)]

    def test_one_wide_windows(self):
        # below 16,000: every residue of the wheel period, and slot 0 and the
        # wheel primes' own slots 1, 2, 3, 5 and 6 each in a window of their own
        base = odd_base(math.isqrt(2 * 16_000))
        out = np.empty(1, dtype=np.uint8)
        for i in range(0, 16_000):
            out[0] = 7
            _segment_flags(i, i + 1, base, out)
            assert bool(out[0]) == trial_division_is_prime(2 * i + 1), i

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, WHEEL),
            (0, WHEEL + 1),
            (1, WHEEL),
            (WHEEL - 1, WHEEL + 1),  # straddles the first period's end
            (WHEEL - 3, 2 * WHEEL + 4),  # a whole period and both ends
            (2 * WHEEL - 500, 2 * WHEEL + 500),
            (3 * WHEEL, 4 * WHEEL),  # exactly one period, from offset 0
            (5 * WHEEL - 1, 9 * WHEEL + 2),  # four periods tiled by doubling
            (7 * WHEEL + 1234, 7 * WHEEL + 1240),
        ],
    )
    def test_windows_across_wheel_periods(self, lo, hi):
        want = kernel_slots(hi)
        out = np.full(hi - lo, 7, dtype=np.uint8)
        _segment_flags(lo, hi, odd_base(math.isqrt(2 * hi)), out)
        assert np.array_equal(out, want[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("lo", [1, 2, 3, 4, 5, 6, 7])
    def test_windows_from_lo_above_0_hold_the_wheel_primes(self, lo):
        # the wheel pattern clears slots 1, 2, 3, 5 and 6 (3, 5, 7, 11, 13),
        # so each window that holds one must set it again, not only the first
        want = kernel_slots(WHEEL + 20)
        base = odd_base(math.isqrt(2 * (WHEEL + 20)))
        for hi in (*range(lo + 1, 14), 100, WHEEL - 1, WHEEL + 20):
            out = np.full(hi - lo, 7, dtype=np.uint8)
            _segment_flags(lo, hi, base, out)
            assert np.array_equal(out, want[lo:hi]), (lo, hi)

    def test_windows_shorter_than_one_period(self):
        rng = np.random.default_rng(15_015)
        top = 20 * WHEEL
        want = kernel_slots(top)
        base = odd_base(math.isqrt(2 * top))
        for size in (*rng.integers(2, WHEEL, 40).tolist(), WHEEL - 1, 2, 3):
            lo = int(rng.integers(0, top - size))
            out = np.empty(size, dtype=np.uint8)
            _segment_flags(lo, lo + size, base, out)
            assert np.array_equal(out, want[lo : lo + size]), (lo, size)

    def test_window_starts_exact_far_out(self):
        # at lo = 2^40 the starts lo + (p // 2 - lo) % p and p^2 // 2 run
        # far past 32 bits; Miller-Rabin is the oracle
        lo = 1 << 40
        hi = lo + 3000
        out = np.empty(hi - lo, dtype=np.uint8)
        _segment_flags(lo, hi, sieve_primes(math.isqrt(2 * hi - 1)).primes[1:], out)
        assert out.tolist() == [int(is_prime(2 * i + 1)) for i in range(lo, hi)]

    def test_tile_copies_one_period_across(self):
        for period in (1, 2, 3, 7):
            for size in range(period, 40):
                a = np.arange(size)
                a[period:] = -1
                sieve._tile(a, period)
                assert np.array_equal(a, np.resize(np.arange(period), size)), (period, size)

    def test_base_primes(self):
        for n in range(0, 300):
            t = _odd_slots(n)
            assert _slot_primes(t.bits, t.slots).tolist() == trial_division_primes(n), n

    @pytest.mark.parametrize("segment_bytes", [1, 2, 7, 64, 15_015, 15_016])
    def test_driver_every_n_below_3000(self, monkeypatch, segment_bytes):
        # _SEGMENT is a multiple of 8, so it is set here in whole bytes of
        # bits: windows of 8, 16, 56 and 512 slots, and at 15,015 bytes
        # (8 wheel periods) and 15,016 one window over all 1,500 slots.
        # The driver reads n only through the slot count (n + 1) // 2, the
        # base-prime bound isqrt(n) and n >= 2, so it runs once per distinct
        # key; every n is still checked against trial division, and its
        # unpacked bits against a plain byte sieve, padding bits included.
        want = trial_division_primes(2999)
        monkeypatch.setattr(sieve, "_SEGMENT", 8 * segment_bytes)
        runs = {}
        for n in range(3000):
            key = (slot_count(n), math.isqrt(n), n >= 2)
            if key not in runs:
                t = _odd_slots(n)
                runs[key] = t, _slot_primes(t.bits, t.slots)
            t, got = runs[key]
            assert got.dtype == np.int64
            assert got.tolist() == want[: bisect.bisect_right(want, n)] and t.count == got.size, n
            assert t.slots == slot_count(n), n
            assert t.bits.dtype == np.uint8 and t.bits.size == (slot_count(n) + 7) // 8, n
            unpacked = np.unpackbits(t.bits, bitorder="little")
            assert np.array_equal(unpacked[: slot_count(n)], byte_slots(n)), n
            assert not unpacked[slot_count(n) :].any(), n

    @pytest.mark.parametrize("segment_bytes", [1, 7, 64, 1 << 20])
    def test_padding_bits_are_zero(self, monkeypatch, segment_bytes):
        # (n + 1) // 2 = 8k + r with r = 1 .. 7: the last byte holds r slots
        # and 8 - r padding bits, which must read 0, or a whole-byte unpack
        # would see primes past n; windows of 8 * segment_bytes slots
        monkeypatch.setattr(sieve, "_SEGMENT", 8 * segment_bytes)
        for n in (1, 2, 5, 13, 99, 1001, 4097, 10**5 + 1):
            slots = slot_count(n)
            r = slots % 8
            assert r, n
            bits = _odd_slots(n).bits
            assert bits.size == slots // 8 + 1 and bits[-1] >> r == 0, (n, bits[-1])
            assert np.array_equal(np.unpackbits(bits, bitorder="little")[:slots], byte_slots(n)), n

    def test_flags_at_random_slots(self):
        # gathers at random slots and at the last nine, which take in the
        # partial last byte, and then at every slot
        rng = np.random.default_rng(26)
        for n in (3, 17, 999, 10**5 + 3):
            slots = slot_count(n)
            want = byte_slots(n)
            bits = _odd_slots(n).bits
            idx = np.concatenate([rng.integers(0, slots, 500), np.arange(max(0, slots - 9), slots)])
            got = _flags_at(bits, idx)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want[idx]), n
            assert np.array_equal(_flags_at(bits, np.arange(slots)), want), n

    @pytest.mark.parametrize("window", [1, 3, 8, 64, 1 << 20])
    def test_unpacked_windows_tile_any_range(self, monkeypatch, window):
        # _slot_windows unpacks windows of _MAP_SLOTS slots from any bit
        # offset; each yields the int64 set slots of its own window, and
        # joined they map the byte sieve's set slots of [lo, hi), in order
        monkeypatch.setattr(sieve, "_MAP_SLOTS", window)
        n = 1001
        t, want = _odd_slots(n), byte_slots(n)
        for lo, hi in ((0, 501), (1, 500), (3, 11), (7, 8), (8, 9), (250, 250), (493, 501)):
            got = list(_slot_windows(t.bits, lo, hi))
            assert len(got) == len(range(lo, hi, window)), (lo, hi)
            for a, piece in zip(range(lo, hi, window), got):
                assert piece.dtype == np.int64, (lo, hi)
                assert np.all((a <= piece) & (piece < min(a + window, hi))), (lo, hi, a)
            joined = np.concatenate([np.empty(0, dtype=np.int64), *got])
            assert np.array_equal(joined, lo + np.flatnonzero(want[lo:hi])), (lo, hi)
        # _slot_primes writes the windows into one array when told their
        # count, and joins them otherwise
        for slots in (0, 1, 8, 9, 501):
            count = int(np.count_nonzero(want[:slots]))
            assert np.array_equal(_slot_primes(t.bits, slots, count), _slot_primes(t.bits, slots)), slots

    def test_cutoffs_match_a_brute_count(self):
        # _cutoffs lists, for j = 1, 2, ... while any entry is at most
        # bound // j, how many are
        def brute(values, bound):
            counts = []
            while k := int(np.count_nonzero(values <= bound // (len(counts) + 1))):
                counts.append(k)
            return counts

        empty = np.empty(0, dtype=np.int64)
        assert _cutoffs(empty, 100) == brute(empty, 100) == []
        # values[0] > bound: not even j = 1 has an entry
        assert _cutoffs(np.array([7, 9]), 6) == []
        # 6 = 36 // 6 and 12 = 36 // 3 are at their bounds and count there
        assert _cutoffs(np.array([6, 12, 13]), 36) == brute(np.array([6, 12, 13]), 36) == [3, 3, 2, 1, 1, 1]
        # the callers' bounds at odd and even x: the omega* table's half-steps
        # t = (p - 1)/2 above a split against x // 2, and the census's odd
        # primes above isqrt(x) against (x - 1) // 2
        for x in (1000, 1001, 2 * 3 * 5 * 7 * 11 * 13, 30031):
            ps = sieve_primes(x + 1).primes[1:]
            steps = ps // 2
            for values, bound in ((steps[steps > 20], x // 2), (ps[ps > math.isqrt(x)], (x - 1) // 2)):
                assert _cutoffs(values, bound) == brute(values, bound), (x, bound)
                # some entry sits exactly at a bound // j
                assert np.isin(values, bound // np.arange(1, bound + 1)).any(), (x, bound)

    def test_driver_peak_below_1_25_n_bytes(self):
        # the packed bits (n / 16 bytes), the int64 primes (0.63 n) and a
        # window or two are all; flags over every integer plus a copy per
        # segment read 2.0 n, and the byte flags with the primes 1.13 n
        n = 10**6
        tracemalloc.start()
        try:
            _odd_slots(n).primes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n, peak / n

    def test_every_pass_sieves_in_segments(self, monkeypatch):
        # sieve_primes, its base primes and the census all go through kernel
        # windows of at most _SEGMENT slots, each written into a slice of
        # that width; the census sieves what sieve_primes(x) sieves: one slot
        # array over [1, x], and those of its base primes.
        slots, arrays = [], []

        def spy(lo, hi, base, out):
            assert out.shape == (hi - lo,) and out.dtype == np.uint8
            assert all(p % 2 for p in base)
            slots.append(hi - lo)
            _segment_flags(lo, hi, base, out)

        def slots_spy(n):
            arrays.append(n)
            return odd_slots(n)

        odd_slots = sieve._odd_slots
        monkeypatch.setattr(sieve, "_SEGMENT", 64)
        monkeypatch.setattr(sieve, "_segment_flags", spy)
        monkeypatch.setattr(sieve, "_odd_slots", slots_spy)
        primes = sieve_primes(10**4).primes.tolist()
        driver, driver_arrays = len(slots), arrays[:]
        (c,) = smooth_census(10**4, [5])
        assert slots and max(slots) <= 64
        assert len(slots) == 2 * driver
        assert driver_arrays[0] == 10**4 and arrays == 2 * driver_arrays
        assert primes == trial_division_primes(10**4)
        assert c.pi_x == len(primes)


class TestIsPrime:
    def test_small_cases(self):
        assert not is_prime(1)
        assert is_prime(2)
        assert not is_prime(561)  # 3 * 11 * 17, a Carmichael number

    def test_against_trial_division(self):
        for n in range(10**4):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_large_known_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**62 - 1)
        assert is_prime(9223372036854775783)  # largest prime below 2^63

    def test_refuses_beyond_proven_witness_range(self):
        # psi_12 is a strong pseudoprime to every base 2..37, so the twelve
        # witnesses prove nothing from there on.
        psi_12 = 399165290221 * 798330580441
        assert psi_12 == 318665857834031151167461
        assert not is_prime(psi_12 - 1)  # even, and still in range
        for n in (psi_12, psi_12 + 2, 2**80):
            with pytest.raises(ValueError, match="psi_12"):
                is_prime(n)


class TestFactorize:
    def test_twelve(self):
        assert factorize(12).factors == [(2, 2), (3, 1)]

    def test_one_has_empty_factor_list(self):
        assert factorize(1).factors == []

    def test_primorial_19(self):
        f = factorize(9699690)
        assert f.factors == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1)]
        assert math.prod(p**e for p, e in f.factors) == 9699690

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_roundtrip_and_primality_consistency(self):
        # one sweep over [1, 1e5]: product identity, listed primes prime,
        # ascending order, and is_prime <=> single factor with exponent 1
        for n in range(1, 10**5 + 1):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.factors) == n
            ps = [p for p, _ in f.factors]
            assert ps == sorted(ps)
            assert all(is_prime(p) for p in ps)
            if n >= 2:
                assert is_prime(n) == (f.factors == [(n, 1)])

    def test_roundtrip_sampled_to_1e6(self):
        # exhaustive [1, 1e5] is covered above; sample density beyond
        for n in range(10**5 + 1, 10**6 + 1, 293):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.factors) == n

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        f = factorize(p * q)
        assert f.factors == [(p, 1), (q, 1)]

    def test_large_square(self):
        p = 1000003
        assert factorize(p * p).factors == [(p, 1 + 1)]

    def test_squarefree_flag(self):
        assert factorize(30).is_squarefree()
        assert not factorize(12).is_squarefree()


class TestPrimeTable:
    """sieve_primes holds the driver's packed odd-slot bits, their slot count
    and the number of primes they flag; the int64 primes are mapped from the
    bits on first read and kept."""

    NS = (0, 1, 2, 3, 8, 9, 10**4, 10**5)

    def test_slots_are_the_driver_flags(self):
        for n in self.NS:
            t = sieve_primes(n)
            assert t.slots == slot_count(n) and t.count == len(trial_division_primes(n)), n
            assert t.bits.dtype == np.uint8 and t.bits.size == (t.slots + 7) // 8
            assert np.array_equal(t.bits, _odd_slots(n).bits), n
            assert np.array_equal(np.unpackbits(t.bits, bitorder="little")[: t.slots], byte_slots(n)), n

    def test_primes_built_once_from_the_slots(self):
        for n in self.NS:
            t = sieve_primes(n)
            assert t.primes.dtype == np.int64
            assert np.array_equal(t.primes, sieve._slot_primes(t.bits, t.slots)), n
            assert t.primes.tolist() == trial_division_primes(n), n
            assert t.primes is t.primes

    def test_count(self):
        for n in self.NS:
            t = sieve_primes(n)
            want = trial_division_primes(n)
            assert t.primes.size == len(want), n
            for x in (-1, 0, 1, 2, 3, n // 2, n, n + 5):
                assert np.searchsorted(t.primes, x, side="right") == bisect.bisect_right(want, x), (n, x)


class TestPrimeCount:
    def test_examples(self):
        assert sieve_primes(2).primes.size == 1
        assert sieve_primes(100).primes.size == 25
        assert sieve_primes(10**6).primes.size == 78498

    def test_small_edge(self):
        assert sieve_primes(0).primes.size == 0
        assert sieve_primes(1).primes.size == 0
