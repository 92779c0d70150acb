import math
import tracemalloc

import numpy as np
import pytest

from omegastar import omega, sieve
from omegastar.omega import (
    moment_scan,
    moment_sum,
    omega_star,
    omega_star_table,
)
from omegastar.arith import tau
from omegastar.sieve import ResourceLimitError, factorize, sieve_primes

from conftest import brute_omega_star, expand_half_table


@pytest.fixture(scope="module")
def table_1e6():
    return omega_star_table(10**6)


class TestOmegaStarPointwise:
    def test_examples(self):
        assert omega_star(1) == 1
        assert omega_star(12) == 5  # d in {1,2,4,6,12} -> p in {2,3,5,7,13}

    def test_odd_n_gives_one(self):
        for n in range(1, 2000, 2):
            assert omega_star(n) == 1

    def test_brute_divisor_scan_oracle(self):
        for n in range(1, 2001):
            assert omega_star(n) == brute_omega_star(n), n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            omega_star(0)


class TestOmegaStarTable:
    def test_table_of_ten(self):
        table = omega_star_table(10)
        assert table.counts[1:].tolist() == [2, 3, 3, 3, 3]  # omega*(2), ..., omega*(10)
        assert expand_half_table(table)[1:].tolist() == [1, 2, 1, 3, 1, 3, 1, 3, 1, 3]

    def test_table_of_one(self):
        table = omega_star_table(1)
        assert table.counts.size == 1  # counts[0] only: no even n <= 1
        assert expand_half_table(table)[1:].tolist() == [1]

    def test_agrees_with_pointwise(self):
        full = expand_half_table(omega_star_table(3000))
        for n in range(1, 3001):
            assert int(full[n]) == omega_star(n), n

    def test_parity_law(self, table_1e6):
        # d in {1, 2} (p in {2, 3}) divide every even n: the stored half is >= 2
        assert int(table_1e6.counts[1:].min()) >= 2
        counts = expand_half_table(table_1e6)[1:]
        ns = np.arange(1, table_1e6.x + 1)
        assert np.all((counts == 1) == (ns % 2 == 1))

    def test_tau_domination(self):
        x = 10**5
        counts = expand_half_table(omega_star_table(x))
        tau_arr = np.zeros(x + 1, dtype=np.int32)
        for d in range(1, x + 1):
            tau_arr[d::d] += 1
        assert np.all(counts[1:] <= tau_arr[1:])


def slice_per_prime_oracle(x):
    """The original kernel: one strided slice update per prime p <= x + 1."""
    primes = sieve_primes(x + 1).primes
    counts = np.zeros(x + 1, dtype=np.int32)
    for p in primes.tolist():
        counts[p - 1 :: p - 1] += 1
    return counts


def bincount_moment_oracle(counts, k, upto):
    """sum of omega*(n)^k over n <= upto from one whole-prefix histogram of
    the full-length counts[n] = omega*(n)."""
    hist = np.bincount(counts[1 : upto + 1])
    return sum(int(c) * v**k for v, c in enumerate(hist.tolist()))


def check_against_oracle(x):
    table = omega_star_table(x)
    assert table.counts.size == x // 2 + 1
    assert np.array_equal(expand_half_table(table), slice_per_prime_oracle(x)), x


class TestSplitKernel:
    """omega_star_table's even-only kernel against the full-length per-prime
    oracle: half-steps t = (p - 1)/2 over [1, x // 2], split at
    max(min(x // 2, W) // B, min(x // 2, B)) into slice updates and
    multiplier passes; below x // 2 = W = _WHEEL that is
    max((x // 2) // B, min(x // 2, B))."""

    B = omega._SMALL_STEP_MULTIPLES

    def test_small_x(self):
        # odd and even x up to 6B: x // 2 crosses B - 1, B, B + 1 and 2B;
        # below x = 2B every half-step is small, and up to x = 2B^2 the
        # split stays at its floor B
        for x in range(1, 6 * self.B):
            check_against_oracle(x)

    def test_split_floor_and_square_edges(self):
        # x // 2 next to B, where the floor min(x // 2, B) stops growing,
        # next to B^2, where (x // 2) // B takes over from it, and at 2B^2
        B = self.B
        for half in (B - 1, B, B + 1, B * B - 1, B * B, B * B + 1, 2 * B * B):
            for x in (2 * half, 2 * half + 1):
                check_against_oracle(x)

    def test_step_equal_to_split_point(self):
        # (p - 1)/2 == (x // 2) // B for the prime p = 1009: the boundary
        # half-step is a small step, at odd and even x (504 divides 720,720,
        # so at the real wheel it is also a wheel step)
        assert sieve_primes(1009).primes[-1] == 1009
        for x in (2 * (504 * self.B + self.B // 2) + offset for offset in (-1, 0, 1)):
            assert (x // 2) // self.B == (1009 - 1) // 2
            check_against_oracle(x)

    def test_split_point_edges(self):
        # x // 2 at the ends of the range where (x // 2) // B == 504
        for half in (504 * self.B, 505 * self.B - 1):
            for x in (2 * half - 1, 2 * half, 2 * half + 1, 2 * half + 2):
                check_against_oracle(x)

    def test_near_2_pow_20(self):
        for x in (2**20 - 1, 2**20, 2**20 + 1, 2**21 - 1, 2**21, 2**21 + 1):
            check_against_oracle(x)

    def test_at_1e6(self, table_1e6):
        assert table_1e6.counts.dtype == np.uint8
        assert np.array_equal(expand_half_table(table_1e6), slice_per_prime_oracle(10**6))

    @pytest.mark.parametrize("window", [8, 64])
    def test_map_windows_tile_the_large_range(self, monkeypatch, window):
        # The multiplier passes map one _MAP_SLOTS window of large
        # half-steps at a time, from the split on.  Windows of 8 and 64
        # slots cut the large range into many, at x // 2 = 499 and 500
        # (the split at its floor B), 2B^2 and 2^19; the last window is
        # short at the first two and whole at the other two.
        monkeypatch.setattr(sieve, "_MAP_SLOTS", window)
        for x in (999, 1000, 4 * self.B * self.B + 1, 2**20 + 1):
            assert np.array_equal(expand_half_table(omega_star_table(x)), slice_per_prime_oracle(x)), (x, window)


class TestWheel:
    """The small half-steps that divide _WHEEL are written over the first
    period, which is copied into each later period.  Every other small
    half-step is near, t <= _WHEEL // B once x // 2 reaches _WHEEL, and is
    added to each period as it is walked, the first period last; every
    half-step past the split goes through the multiplier passes."""

    W = omega._WHEEL

    @pytest.mark.parametrize("wheel", [12, 60])
    def test_small_wheels_with_wheel_steps_past_2(self, monkeypatch, wheel):
        # At the real B only t = 1 and 2 are small below x = 6B; at B = 4
        # the wheel also carries 3 and 6 (and 5, 15, 20, 30 for 60), the
        # steps off it up to W // 4 are near, and those past it go through
        # the multiplier passes.  x // 2 runs from below the wheel to five
        # periods past it, and to 64 periods and 3 more at the last x, so
        # the walk ends on short and whole periods.
        monkeypatch.setattr(omega, "_WHEEL", wheel)
        monkeypatch.setattr(omega, "_SMALL_STEP_MULTIPLES", 4)
        for x in (*range(1, 10 * wheel + 3), 128 * wheel + 7):
            check_against_oracle(x)

    def test_near_large_boundary(self, monkeypatch):
        # At W = 60 and B = 7 the off-wheel half-step 8 (p = 17) is
        # W // B, the last near step, and 9 (p = 19), also off the wheel,
        # the first to go through the multiplier passes.  From x // 2 = 56
        # on, the split min(x // 2, W) // B stays at 8 however many periods
        # the table holds; x // 2 runs on through six periods and a short
        # seventh.
        monkeypatch.setattr(omega, "_WHEEL", 60)
        monkeypatch.setattr(omega, "_SMALL_STEP_MULTIPLES", 7)
        assert 60 // 7 == 8 and 60 % 8 and 60 % 9 and sieve_primes(19).primes[-2:].tolist() == [17, 19]
        passes = []

        def spy(values, bound):
            passes.append(values.tolist())
            return sieve._cutoffs(values, bound)

        monkeypatch.setattr(omega, "_cutoffs", spy)
        for x in range(112, 2 * (6 * 60 + 7) + 2):
            passes.clear()
            check_against_oracle(x)
            assert passes[0][0] == 9, x

    def test_half_next_to_one_and_two_periods(self):
        # x // 2 at W - 1 and W (one period, so no copy), W + 1 (a
        # one-entry last period) and 2W + 1 (a whole period, then a
        # one-entry one)
        for half in (self.W - 1, self.W, self.W + 1, 2 * self.W + 1):
            for x in (2 * half, 2 * half + 1):
                check_against_oracle(x)

    @pytest.mark.parametrize("k", [2, 3])
    def test_half_next_to_k_periods(self, k):
        # x // 2 at kW - 1 (a last period one entry short), kW (a whole
        # last period) and kW + 1 (a one-entry last period); the first
        # period's near slices come after every copy has read it
        for half in (k * self.W - 1, k * self.W, k * self.W + 1):
            for x in (2 * half, 2 * half + 1):
                check_against_oracle(x)


class TestHalfTableMemory:
    """The table stores omega*(2m) only (its size is checked in
    TestSplitKernel): about x / 2 bytes at uint8, and no array of x + 1
    entries beside it."""

    def test_moment_scan_peak_below_0_75_x_bytes(self):
        # the uint8 half table (x / 2 bytes) beside the sieve's packed slot
        # bits (x / 16 bytes) and one mapped 2^16-slot window sets the peak
        # at 0.60 x, so the bound leaves 0.15 x of headroom; a uint16 half
        # table reads 1.10 x, and uint8 slot flags (x / 2 bytes) or int64
        # primes beside the table would each add about 0.5 x more
        x = 10**7
        tracemalloc.start()
        try:
            moment_scan([10**5, 10**6, x], 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * x, peak / x

    def test_slots_are_never_mapped_to_primes(self, monkeypatch):
        # The table and the scan read the sieve's slot bits: only the
        # sieve's own base primes, up to isqrt(x + 1), are mapped from slots.
        real = sieve._slot_primes

        def base_only(bits, slots, count=None):
            assert bits.size == (slots + 7) // 8
            if 2 * slots - 1 > math.isqrt(10**6 + 1):
                raise AssertionError(f"{slots} slots mapped to primes")
            return real(bits, slots, count)

        monkeypatch.setattr(sieve, "_slot_primes", base_only)
        assert omega_star_table(10**6).counts.size == 5 * 10**5 + 1
        assert moment_scan([10**4, 10**5, 10**6], 1)[-1] == (10**6, 3_626_869 / 10**6)


def least_n_with_tau_at_least(bound):
    """The least n with tau(n) >= bound: such an n has non-increasing exponents
    on consecutive primes, so a depth-first search over those exponent
    vectors, pruned at the best n so far, finds it."""
    primes = sieve_primes(200).primes.tolist()
    best = math.prod(primes[: math.ceil(math.log2(bound))])  # tau = 2^r >= bound

    def search(i, n, t, top):
        nonlocal best
        if t >= bound:
            best = min(best, n)
            return
        for e in range(1, top + 1):
            n *= primes[i]
            if n >= best:
                break
            search(i + 1, n, t * (e + 1), e)

    search(0, 1, 1, 64)
    return best


class TestTableDtype:
    N8 = omega._UINT8_BELOW
    N16 = omega._UINT16_BELOW

    def test_uint16_bound_is_least_n_with_tau_2_pow_16(self):
        assert least_n_with_tau_at_least(2**16) == self.N16 == 106_858_629_141_264_000
        assert tau(factorize(self.N16)) == 2**16
        # the search itself, on the highly composite records it must reproduce
        assert [least_n_with_tau_at_least(b) for b in (2, 6, 100, 1600)] == [2, 12, 45360, 2_095_133_040]

    def test_bound_fits_uint16(self):
        # the tau record below 2^31, from factorize, not from a table
        n = 2_095_133_040
        assert n < 2**31
        assert tau(factorize(n)) == 1600 < np.iinfo(np.uint16).max

    def test_uint8_bound_is_least_n_with_omega_star_2_pow_8(self, monkeypatch):
        # omega* reaches 256 at the bound itself, from pointwise divisors ...
        assert self.N8 == 122_522_400 == 2**5 * 3**2 * 5**2 * 7 * 11 * 13 * 17
        assert omega_star(self.N8) == 259 and tau(factorize(self.N8)) == 864
        # ... and nowhere below it: the uint16 table over [1, N8 - 1] peaks
        # at 247, on n = 86,486,400, so no count there passes uint8's 255
        monkeypatch.setattr(omega, "_UINT8_BELOW", 0)
        counts = omega_star_table(self.N8 - 1).counts
        assert counts.dtype == np.uint16
        m = int(counts.argmax())
        assert (2 * m, int(counts[m])) == (86_486_400, 247)
        assert omega_star(86_486_400) == 247

    def test_dtype_switches_at_the_bound(self, monkeypatch, table_1e6):
        for table in (omega_star_table(1), omega_star_table(999), table_1e6):
            assert table.counts.dtype == np.uint8
        # with the bound moved down, the tables on either side of it take
        # uint8 and uint16, and both match the per-prime oracle
        for bound in (2, 3, 1000, 1001):
            monkeypatch.setattr(omega, "_UINT8_BELOW", bound)
            for x, dtype in ((bound - 1, np.uint8), (bound, np.uint16), (bound + 1, np.uint16)):
                table = omega_star_table(x)
                assert table.counts.dtype == dtype, (bound, x)
                assert np.array_equal(expand_half_table(table), slice_per_prime_oracle(x)), (bound, x)

    def test_uint8_and_uint16_tables_are_value_equal(self, monkeypatch, table_1e6):
        W = omega._WHEEL
        xs = (1, 999, 3000, 10**6, *(2 * (k * W + d) + e for k in (1, 2) for d in (-1, 1) for e in (0, 1)))
        narrow = {x: table_1e6 if x == 10**6 else omega_star_table(x) for x in xs}
        monkeypatch.setattr(omega, "_UINT8_BELOW", 0)
        for x in xs:
            wide = omega_star_table(x)
            assert (narrow[x].counts.dtype, wide.counts.dtype) == (np.uint8, np.uint16)
            assert np.array_equal(narrow[x].counts, wide.counts), x

    def test_refused_from_the_bound_before_sieving(self, monkeypatch):
        def no_sieve(*args, **kwargs):
            raise AssertionError("sieve_primes called")

        monkeypatch.setenv("OMEGASTAR_CEILING", str(2**62))
        monkeypatch.setattr(omega, "sieve_primes", no_sieve)
        for x in (self.N16, self.N16 + 1, 2**62):
            with pytest.raises(ResourceLimitError, match=f"omega\\* table size = {x} reaches {self.N16}"):
                omega_star_table(x)
        # one below the bound passes the check and goes on to the sieve
        with pytest.raises(AssertionError, match="sieve_primes called"):
            omega_star_table(self.N16 - 1)


class TestBlockedMomentSum:
    def test_matches_whole_prefix_bincount(self):
        # the half table holds upto // 2 entries: upto near 2 * block and
        # 4 * block puts its end on either side of a block edge, at odd and
        # even upto
        block = omega._HIST_BLOCK
        x = 4 * block + 5
        table = omega_star_table(x)
        oracle = slice_per_prime_oracle(x)
        uptos = [1, 2, 3, 4, 2 * block - 2, 2 * block - 1, 2 * block, 2 * block + 1, 2 * block + 2]
        uptos += [2 * block + 3, 4 * block - 1, 4 * block, 4 * block + 1, x - 1, x]
        for upto in uptos:
            for k in (1, 2, 3):
                assert moment_sum(table, k, upto=upto) == bincount_moment_oracle(oracle, k, upto), (upto, k)

    def test_interval_sums_add_up_to_the_whole(self):
        # Cuts at odd and even n on both sides of a block edge: each interval
        # (lo, upto] is the difference of two prefix oracles, and the
        # intervals add up to the whole table.
        block = omega._HIST_BLOCK
        x = 4 * block + 5
        table = omega_star_table(x)
        oracle = slice_per_prime_oracle(x)
        cuts = [0, 1, 2, 3, 2 * block - 1, 2 * block, 2 * block + 1, 2 * block + 2, 4 * block, x]
        for k in (1, 2, 3):
            parts = [moment_sum(table, k, upto=hi, lo=lo) for lo, hi in zip(cuts, cuts[1:])]
            for (lo, hi), part in zip(zip(cuts, cuts[1:]), parts):
                expected = bincount_moment_oracle(oracle, k, hi) - (bincount_moment_oracle(oracle, k, lo) if lo else 0)
                assert part == expected, (lo, hi, k)
            assert sum(parts) == moment_sum(table, k)
            assert moment_sum(table, k, upto=2 * block + 1, lo=2 * block + 1) == 0

    def test_first_moment_of_uint16_maxima_is_exact(self):
        # a whole block of the largest counts sums to 2^16 * 65,535, just
        # below 2^32, while the 3 blocks and 4 entries of counts[1:] would
        # wrap a single uint32 sum
        block = omega._HIST_BLOCK
        counts = np.full(3 * block + 5, np.iinfo(np.uint16).max, dtype=np.uint16)
        table = omega.OmegaStarTable(x=2 * counts.size - 1, counts=counts)
        values = expand_half_table(table).tolist()  # Python ints omega*(0..x)
        for lo, upto in ((0, table.x), (0, table.x - 1), (1, 2 * block), (2 * block, 2 * block + 1), (3, 6 * block + 4)):
            assert moment_sum(table, 1, upto=upto, lo=lo) == sum(values[lo + 1 : upto + 1]), (lo, upto)

    def test_rejects_lower_end_outside_range(self):
        table = omega_star_table(100)
        for lo, upto in ((-1, 10), (11, 10), (101, 100)):
            with pytest.raises(ValueError, match="lo = "):
                moment_sum(table, 1, upto=upto, lo=lo)


class TestMoments:
    def test_m1_of_ten(self):
        assert moment_sum(omega_star_table(10), 1) / 10 == 1.9

    def test_x_one_any_k(self):
        t = omega_star_table(1)
        for k in (1, 2, 3, 7):
            assert moment_sum(t, k) / t.x == 1.0

    def test_m1_identity_exact(self, table_1e6):
        # sum of omega*(n) over n <= x equals sum over primes p <= x+1 of floor(x/(p-1))
        for x in (10**3, 10**4, 10**5):
            ps = sieve_primes(x + 1).primes
            rhs = int((x // (ps - 1)).sum())
            assert moment_sum(table_1e6, 1, upto=x) == rhs

    def test_m1_band_at_1e6(self, table_1e6):
        c = moment_sum(table_1e6, 1) / table_1e6.x - math.log(math.log(10**6))
        assert 0.9 <= c <= 1.2

    def test_higher_moments_dominate_first(self, table_1e6):
        # table values are >= 1, so M_k >= M_1 > 0 for k >= 1
        for x in (10, 1000):
            t = omega_star_table(x)
            m1 = moment_sum(t, 1) / t.x
            assert m1 > 0
            for k in (2, 3, 4):
                assert moment_sum(t, k) / t.x >= m1

    def test_rejects_bad_k(self, table_1e6):
        with pytest.raises(ValueError):
            moment_sum(table_1e6, 0)


class TestMomentScan:
    def test_single_point(self):
        assert moment_scan([10], 1) == [(10, 1.9)]

    def test_trivial_point(self):
        assert moment_scan([1], 2) == [(1, 1.0)]

    def test_matches_per_x_moment(self, table_1e6):
        xs = [10, 100, 1000]
        for x, mk in moment_scan(xs, 2, table=table_1e6):
            assert mk == moment_sum(omega_star_table(x), 2) / x

    def test_fifty_checkpoints_match_one_sum_per_x(self, table_1e6, monkeypatch):
        # Interval sums between checkpoints give the same points as one
        # whole-prefix moment_sum per x, from one moment_sum call per x.
        # An odd step alternates the parity of the checkpoints.
        xs = [900_001 + 2041 * i for i in range(49)] + [10**6]
        expected = {k: [(x, moment_sum(table_1e6, k, upto=x) / x) for x in xs] for k in (1, 2, 3)}
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["upto"])
            return moment_sum(*args, **kwargs)

        monkeypatch.setattr(omega, "moment_sum", counted)
        for k in (1, 2, 3):
            calls.clear()
            assert moment_scan(xs, k, table=table_1e6) == expected[k]
            assert calls == xs

    def test_m2_over_logx_stability(self, table_1e6):
        s = moment_scan([10**4, 10**5, 10**6], 2, table=table_1e6)
        ratios = [mk / math.log(x) for x, mk in s]
        assert max(ratios) / min(ratios) < 2.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            moment_scan([10, 10], 1)

    def test_rejects_bad_k_before_table(self, monkeypatch):
        def refuse(x):
            raise AssertionError("omega* table built before k was checked")

        monkeypatch.setattr(omega, "omega_star_table", refuse)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                moment_scan([10**7], k)

    def test_ceiling_checked_before_the_overflow_bound(self, monkeypatch):
        # the bound factors primorials up to x, so an oversized x must stop first
        def refuse(n):
            raise AssertionError("omega* computed before the ceiling was checked")

        monkeypatch.setenv("OMEGASTAR_CEILING", "1000")
        monkeypatch.setattr(omega, "omega_star", refuse)
        with pytest.raises(ResourceLimitError, match="omega\\* table size"):
            moment_scan([10**40], 1)

    def test_first_moment_factorizes_nothing(self, table_1e6, monkeypatch):
        # omega*(n) <= 2^r at the primorial n of r primes, and 2^r / x is far
        # inside the float range at k = 1, so the bound needs no omega*(n)
        def refuse(n):
            raise AssertionError("the overflow bound factorized a primorial at k = 1")

        xs = [10, 10**4, 10**6]
        expected = [(x, moment_sum(table_1e6, 1, upto=x) / x) for x in xs]
        monkeypatch.setattr(omega, "omega_star", refuse)
        monkeypatch.setattr(omega, "factorize", refuse)
        assert moment_scan(xs, 1, table=table_1e6) == expected
        assert moment_scan([10**4], 1) == expected[1:2]

    def test_overflow_bound_never_refuses_a_float(self):
        # Around the threshold at each x, moment_scan refuses k exactly when
        # the exact power sum over x leaves the float range.
        for x in (10, 1000, 12345):
            table = omega_star_table(x)
            for k in range(1, 700):
                try:
                    moment_sum(table, k) / x
                except OverflowError:
                    with pytest.raises(ValueError, match=f"k = {k}, x = {x} "):
                        moment_scan([x], k, table=table)
                else:
                    moment_scan([x], k, table=table)


class TestReportedTrends:
    """Order-of-magnitude diagnostics; the limits have unspecified constants,
    so nothing here asserts convergence, only that the statistics exist and
    stay in loose sanity ranges."""

    def test_m2_and_m3_trend_report(self, table_1e6):
        m2 = moment_scan([10**4, 10**5, 10**6], 2, table=table_1e6)
        m3 = moment_scan([10**4, 10**5, 10**6], 3, table=table_1e6)
        rows = []
        for (x, v2), (_, v3) in zip(m2, m3):
            rows.append((x, v2 / math.log(x), v3 / math.log(x) ** 4))
        # conjectured second-moment constant zeta(2)^2 zeta(3) / zeta(6)
        from scipy.special import zeta

        c2 = float(zeta(2) ** 2 * zeta(3) / zeta(6))
        assert abs(c2 - 3.1973) < 5e-4
        for x, r2, r3 in rows:
            assert 0.1 < r2 < c2  # finite-x ratios sit below the conjectured limit
            assert 0.0 < r3 < 1.0
        print(f"M2/log x and M3/log^4 x rows (C2 = {c2:.6f}): {rows}")
