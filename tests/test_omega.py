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
    (x // 2) // B into slice updates and multiplier passes."""

    B = omega._SMALL_STEP_MULTIPLES

    def test_small_x(self):
        # odd and even x up to 6B: x // 2 crosses B - 1, B, B + 1 and 2B, and
        # below x = 2B every half-step is large
        for x in range(1, 6 * self.B):
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
        assert table_1e6.counts.dtype == np.uint16
        assert np.array_equal(expand_half_table(table_1e6), slice_per_prime_oracle(10**6))

    def test_dense_and_sparse_multiplier_passes(self, monkeypatch):
        # The dense/sparse boundary at 0 (every pass sparse, j = 1 too), 1,
        # 2 and B (every pass dense: j < B, since the least large
        # half-step exceeds (x // 2) / B).
        for x in (999, 1000, 4 * self.B * self.B + 1, 2**20 + 1):
            oracle = slice_per_prime_oracle(x)
            for dense in (0, 1, 2, self.B):
                monkeypatch.setattr(omega, "_DENSE_PASSES", dense)
                assert np.array_equal(expand_half_table(omega_star_table(x)), oracle), (x, dense)


class TestWheel:
    """The small half-steps that divide _WHEEL are written over one period
    and copied across the table by doubling."""

    W = omega._WHEEL

    @pytest.mark.parametrize("wheel", [12, 60])
    def test_small_wheels_with_wheel_steps_past_2(self, monkeypatch, wheel):
        # At the real B only t = 1 and 2 are small below x = 6B; at B = 4
        # the wheel also carries 3 and 6 (and 5, 15, 20, 30 for 60), and
        # the steps off it get whole-table slices.  x // 2 runs from below
        # the wheel to five periods past it, and to 64 periods and 3 more
        # at the last x, so the doubling ends on short and whole copies.
        monkeypatch.setattr(omega, "_WHEEL", wheel)
        monkeypatch.setattr(omega, "_SMALL_STEP_MULTIPLES", 4)
        for x in (*range(1, 10 * wheel + 3), 128 * wheel + 7):
            check_against_oracle(x)

    def test_half_next_to_one_and_two_periods(self):
        # x // 2 at W - 1 (no copy), W (no copy), W + 1 (a one-entry copy)
        # and 2W + 1 (a whole copy, then a one-entry one)
        for half in (self.W - 1, self.W, self.W + 1, 2 * self.W + 1):
            for x in (2 * half, 2 * half + 1):
                check_against_oracle(x)


class TestHalfTableMemory:
    """The table stores omega*(2m) only (its size is checked in
    TestSplitKernel): about x bytes at uint16, and no array of x + 1 entries
    beside it."""

    def test_moment_scan_peak_below_1_25_x_bytes(self):
        # the uint16 half table (x bytes) beside the sieve's packed slot bits
        # (x / 16 bytes) and one unpacked 2^20-slot window sets the peak at
        # 1.18 x, so the bound leaves 0.07 x of headroom; the uint8 slot
        # flags (x / 2 bytes) read 1.54 x, with int64 primes beside the
        # table 1.63 x, and a full-length uint16 table beside the half 3.00 x
        x = 10**7
        tracemalloc.start()
        try:
            moment_scan([10**5, 10**6, x], 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * x, peak / x

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

    def test_counts_are_uint16(self, table_1e6):
        for table in (omega_star_table(1), omega_star_table(999), table_1e6):
            assert table.counts.dtype == np.uint16

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
