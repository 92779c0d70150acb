import math

import numpy as np
import pytest

from omegastar import omega
from omegastar.omega import (
    moment,
    moment_scan,
    moment_series_csv,
    moment_sum,
    omega_star,
    omega_star_table,
)
from omegastar.sieve import sieve_primes

from conftest import brute_omega_star


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
        assert omega_star_table(10).counts[1:].tolist() == [1, 2, 1, 3, 1, 3, 1, 3, 1, 3]

    def test_table_of_one(self):
        assert omega_star_table(1).counts[1:].tolist() == [1]

    def test_agrees_with_pointwise(self):
        t = omega_star_table(3000)
        for n in range(1, 3001):
            assert int(t.counts[n]) == omega_star(n), n

    def test_parity_law(self, table_1e6):
        counts = table_1e6.counts[1:]
        ns = np.arange(1, table_1e6.x + 1)
        assert int(counts.min()) >= 1  # d = 1 (p = 2) divides everything
        assert np.all((counts == 1) == (ns % 2 == 1))

    def test_tau_domination(self):
        x = 10**5
        counts = omega_star_table(x).counts
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
    """sum of omega*(n)^k over n <= upto from one whole-prefix histogram."""
    hist = np.bincount(counts[1 : upto + 1])
    return sum(int(c) * v**k for v, c in enumerate(hist.tolist()))


class TestSplitKernel:
    """omega_star_table's small-step/large-step split against the per-prime oracle."""

    B = omega._SMALL_STEP_MULTIPLES

    def _check(self, x):
        assert np.array_equal(omega_star_table(x).counts, slice_per_prime_oracle(x)), x

    def test_small_x(self):
        # covers x = 1, 2, 3 and B - 1, B, B + 1; below B every step is large
        for x in range(1, 3 * self.B):
            self._check(x)

    def test_step_equal_to_split_point(self):
        # p - 1 == x // B for the prime p = 1009: the boundary step is a small step
        x = 1008 * self.B + self.B // 2
        assert sieve_primes(1009).primes[-1] == 1009
        self._check(x)

    def test_near_2_pow_20(self):
        for x in (2**20 - 1, 2**20 + 1):
            self._check(x)

    def test_at_1e6(self, table_1e6):
        assert np.array_equal(table_1e6.counts, slice_per_prime_oracle(10**6))


class TestBlockedMomentSum:
    def test_matches_whole_prefix_bincount(self):
        block = omega._HIST_BLOCK
        table = omega_star_table(2 * block + 5)
        for upto in (1, 2, block - 1, block, block + 1, 2 * block, 2 * block + 5):
            for k in (1, 2, 3):
                assert moment_sum(table, k, upto=upto) == bincount_moment_oracle(table.counts, k, upto)


class TestMoments:
    def test_m1_of_ten(self):
        assert moment(omega_star_table(10), 1) == 1.9

    def test_x_one_any_k(self):
        t = omega_star_table(1)
        for k in (1, 2, 3, 7):
            assert moment(t, k) == 1.0

    def test_m1_identity_exact(self, table_1e6):
        # sum of omega*(n) over n <= x equals sum over primes p <= x+1 of floor(x/(p-1))
        for x in (10**3, 10**4, 10**5):
            ps = sieve_primes(x + 1).primes
            rhs = int((x // (ps - 1)).sum())
            assert moment_sum(table_1e6, 1, upto=x) == rhs

    def test_m1_band_at_1e6(self, table_1e6):
        c = moment(table_1e6, 1) - math.log(math.log(10**6))
        assert 0.9 <= c <= 1.2

    def test_higher_moments_dominate_first(self, table_1e6):
        # table values are >= 1, so M_k >= M_1 > 0 for k >= 1
        for x in (10, 1000):
            t = omega_star_table(x)
            m1 = moment(t, 1)
            assert m1 > 0
            for k in (2, 3, 4):
                assert moment(t, k) >= m1

    def test_rejects_bad_k(self, table_1e6):
        with pytest.raises(ValueError):
            moment(table_1e6, 0)


class TestMomentScan:
    def test_single_point(self):
        s = moment_scan([10], 1)
        assert s.points == [(10, 1.9)]

    def test_trivial_point(self):
        assert moment_scan([1], 2).points == [(1, 1.0)]

    def test_matches_per_x_moment(self, table_1e6):
        xs = [10, 100, 1000]
        s = moment_scan(xs, 2, table=table_1e6)
        for x, mk in s.points:
            assert mk == moment(omega_star_table(x), 2)

    def test_m2_over_logx_stability(self, table_1e6):
        s = moment_scan([10**4, 10**5, 10**6], 2, table=table_1e6)
        ratios = [mk / math.log(x) for x, mk in s.points]
        assert max(ratios) / min(ratios) < 2.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            moment_scan([10, 10], 1)

    def test_csv_shape(self):
        text = moment_series_csv(moment_scan([10, 100], 1))
        lines = text.strip().split("\n")
        assert lines[0] == "x,k,Mk,log_x,loglog_x"
        assert lines[1].startswith("10,1,1.9,")
        assert len(lines) == 3


class TestReportedTrends:
    """Order-of-magnitude diagnostics; the limits have unspecified constants,
    so nothing here asserts convergence, only that the statistics exist and
    stay in loose sanity ranges."""

    def test_m2_and_m3_trend_report(self, table_1e6):
        m2 = moment_scan([10**4, 10**5, 10**6], 2, table=table_1e6)
        m3 = moment_scan([10**4, 10**5, 10**6], 3, table=table_1e6)
        rows = []
        for (x, v2), (_, v3) in zip(m2.points, m3.points):
            rows.append((x, v2 / math.log(x), v3 / math.log(x) ** 4))
        # conjectured second-moment constant zeta(2)^2 zeta(3) / zeta(6)
        from scipy.special import zeta

        c2 = float(zeta(2) ** 2 * zeta(3) / zeta(6))
        assert abs(c2 - 3.1973) < 5e-4
        for x, r2, r3 in rows:
            assert 0.1 < r2 < c2  # finite-x ratios sit below the conjectured limit
            assert 0.0 < r3 < 1.0
        print(f"M2/log x and M3/log^4 x rows (C2 = {c2:.6f}): {rows}")
