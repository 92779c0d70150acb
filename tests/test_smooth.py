import math

import numpy as np
import pytest
from scipy.integrate import quad

from omegastar import sieve
from omegastar.sieve import is_prime, prime_count, sieve_primes
from omegastar.smooth import (
    apr_from_pomerance_report,
    greatest_prime_factor,
    log_psi_leading,
    pi_smooth_count,
    pomerance_ratio,
    psi_count,
    smooth_census,
)

from conftest import brute_gpf


class TestGreatestPrimeFactor:
    def test_examples(self):
        assert greatest_prime_factor(1) == 1
        assert greatest_prime_factor(12) == 3
        assert greatest_prime_factor(97) == 97

    def test_brute_oracle(self):
        for n in range(1, 3001):
            assert greatest_prime_factor(n) == brute_gpf(n) if n > 1 else 1

    def test_domain(self):
        with pytest.raises(ValueError):
            greatest_prime_factor(0)


class TestPsiCount:
    def test_full_range(self):
        for x in (1, 10, 100, 1000):
            assert psi_count(x, x) == x

    def test_powers_of_two(self):
        assert psi_count(10, 2) == 4  # 1, 2, 4, 8

    def test_five_smooth_to_100(self):
        assert psi_count(100, 5) == 34

    def test_brute_oracle(self, gpf_oracle_1e5):
        for x in (50, 1234, 20000, 10**5):
            for y in (2, 3, 5, 10, 50):
                expected = int(np.count_nonzero(gpf_oracle_1e5[1 : x + 1] <= y))
                assert psi_count(x, y) == expected, (x, y)

    def test_segmentation_invariance(self, monkeypatch):
        whole = psi_count(12345, 7)
        monkeypatch.setattr(sieve, "_SEGMENT", 100)
        assert psi_count(12345, 7) == whole

    def test_complement_partition(self, gpf_oracle_1e5):
        for x in (3 * 10**4, 10**5):
            for y in (2, 10, 100):
                rough = int(np.count_nonzero(gpf_oracle_1e5[1 : x + 1] > y))
                assert psi_count(x, y) + rough == x

    def test_monotone_grid(self):
        psis = [psi_count(x, y) for x in (100, 200, 400) for y in (3, 7, 19)]
        for i, x in enumerate((100, 200, 400)):
            row = psis[3 * i : 3 * i + 3]
            assert row == sorted(row)
        for j in range(3):
            col = psis[j::3]
            assert col == sorted(col)


class TestPiSmooth:
    def test_full_range_is_prime_count(self):
        for x in (10**3, 10**4):
            assert pi_smooth_count(x, x) == prime_count(x)

    def test_power_of_two_shifts(self):
        assert pi_smooth_count(100, 2) == 4  # p in {2, 3, 5, 17}

    def test_three_smooth_shifts(self):
        # p <= 100 with p-1 of the form 2^a 3^b
        expected = {2, 3, 5, 7, 13, 17, 19, 37, 73, 97}
        assert pi_smooth_count(100, 3) == len(expected)

    def test_fermat_style_scan_to_1e6(self):
        x = 10**6
        direct = sum(1 for a in range(0, 21) if 2**a + 1 <= x and is_prime(2**a + 1))
        assert pi_smooth_count(x, 2) == direct == 6  # 2, 3, 5, 17, 257, 65537

    def test_brute_oracle(self, gpf_oracle_1e5):
        table = sieve_primes(10**5)
        for x in (100, 5000, 30000, 10**5):
            ps = table.primes[: table.count(x)]
            for y in (2, 5, 20):
                expected = int(np.count_nonzero(gpf_oracle_1e5[ps - 1] <= y))
                assert pi_smooth_count(x, y) == expected, (x, y)

    def test_monotone_in_y(self):
        vals = [pi_smooth_count(10**4, y) for y in (2, 3, 10, 100, 10**4)]
        assert vals == sorted(vals)


class TestPomeranceRatio:
    def test_quotient_one_at_full_smoothness(self):
        for x in (100, 1000):
            r = pomerance_ratio(x, x)
            assert r.lhs == 1.0 and r.rhs == 1.0 and r.quotient == 1.0

    def test_desk_scale_report(self):
        r = pomerance_ratio(10**6, 100)
        assert 0.0 < r.quotient < math.inf
        print(f"pi(x,y)/pi(x) = {r.lhs:.6f}, Psi(x,y)/x = {r.rhs:.6f}, quotient = {r.quotient:.4f}")

    def test_monotone_in_y(self):
        x = 10**4
        rs = [pomerance_ratio(x, y) for y in (2, 5, 17, 100)]
        assert [r.lhs for r in rs] == sorted(r.lhs for r in rs)
        assert [r.rhs for r in rs] == sorted(r.rhs for r in rs)


class TestLogPsiLeading:
    def test_small_v_limit(self):
        assert log_psi_leading(1e-9) < 1e-7

    def test_v_one(self):
        assert abs(log_psi_leading(1.0) - 2 * math.log(2)) <= 1e-12

    def test_quadrature_oracle(self):
        for v in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            expected, err = quad(lambda t: math.log1p(v / t), 0, 1, epsabs=1e-12, limit=200)
            assert err < 1e-9
            assert abs(log_psi_leading(v) - expected) <= 1e-9

    def test_log2_crossing_reported(self):
        # the closed form passes log 2 once, near v ~ 0.29; scan and report
        vs = [i / 100 for i in range(1, 101)]
        above = [v for v in vs if log_psi_leading(v) >= math.log(2)]
        assert above and above[0] > 0.2
        print(f"log_psi_leading reaches log 2 at v ~ {above[0]:.2f}")

    def test_domain(self):
        with pytest.raises(ValueError):
            log_psi_leading(0.0)


class TestAprReport:
    def test_trivial_regime(self):
        # y far above x^2 makes every count full: statistic collapses to 1/log x
        rep = apr_from_pomerance_report(30, 300.0)
        assert rep.psi_x_y == 30 and rep.psi_x2_y == 900
        assert abs(rep.statistic - 1.0 / math.log(30)) <= 1e-12

    def test_rounding_is_recorded(self):
        rep = apr_from_pomerance_report(1000, 2.0)
        assert rep.y == round(rep.y_unrounded) == round(2.0 * math.log(1000))
        assert rep.y == 14

    def test_census_oracle_1e3(self, gpf_oracle_1e5):
        rep = apr_from_pomerance_report(1000, 2.0)
        assert rep.psi_x_y == int(np.count_nonzero(gpf_oracle_1e5[1:1001] <= rep.y))
        assert rep.psi_x2_y == psi_count(10**6, rep.y)
        assert rep.statistic > 0
        assert rep.comparator == math.exp(
            (math.log(2) - 1 / 3) * 2 * math.log(1000) / math.log(math.log(1000))
        )

    def test_census_oracle_1e4_v3(self):
        # x^2 = 1e8 census, checked against recursive smooth enumeration
        rep = apr_from_pomerance_report(10**4, 3.0)
        assert rep.y == 28

        def count_smooth(limit: int, primes: tuple[int, ...]) -> int:
            if not primes:
                return 1
            total, q = 0, 1
            while q <= limit:
                total += count_smooth(limit // q, primes[1:])
                q *= primes[0]
            return total

        smooth_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
        assert rep.psi_x_y == count_smooth(10**4, smooth_primes)
        assert rep.psi_x2_y == count_smooth(10**8, smooth_primes) == 63768
        print(
            f"x=1e4 v=3: statistic {rep.statistic:.4f} vs analytic comparator {rep.comparator:.4f}"
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            apr_from_pomerance_report(1000, -1.0)


class TestCensusInternals:
    def test_census_consistency(self):
        c = smooth_census(10**4, 10)
        assert c.psi == psi_count(10**4, 10)
        assert c.pi_smooth == pi_smooth_count(10**4, 10)
        assert c.pi_x == prime_count(10**4)
        assert c.pi_smooth <= c.pi_x <= c.x and c.psi <= c.x and c.psi >= 1

    def test_segment_boundary_carry(self, monkeypatch):
        # p - 1 falling in the previous segment must still be seen
        b = smooth_census(10**4, 10)
        monkeypatch.setattr(sieve, "_SEGMENT", 64)
        a = smooth_census(10**4, 10)
        assert (a.psi, a.pi_smooth, a.pi_x) == (b.psi, b.pi_smooth, b.pi_x)
