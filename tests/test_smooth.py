import math

import numpy as np
import pytest
from scipy.integrate import quad

from omegastar import sieve, smooth
from omegastar.sieve import factorize, is_prime, sieve_primes
from omegastar.smooth import log_psi_leading, pomerance_ratio, smooth_census

from conftest import brute_gpf, division_census, trial_division_is_prime


class TestPsiCount:
    def test_full_range(self):
        for x in (1, 10, 100, 1000):
            assert smooth_census(x, [x])[0].psi == x

    def test_powers_of_two(self):
        assert smooth_census(10, [2])[0].psi == 4  # 1, 2, 4, 8

    def test_five_smooth_to_100(self):
        assert smooth_census(100, [5])[0].psi == 34

    def test_brute_oracle(self, gpf_oracle_1e5):
        for x in (50, 1234, 20000, 10**5):
            for y in (2, 3, 5, 10, 50):
                expected = int(np.count_nonzero(gpf_oracle_1e5[1 : x + 1] <= y))
                assert smooth_census(x, [y])[0].psi == expected, (x, y)

    def test_segmentation_invariance(self, monkeypatch):
        whole = smooth_census(12345, [7])[0].psi
        monkeypatch.setattr(sieve, "_SEGMENT", 100)
        assert smooth_census(12345, [7])[0].psi == whole

    def test_complement_partition(self, gpf_oracle_1e5):
        for x in (3 * 10**4, 10**5):
            for y in (2, 10, 100):
                rough = int(np.count_nonzero(gpf_oracle_1e5[1 : x + 1] > y))
                assert smooth_census(x, [y])[0].psi + rough == x

    def test_recursive_enumeration_1e8(self):
        # a hundred segments at 1e8, against recursive smooth enumeration
        def count_smooth(limit: int, primes: tuple[int, ...]) -> int:
            if not primes:
                return 1
            total, q = 0, 1
            while q <= limit:
                total += count_smooth(limit // q, primes[1:])
                q *= primes[0]
            return total

        smooth_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
        assert smooth_census(10**4, [28])[0].psi == count_smooth(10**4, smooth_primes)
        assert smooth_census(10**8, [28])[0].psi == count_smooth(10**8, smooth_primes) == 63768

    def test_monotone_grid(self):
        psis = [smooth_census(x, [y])[0].psi for x in (100, 200, 400) for y in (3, 7, 19)]
        for i, x in enumerate((100, 200, 400)):
            row = psis[3 * i : 3 * i + 3]
            assert row == sorted(row)
        for j in range(3):
            col = psis[j::3]
            assert col == sorted(col)


class TestPiSmooth:
    def test_full_range_is_prime_count(self):
        for x in (10**3, 10**4):
            assert smooth_census(x, [x])[0].pi_smooth == sieve_primes(x).count()

    def test_power_of_two_shifts(self):
        assert smooth_census(100, [2])[0].pi_smooth == 4  # p in {2, 3, 5, 17}

    def test_three_smooth_shifts(self):
        # p <= 100 with p-1 of the form 2^a 3^b
        expected = {2, 3, 5, 7, 13, 17, 19, 37, 73, 97}
        assert smooth_census(100, [3])[0].pi_smooth == len(expected)

    def test_fermat_style_scan_to_1e6(self):
        x = 10**6
        direct = sum(1 for a in range(0, 21) if 2**a + 1 <= x and is_prime(2**a + 1))
        assert smooth_census(x, [2])[0].pi_smooth == direct == 6  # 2, 3, 5, 17, 257, 65537

    def test_brute_oracle(self, gpf_oracle_1e5):
        table = sieve_primes(10**5)
        for x in (100, 5000, 30000, 10**5):
            ps = table.primes[: table.count(x)]
            for y in (2, 5, 20):
                expected = int(np.count_nonzero(gpf_oracle_1e5[ps - 1] <= y))
                assert smooth_census(x, [y])[0].pi_smooth == expected, (x, y)

    def test_monotone_in_y(self):
        vals = [smooth_census(10**4, [y])[0].pi_smooth for y in (2, 3, 10, 100, 10**4)]
        assert vals == sorted(vals)


class TestPomeranceRatio:
    def test_quotient_one_at_full_smoothness(self):
        for x in (100, 1000):
            r = pomerance_ratio(smooth_census(x, [x])[0])
            assert r.lhs == 1.0 and r.rhs == 1.0 and r.quotient == 1.0

    def test_desk_scale_report(self):
        r = pomerance_ratio(smooth_census(10**6, [100])[0])
        assert 0.0 < r.quotient < math.inf
        print(f"pi(x,y)/pi(x) = {r.lhs:.6f}, Psi(x,y)/x = {r.rhs:.6f}, quotient = {r.quotient:.4f}")

    def test_monotone_in_y(self):
        x = 10**4
        rs = [pomerance_ratio(c) for c in smooth_census(x, [2, 5, 17, 100])]
        assert [r.lhs for r in rs] == sorted(r.lhs for r in rs)
        assert [r.rhs for r in rs] == sorted(r.rhs for r in rs)

    def test_rejects_x_below_2(self):
        with pytest.raises(ValueError, match="x must be at least 2"):
            pomerance_ratio(smooth_census(1, [1])[0])


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


class TestCensusInternals:
    def test_census_consistency(self):
        (c,) = smooth_census(10**4, [10])
        assert (c.psi, c.pi_smooth, c.pi_x) == division_census(10**4, 10)
        assert c.pi_x == sieve_primes(10**4).count()
        assert c.pi_smooth <= c.pi_x <= c.x and c.psi <= c.x and c.psi >= 1

    def test_segment_boundary_carry(self, monkeypatch):
        # p - 1 falling in the previous segment must still be seen
        (b,) = smooth_census(10**4, [10])
        monkeypatch.setattr(sieve, "_SEGMENT", 64)
        (a,) = smooth_census(10**4, [10])
        assert (a.psi, a.pi_smooth, a.pi_x) == (b.psi, b.pi_smooth, b.pi_x)

    @pytest.mark.parametrize("ys", [[], [0], [3, 0]])
    def test_domain(self, ys):
        with pytest.raises(ValueError):
            smooth_census(100, ys)


# y lists for the oracle: one y, two close ones, one past x for small x, y at
# and above x, and an unsorted list with a duplicate.
_Y_LISTS = (
    lambda x: [1],
    lambda x: [2, 3],
    lambda x: [5, 17, 400],
    lambda x: [x, 2 * x],
    lambda x: [17, 2, 5, 2],
)


def _expected(x: int, ys: list[int]) -> list[tuple[int, int, int]]:
    return [division_census(x, y) for y in ys]


def _got(x: int, ys: list[int]) -> list[tuple[int, int, int]]:
    out = smooth_census(x, ys)
    assert [(c.x, c.y) for c in out] == [(x, y) for y in ys]
    return [(c.psi, c.pi_smooth, c.pi_x) for c in out]


class TestCensusOracle:
    """The product kernel against the unsegmented division peel.  Each window
    reaches one integer back, so n - 1 at a segment boundary is re-tested
    there; small segments with several y values check every such overlap."""

    @pytest.mark.parametrize("segment", [1, 7, 64, 100])
    def test_every_x_below_300(self, monkeypatch, segment):
        cases = [(x, f(x)) for x in range(1, 300) for f in _Y_LISTS]
        expected = [_expected(x, ys) for x, ys in cases]
        monkeypatch.setattr(sieve, "_SEGMENT", segment)
        for (x, ys), want in zip(cases, expected):
            assert _got(x, ys) == want, (x, ys, segment)

    # Segments of 1 and 7 at 10^5 + 7 would take half a minute; their overlaps
    # are checked at every x < 300 and at 4099.
    @pytest.mark.parametrize(
        "x, segment", [(4099, 1), (4099, 7), (4099, 64), (4099, 100), (10**5 + 7, 64), (10**5 + 7, 100)]
    )
    def test_larger_x(self, monkeypatch, x, segment):
        cases = [f(x) for f in _Y_LISTS]
        expected = [_expected(x, ys) for ys in cases]
        monkeypatch.setattr(sieve, "_SEGMENT", segment)
        for ys, want in zip(cases, expected):
            assert _got(x, ys) == want, (x, ys, segment)

    @pytest.mark.parametrize("lo, hi", [(lo, hi) for lo in range(6) for hi in (lo + 1, lo + 2, 60, 61)])
    def test_window_against_full_flags(self, lo, hi):
        # every start parity and both end parities against flags over the
        # whole window, so the odd slots [(lo + 1) // 2, hi // 2), the prime
        # 2 and each pair n - 1, n line up
        root = math.isqrt(hi - 1)
        ys = sorted({1, 2, 3, 5, max(root, 1), root + 1, 20, 100})
        prime = [trial_division_is_prime(n) for n in range(lo, hi)]
        gpf = [brute_gpf(n) for n in range(lo, hi)]  # n = lo is only a predecessor
        check_census_window(lo, hi, ys, sieve._primes_upto(root).tolist(), prime, gpf)

    def test_uint64_segment_straddling_2_to_32(self):
        # one window [2^32 - 2^10 - 1, 2^32 + 2^10), counted over
        # [2^32 - 2^10, 2^32 + 2^10): n and part must be uint64.
        # isqrt(hi - 1) = 2^16, so the y above it take the cofactor test; the
        # prime 2^16 + 1 is the cofactor of 2^32 - 1 = 3 * 5 * 17 * 257 * 65537.
        lo, hi = 2**32 - 2**10, 2**32 + 2**10
        ys = [2, 3, 1000, 2**16, 2**16 + 1, 2**20, 2**40]
        mark = sieve._primes_upto(2**16).tolist()
        gpf = [factorize(n).factors[-1][0] for n in range(lo - 1, hi)]
        prime = [is_prime(n) for n in range(lo - 1, hi)]
        counts = check_census_window(lo - 1, hi, ys, mark, prime, gpf)
        assert counts[0][0] == 1  # 2^32 alone is 2-smooth
        assert counts[4][0] == counts[3][0] + 1  # 2^32 - 1 joins at y = 2^16 + 1


def check_census_window(lo, hi, ys, mark, prime, gpf):
    """_census_segment(lo, hi) for ascending ys against primality and
    greatest-prime-factor lists over the whole window [lo, hi); the y past
    isqrt(hi - 1) take the cofactor test.  Returns its counts."""
    root = math.isqrt(hi - 1)
    stages = [([p for p in mark if a < p <= b], None if b <= root else b) for a, b in zip([0] + ys, ys)]
    pi, counts = smooth._census_segment(lo, hi, mark, stages)
    assert pi == sum(prime[1:]), (lo, hi)
    for y, (psi, pi_smooth) in zip(ys, counts):
        smooth_flags = [g <= y for g in gpf]
        assert psi == sum(smooth_flags[1:]), (lo, hi, y)
        assert pi_smooth == sum(p and s for p, s in zip(prime[1:], smooth_flags)), (lo, hi, y)
    return counts


class TestCensusAboveRoot:
    """Only the primes <= isqrt(x) are walked; a y above isqrt(x) is read off
    the cofactor n // part, which is 1 or a single prime."""

    @pytest.mark.parametrize("x", [10**4, 10**4 + 1, 5 * 10**4 - 1, 4099])
    @pytest.mark.parametrize("segment", [64, 1 << 20])
    def test_y_around_root_against_division(self, monkeypatch, x, segment):
        root = math.isqrt(x)
        ys = [root - 1, root, root + 1, 2 * root, x // 2, x - 1, x, 3 * x]
        expected = _expected(x, ys)
        monkeypatch.setattr(sieve, "_SEGMENT", segment)
        assert _got(x, ys) == expected

    def test_mixed_ys_equal_separate_calls(self):
        x = 3 * 10**4 + 11
        ys = [x, 5, 173, math.isqrt(x) + 1, 2, math.isqrt(x), 10**9, 20000]
        together = smooth_census(x, ys)
        assert together == [smooth_census(x, [y])[0] for y in ys]

    @pytest.mark.parametrize("x, ys", [(10**4, [10**4]), (99991, [3, 400, 10**6]), (2, [1, 2])])
    def test_primes_only_up_to_root(self, monkeypatch, x, ys):
        asked = []
        real = smooth._primes_upto

        def spy(n):
            asked.append(n)
            return real(n)

        monkeypatch.setattr(smooth, "_primes_upto", spy)
        smooth_census(x, ys)
        assert asked and max(asked) <= math.isqrt(x)
