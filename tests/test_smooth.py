import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from omegastar import sieve, smooth
from omegastar.sieve import is_prime, sieve_primes
from omegastar.smooth import pomerance_ratio, smooth_census

from conftest import division_census, trial_division_is_prime


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
        monkeypatch.setattr(sieve, "_SEGMENT", 104)
        monkeypatch.setattr(sieve, "_MAP_SLOTS", 104)
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
            assert smooth_census(x, [x])[0].pi_smooth == sieve_primes(x).primes.size

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
            ps = table.primes[: np.searchsorted(table.primes, x, side="right")]
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


def log_psi_leading(v: float) -> float:
    """(1+v)log(1+v) - v log v: closed form of the integral of log(1 + v/t)
    over t in [0, 1], the leading coefficient of log Psi(x, v log x) in units
    of log x / log log x."""
    if v <= 0:
        raise ValueError("v must be positive")
    return (1.0 + v) * math.log1p(v) - v * math.log(v)


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
        assert c.pi_x == sieve_primes(10**4).primes.size
        assert c.pi_smooth <= c.pi_x <= c.x and c.psi <= c.x and c.psi >= 1

    def test_segment_boundary_carry(self, monkeypatch):
        # p - 1 falling in the previous segment must still be seen
        (b,) = smooth_census(10**4, [10])
        monkeypatch.setattr(sieve, "_SEGMENT", 64)
        monkeypatch.setattr(sieve, "_MAP_SLOTS", 64)
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
    """The census against the unsegmented division peel.  Small windows cut
    the flag sieve (_SEGMENT) and the walk over the primes above sqrt(x)
    (_MAP_SLOTS) into many slices, so every slice boundary meets several y
    values.  _SEGMENT is a multiple of 8, so these tests set both in whole
    bytes of bits: segment_bytes = 1, 7, 64 and 100 make windows of 8, 56,
    512 and 800 slots."""

    @pytest.mark.parametrize("segment_bytes", [1, 7, 64, 100])
    def test_every_x_below_300(self, monkeypatch, segment_bytes):
        # at 64 and 100 bytes one window holds every slot of these x
        cases = [(x, f(x)) for x in range(1, 300) for f in _Y_LISTS]
        expected = [_expected(x, ys) for x, ys in cases]
        monkeypatch.setattr(sieve, "_SEGMENT", 8 * segment_bytes)
        monkeypatch.setattr(sieve, "_MAP_SLOTS", 8 * segment_bytes)
        for (x, ys), want in zip(cases, expected):
            assert _got(x, ys) == want, (x, ys, segment_bytes)

    # The slice boundaries of windows of 8 and 56 slots are checked at
    # every x < 300 and at 4099; at 10^5 + 7 they would add about 0.5 s.
    @pytest.mark.parametrize(
        "x, segment_bytes", [(4099, 1), (4099, 7), (4099, 64), (4099, 100), (10**5 + 7, 64), (10**5 + 7, 100)]
    )
    def test_larger_x(self, monkeypatch, x, segment_bytes):
        cases = [f(x) for f in _Y_LISTS]
        expected = [_expected(x, ys) for ys in cases]
        monkeypatch.setattr(sieve, "_SEGMENT", 8 * segment_bytes)
        monkeypatch.setattr(sieve, "_MAP_SLOTS", 8 * segment_bytes)
        for ys, want in zip(cases, expected):
            assert _got(x, ys) == want, (x, ys, segment_bytes)

    @pytest.mark.parametrize("lo, hi", [(lo, hi) for lo in range(6) for hi in (lo + 1, lo + 2, 60, 61)])
    def test_window_against_full_flags(self, monkeypatch, lo, hi):
        # the stretch of odd slots [a + lo, a + hi) just above isqrt(x),
        # walked in slices of every size over the flags of [1, x], against
        # trial division one prime at a time; the census splits the walk at
        # each y, so the stretches [a, a + lo) and [a + lo, a + hi) must add up
        # x = 4118 = 2 * 29 * 71 with 67 and 71 in slots a + 1 and a + 3:
        # p * m + 1 = x + 1 at p = 71, m = 58, which must not be read
        for x in (4099, 4118):
            bits = sieve_primes(x).bits
            a = (math.isqrt(x) + 1) // 2
            primes = [2 * i + 1 for i in range(a + lo, a + hi) if trial_division_is_prime(2 * i + 1)]
            assert primes == [2 * i + 1 for i in range(a + lo, a + hi) if bits[i >> 3] >> (i & 7) & 1]
            psi = sum(x // p for p in primes)
            pi = sum(trial_division_is_prime(p * m + 1) for p in primes for m in range(2, (x - 1) // p + 1, 2))
            for segment in (8, 16, 56, 1 << 20):
                monkeypatch.setattr(sieve, "_SEGMENT", segment)
                monkeypatch.setattr(sieve, "_MAP_SLOTS", segment)
                got = smooth._large_prime_counts(x, bits, a + lo, a + hi)
                assert got == (psi, pi), (x, segment)
                head = smooth._large_prime_counts(x, bits, a, a + lo)
                whole = smooth._large_prime_counts(x, bits, a, a + hi)
                assert (head[0] + got[0], head[1] + got[1]) == whole, (x, segment)


class TestCensusAboveRoot:
    """Only the primes <= isqrt(x) are listed and their smooth multiples
    enumerated; a prime p above isqrt(x) adds x // p to Psi and is read
    from the flags in slices."""

    @pytest.mark.parametrize("x", [10**4, 10**4 + 1, 5 * 10**4 - 1, 4099])
    @pytest.mark.parametrize("segment", [64, 1 << 20])
    def test_y_around_root_against_division(self, monkeypatch, x, segment):
        root = math.isqrt(x)
        ys = [root - 1, root, root + 1, 2 * root, x // 2, x - 1, x, 3 * x]
        expected = _expected(x, ys)
        monkeypatch.setattr(sieve, "_SEGMENT", segment)
        monkeypatch.setattr(sieve, "_MAP_SLOTS", segment)
        assert _got(x, ys) == expected

    def test_mixed_ys_equal_separate_calls(self):
        x = 3 * 10**4 + 11
        ys = [x, 5, 173, math.isqrt(x) + 1, 2, math.isqrt(x), 10**9, 20000]
        together = smooth_census(x, ys)
        assert together == [smooth_census(x, [y])[0] for y in ys]

    @pytest.mark.parametrize("x, ys", [(10**4, [10**4]), (99991, [3, 400, 10**6]), (2, [1, 2])])
    def test_primes_only_up_to_root(self, monkeypatch, x, ys):
        # every prime list is mapped from a prefix of odd slots that ends at
        # or below isqrt(x): the census's own and the sieve's base primes
        asked = []
        real = sieve._slot_primes

        def spy(bits, slots, count=None):
            assert bits.size >= (slots + 7) // 8
            asked.append(2 * slots - 1)  # the last odd integer covered
            return real(bits, slots, count)

        monkeypatch.setattr(sieve, "_slot_primes", spy)
        monkeypatch.setattr(smooth, "_slot_primes", spy)
        smooth_census(x, ys)
        assert asked and max(asked) <= math.isqrt(x)


def _gpf_counts(gpf: np.ndarray, x: int, ys: list[int]) -> list[tuple[int, int, int]]:
    """(Psi(x, y), pi(x, y), pi(x)) for each y from a greatest-prime-factor
    table over [0, x] (P+(1) = 1): n >= 2 is prime exactly when P+(n) = n."""
    n = np.arange(x + 1)
    prime = (gpf[: x + 1] == n) & (n >= 2)
    out = []
    for y in ys:
        smooth_flags = gpf[1 : x + 1] <= y
        out.append((int(smooth_flags.sum()), int((prime[2:] & smooth_flags[:-1]).sum()), int(prime.sum())))
    return out


_PRIMES_TO_320 = [q for q in range(2, 320) if trial_division_is_prime(q)]


class TestCensusEdges:
    """Edges at isqrt(x) and in the enumeration below it, against the
    division peel and a greatest-prime-factor oracle."""

    @pytest.mark.parametrize("segment_bytes", [1, 1 << 20])
    def test_x_at_most_3(self, monkeypatch, gpf_oracle_1e5, segment_bytes):
        # isqrt(x) = 1 here, so the prime 2 lies above the square root; a
        # window of 8 * segment_bytes slots holds the at most 2 slots
        monkeypatch.setattr(sieve, "_SEGMENT", 8 * segment_bytes)
        monkeypatch.setattr(sieve, "_MAP_SLOTS", 8 * segment_bytes)
        want = {
            1: {1: (1, 0, 0), 2: (1, 0, 0), 5: (1, 0, 0)},
            2: {1: (1, 1, 1), 2: (2, 1, 1), 5: (2, 1, 1)},
            3: {1: (1, 1, 2), 2: (2, 2, 2), 3: (3, 2, 2), 5: (3, 2, 2)},
        }
        for x, table in want.items():
            ys = [5, 1, 2, 5] + ([3] if x == 3 else [])
            assert _got(x, ys) == [table[y] for y in ys] == _expected(x, ys), x
            assert _got(x, ys) == _gpf_counts(gpf_oracle_1e5, x, ys), x

    @pytest.mark.parametrize("q", [q for q in _PRIMES_TO_320 if q * q < 10**5])
    def test_prime_squares(self, gpf_oracle_1e5, q):
        # isqrt(x) reaches the prime q at x = q^2: below it q is walked
        # among the primes above isqrt(x), from it on enumerated below
        for x in (q * q - 1, q * q, q * q + 1):
            root = math.isqrt(x)
            ys = [x, root + 1, 2, max(root - 1, 1), root, q, 2 * root]
            assert _got(x, ys) == _gpf_counts(gpf_oracle_1e5, x, ys), x

    @pytest.mark.parametrize("p", [q for q in _PRIMES_TO_320 if 2 * q**3 <= 10**5])
    def test_cube_crossings(self, gpf_oracle_1e5, p):
        # p^2 <= x // p exactly from x = p^3 on, and p^2 <= x // 2p from
        # x = 2p^3 on: there p's powers first reach the odd and the even m
        for x in (p**3 - 1, p**3, p**3 + 1, 2 * p**3 - 1, 2 * p**3, 2 * p**3 + 1):
            ys = [p - 1, p, p + 1, math.isqrt(x), x]
            assert _got(x, ys) == _gpf_counts(gpf_oracle_1e5, x, ys), x


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    x=st.integers(min_value=1, max_value=5000),
    ys=st.lists(st.integers(min_value=1, max_value=6000), min_size=1, max_size=6),
    repeat=st.booleans(),
    segment=st.sampled_from([56, 64, 1 << 20]),
)
def test_census_property_against_division(x, ys, repeat, segment):
    # unsorted y lists, a duplicate on demand, and y on both sides of x
    if repeat:
        ys = ys + ys[:1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sieve, "_SEGMENT", segment)
        patch.setattr(sieve, "_MAP_SLOTS", segment)
        assert _got(x, ys) == _expected(x, ys)


class TestCensusMemory:
    """The bits of [1, x] take x / 16 bytes; the rest must stay small beside
    them, whatever y."""

    @staticmethod
    def _peak(x: int, ys: list[int]) -> int:
        tracemalloc.start()
        try:
            smooth_census(x, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_census_workload_peak(self):
        # The windowed product census peaked at 10,193,117 traced bytes here;
        # this one holds 621,875 bytes of slot bits and about 1.2 MB besides.
        x = 9_950_000
        peak = self._peak(x, [16, 32, 64])
        assert peak < x // 2 + (1 << 20) < 10_193_117, peak

    def test_census_peak_below_0_22_x_bytes(self):
        # The sieve sets the peak at 0.183 x: the x / 16 bytes of bits, its
        # 2^20-byte window buffer and one packed window.  The bound leaves
        # 0.037 x of headroom; one uint8 flag per odd slot read 0.532 x.
        x = 10**7
        peak = self._peak(x, [16, 32, 64])
        assert peak < 0.22 * x, peak / x

    def test_no_prime_list_up_to_y(self):
        # at y = x the primes above sqrt(x) are walked in slices; the int64
        # list of all 1.86 million primes <= x would take 14.9 MB
        x = 30_000_000
        peak = self._peak(x, [x])
        assert peak <= x // 2 + (1 << 23), peak

    def test_walk_above_root_holds_one_small_window(self):
        # The walk over the primes above sqrt(x) maps one 2^16-slot window
        # at a time: its unpacked flags, their int64 primes and one j
        # gather read 0.59 MB here, where 2^20-slot windows read 4.25 MB.
        x = 30_000_000
        bits = sieve_primes(x).bits
        tracemalloc.start()
        try:
            smooth._large_prime_counts(x, bits, (math.isqrt(x) + 1) // 2, (x + 1) // 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
