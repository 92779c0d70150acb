import math
from functools import lru_cache

import numpy as np

from omegastar.arith import count_coprime_up_to, divisors, tau
from omegastar.sieve import factorize


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    # Euler phi by its definition: #{m <= n : gcd(m, n) = 1}
    return count_coprime_up_to(n, factorize(n))


class TestDivisors:
    def test_twelve(self):
        assert divisors(factorize(12)) == [1, 2, 3, 4, 6, 12]

    def test_one(self):
        assert divisors(factorize(1)) == [1]

    def test_sixty_has_tau_divisors(self):
        f = factorize(60)
        assert len(divisors(f)) == tau(f) == 12

    def test_structure_sample(self):
        for n in (1, 2, 97, 360, 5040):
            divs = divisors(factorize(n))
            assert divs[0] == 1 and divs[-1] == n
            assert all(n % d == 0 for d in divs)
            assert divs == sorted(set(divs))


class TestBasicFunctions:
    def test_examples(self):
        assert tau(factorize(12)) == 6
        assert _phi(1) == 1

    def test_phi_divisor_sum_identity(self):
        for n in range(1, 10**4 + 1):
            assert sum(_phi(d) for d in divisors(factorize(n))) == n

    def test_omega_chain(self):
        for n in range(2, 10**5 + 1, 7):
            # Omega(n), the exponent sum, is at most log2 n
            assert sum(e for _, e in factorize(n).factors) <= math.log2(n) + 1e-9


class TestCountCoprime:
    def test_examples(self):
        for y in (0, 1, 7, 100):
            assert count_coprime_up_to(y, factorize(1)) == y
        assert count_coprime_up_to(10, factorize(6)) == 3  # 1, 5, 7
        assert count_coprime_up_to(100, factorize(30)) == 26

    def test_brute_scan_all_squarefree_moduli(self):
        squarefree = [d for d in range(1, 211) if factorize(d).is_squarefree()]
        ys = np.arange(1, 1001)
        for d in squarefree:
            f = factorize(d)
            coprime_cum = np.cumsum(np.gcd(ys, d) == 1)
            for y in range(0, 1001, 97):
                expected = 0 if y == 0 else int(coprime_cum[y - 1])
                assert count_coprime_up_to(y, f) == expected, (y, d)
        # dense check on a couple of moduli
        for d in (6, 30, 210):
            f = factorize(d)
            coprime_cum = np.cumsum(np.gcd(ys, d) == 1)
            for y in range(1, 1001):
                assert count_coprime_up_to(y, f) == int(coprime_cum[y - 1])

