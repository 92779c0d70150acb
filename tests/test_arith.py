import math
from functools import lru_cache

import numpy as np

from omegastar.arith import big_omega, count_coprime_up_to, divisors, euler_phi, tau
from omegastar.sieve import factorize


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    return euler_phi(factorize(n))


class TestDivisors:
    def test_twelve(self):
        assert divisors(factorize(12)).divisors == [1, 2, 3, 4, 6, 12]

    def test_one(self):
        assert divisors(factorize(1)).divisors == [1]

    def test_sixty_has_tau_divisors(self):
        f = factorize(60)
        dl = divisors(f)
        assert len(dl.divisors) == tau(f) == 12

    def test_structure_sample(self):
        for n in (1, 2, 97, 360, 5040):
            dl = divisors(factorize(n))
            assert dl.divisors[0] == 1 and dl.divisors[-1] == n
            assert all(n % d == 0 for d in dl.divisors)
            assert dl.divisors == sorted(set(dl.divisors))


class TestBasicFunctions:
    def test_examples(self):
        assert tau(factorize(12)) == 6
        assert euler_phi(factorize(1)) == 1
        assert big_omega(factorize(12)) == 3

    def test_phi_divisor_sum_identity(self):
        for n in range(1, 10**4 + 1):
            assert sum(_phi(d) for d in divisors(factorize(n)).divisors) == n

    def test_omega_chain(self):
        for n in range(2, 10**5 + 1, 7):
            f = factorize(n)
            assert big_omega(f) <= math.log2(n) + 1e-9


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

