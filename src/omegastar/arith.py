"""Classical arithmetic functions evaluated on explicit factorizations.

Every function takes a ready-made Factorization so the cost of factoring is
visible at the call site.
"""

from __future__ import annotations

from .sieve import Factorization


def divisors(f: Factorization) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in f.factors:
        powers = [p**i for i in range(e + 1)]
        divs = [d * q for d in divs for q in powers]
    divs.sort()
    return divs


def tau(f: Factorization) -> int:
    out = 1
    for _, e in f.factors:
        out *= e + 1
    return out


def count_coprime_up_to(y: int, d: Factorization) -> int:
    """#{m <= y : gcd(m, d) = 1} by inclusion-exclusion over squarefree divisors."""
    if y < 0:
        raise ValueError("y must be nonnegative")
    terms = [(1, 1)]
    for p, _ in d.factors:
        terms += [(e * p, -sign) for e, sign in terms]
    return sum(sign * (y // e) for e, sign in terms)
