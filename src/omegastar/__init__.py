"""Shifted-prime divisor experiments.

For each n >= 1, omega*(n) counts the divisors d of n such that d + 1 is
prime.  This package computes omega* pointwise and in bulk, its moments
M_k(x), the pair-counting and randomized divisor-set machinery that drives
the known lower bounds on its maximal order, the associated optimized
constants, and smooth-number censuses Psi(x, y) / pi(x, y).  Everything is
exact at desk scale and validated against brute-force oracles; the CLI
emits deterministic CSV/JSON.  Each name lives in its submodule and is
imported from there, e.g. ``from omegastar.omega import omega_star_table``.
"""

__version__ = "0.1.0"
