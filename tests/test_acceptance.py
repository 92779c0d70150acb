"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as they
print.  Every tolerance is pinned here; band centers marked "pinned from
oracle run" were frozen from independent oracle computations before this
suite was, and are never recalibrated at test time.

Criterion 7 checks the GRH-mode sampler at log x = 1100 against the exact
acceptance probability P(D'), bracketed by the grid-convolution oracle in
conftest.py, and not against a fixed 0.9: the printed-constant window
2L/(log L)^2 about (1/2 - eps) log x carries only P(D') in
[0.89318, 0.89392] at that scale.  The paper's GRH exponent needs P(D') -> 1 only as x -> infinity.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from omegastar.constants import GOLDEN_RATIO, GRH_C, GRH_U, grh_residuals, maximize_f_theta
from omegastar.construction import (
    build_params,
    champion_search,
    chebyshev_bounds,
    pair_count_report,
    sample_stats,
)
from omegastar.omega import moment_scan, moment_sum, omega_star, omega_star_table
from omegastar.sieve import factorize, sieve_primes
from omegastar.smooth import smooth_census

from conftest import expand_half_table, grh_acceptance_bracket
from oracles import count_representations, enumerate_D_exact
from test_smooth import log_psi_leading


class _Criterion:
    def __init__(self, num: int, name: str, budget_seconds: float):
        self.num = num
        self.name = name
        self.budget = budget_seconds
        self.start = time.perf_counter()
        self.checks: list[tuple[bool, str]] = []

    def check(self, ok: bool, detail: str) -> None:
        self.checks.append((bool(ok), detail))

    def finish(self) -> None:
        elapsed = time.perf_counter() - self.start
        within_budget = elapsed < self.budget
        self.checks.append((within_budget, f"runtime {elapsed:.2f}s < {self.budget:.0f}s"))
        ok = all(c for c, _ in self.checks)
        print(f"[criterion {self.num:02d}] {'PASS' if ok else 'FAIL'} {self.name}")
        for c, detail in self.checks:
            print(f"    {'ok  ' if c else 'FAIL'} {detail}")
        failed = [detail for c, detail in self.checks if not c]
        assert not failed, f"criterion {self.num} failed: {failed}"


def test_c01_constants_reproduction():
    crit = _Criterion(1, "constants reproduction", 1.0)
    opt = maximize_f_theta(0.4736)
    crit.check(abs(opt.u_star - 1.2694) <= 1e-3, f"u* = {opt.u_star:.6f} within 1e-3 of 1.2694")
    crit.check(abs(opt.f_max - 0.4669) <= 5e-4, f"f_max = {opt.f_max:.6f} within 5e-4 of 0.4669")
    crit.check(
        0.6736 < opt.f_over_log2 < 0.6738,
        f"f_max/log2 = {opt.f_over_log2:.7f} in (0.6736, 0.6738)",
    )
    crit.finish()


def test_c02_grh_identities():
    crit = _Criterion(2, "golden-ratio identities", 1.0)
    r = grh_residuals()
    crit.check(r["ratio_identity"] <= 1e-12, f"|2u/(2u-1) - golden| = {r['ratio_identity']:.2e}")
    crit.check(r["sqrt_identity"] <= 1e-12, f"|sqrt(2u) - golden| = {r['sqrt_identity']:.2e}")
    c_resid = abs(GRH_C - (GRH_U + 0.5) * math.log(GOLDEN_RATIO))
    crit.check(c_resid <= 1e-12, f"|C - (u+1/2)log(golden)| = {c_resid:.2e}, C = {GRH_C:.10f}")
    crit.finish()


def test_c03_omega_star_correctness():
    crit = _Criterion(3, "omega* bulk vs pointwise on [1, 1e5]", 10.0)
    x = 10**5
    counts = expand_half_table(omega_star_table(x))
    mismatch = sum(1 for n in range(1, x + 1) if int(counts[n]) != omega_star(n))
    crit.check(mismatch == 0, f"pointwise divisor enumeration agrees at all {x} points")
    ns = np.arange(1, x + 1)
    parity_ok = np.all((counts[1:] == 1) == (ns % 2 == 1))
    crit.check(bool(parity_ok), "parity law: omega*(n) = 1 iff n odd")
    tau_arr = np.zeros(x + 1, dtype=np.int32)
    for d in range(1, x + 1):
        tau_arr[d::d] += 1
    crit.check(bool(np.all(counts[1:] <= tau_arr[1:])), "omega*(n) <= tau(n) everywhere")
    crit.finish()


def test_c04_bridging_identity():
    crit = _Criterion(4, "count_representations(n, n, n+1) = omega*(n)", 5.0)
    counts = expand_half_table(omega_star_table(10**4))
    bad = [
        n
        for n in range(1, 10**4 + 1)
        if count_representations(n, n, n + 1) != int(counts[n])
    ]
    crit.check(not bad, f"identity holds for all n <= 1e4 (violations: {bad[:5]})")
    crit.finish()


def test_c05_domination_inequality():
    crit = _Criterion(5, "sum of A_d over d <= sqrt(k) never exceeds brute-force A", 30.0)
    for x in (200, 500, 2000):
        ms = np.arange(1, x + 1, dtype=np.int64)
        ps = sieve_primes(x).primes
        for k in (2, 6, 30, 210):
            # brute-force enumeration of all pairs (m, p) with k | m(p-1)
            brute_A = sum(
                int(np.count_nonzero(ms * (int(p) - 1) % k == 0)) for p in ps
            )
            # the report lists A_d for every d <= sqrt(k)
            lhs = sum(a_d for _, a_d in pair_count_report(x, factorize(k)).per_d)
            crit.check(
                lhs <= brute_A,
                f"x={x}, k={k}: sum A_d = {lhs} <= A = {brute_A}",
            )
    crit.finish()


def test_c06_first_moment_band():
    crit = _Criterion(6, "M_1(x) - log log x band and exact identity", 60.0)
    xs = [10**5, 10**6, 10**7]
    table = omega_star_table(xs[-1])
    points = moment_scan(xs, 1, table=table)
    cs = [mk - math.log(math.log(x)) for x, mk in points]
    # band center 1.000 pinned from oracle run; width 0.15
    lo, hi = 1.000 - 0.075, 1.000 + 0.075
    for (x, mk), c in zip(points, cs):
        crit.check(lo <= c <= hi, f"M1({x:.0e}) - loglog = {c:.6f} in [{lo}, {hi}]")
    crit.check(max(cs) - min(cs) <= 0.15, f"spread {max(cs) - min(cs):.6f} <= 0.15")
    x = 10**5
    ps = sieve_primes(x + 1).primes
    identity_rhs = int((x // (ps - 1)).sum())
    crit.check(
        moment_sum(table, 1, upto=x) == identity_rhs,
        f"x=1e5: integer identity sum {identity_rhs} matches exactly",
    )
    crit.finish()


def test_c07_sampling_concentration():
    crit = _Criterion(7, "GRH-mode window concentration at log_x = 1100", 60.0)
    params = build_params(1100.0, mode="grh")
    trials = 10**5
    stats = sample_stats(params, trials, seed=20250809)
    b_logd, b_omega = chebyshev_bounds(params)
    s_logd = math.sqrt(b_logd * (1 - min(b_logd, 1.0)) / trials)
    s_omega = math.sqrt(b_omega * (1 - b_omega) / trials)
    crit.check(
        stats.fail_rate_logd <= b_logd + 3 * s_logd,
        f"log d window: empirical fail {stats.fail_rate_logd:.5f} <= "
        f"Chebyshev {b_logd:.5f} + 3 sigma",
    )
    crit.check(
        stats.fail_rate_omega <= b_omega + 3 * s_omega,
        f"Omega window: empirical fail {stats.fail_rate_omega:.7f} <= "
        f"Chebyshev {b_omega:.5f} + 3 sigma",
    )
    # The window of half-width 2L/(log L)^2 = 42.63 is centred on
    # (1/2 - eps) log x = 134.33, but E[log d] = rho theta(L) = 129.04 because theta(L) = 983.94 < L: the
    # half-width is 1.647 sigma and the centre 0.20 sigma above the mean, so
    # P(D') is in [0.89318, 0.89392] here and a 0.9 threshold is unattainable.  The offset is a
    # finite-scale effect.  The Monte Carlo rate must instead match the exact
    # bracket of the grid-convolution oracle (computed from the documented
    # formulas, not from build_params) and clear the Chebyshev guarantee.
    bracket = grh_acceptance_bracket(1100.0)
    p = 0.5 * (bracket.lo + bracket.hi)
    sigma = math.sqrt(p * (1 - p) / trials)
    crit.check(
        bracket.lo - 3 * sigma <= stats.acceptance <= bracket.hi + 3 * sigma,
        f"total acceptance {stats.acceptance:.5f} within 3 sigma ({sigma:.5f}) of "
        f"exact P(D') in [{bracket.lo:.5f}, {bracket.hi:.5f}]",
    )
    guarantee = 1 - b_logd - b_omega
    crit.check(
        stats.acceptance >= guarantee,
        f"total acceptance {stats.acceptance:.5f} >= 1 - Chebyshev bounds = {guarantee:.5f}",
    )
    crit.finish()


def test_c08_exact_enumeration_vs_entropy():
    crit = _Criterion(8, "R = 24 exact enumeration, entropy bound, MC check", 120.0)
    params = build_params(111.0, mode="grh")
    crit.check(params.R == 24, f"R = {params.R}")
    e = enumerate_D_exact(params)
    crit.check(
        e.size_Dprime >= e.prob_Dprime / e.max_mass,
        f"size_D' = {e.size_Dprime} >= prob/max_mass = {e.prob_Dprime / e.max_mass:.3f}",
    )
    rho = params.rho
    entropy = params.R * (-rho * math.log(rho) - (1 - rho) * math.log(1 - rho))
    rhs = entropy - params.R ** (2 / 3) - math.log(1 / e.prob_Dprime)
    crit.check(
        math.log(e.size_Dprime) >= rhs,
        f"log size_D' = {math.log(e.size_Dprime):.4f} >= R H(rho) - R^(2/3) - log(1/P) = {rhs:.4f}",
    )
    trials = 10**5
    stats = sample_stats(params, trials, seed=777)
    sigma = math.sqrt(e.prob_Dprime * (1 - e.prob_Dprime) / trials)
    crit.check(
        abs(stats.acceptance - e.prob_Dprime) <= 3 * sigma,
        f"MC frequency {stats.acceptance:.5f} within 3 sigma of exact {e.prob_Dprime:.5f}",
    )
    crit.finish()


def test_c09_smooth_counts():
    crit = _Criterion(9, "smooth censuses and the leading-order closed form", 30.0)
    crit.check(smooth_census(100, [5])[0].psi == 34, "Psi(100, 5) = 34")
    crit.check(smooth_census(100, [2])[0].pi_smooth == 4, "pi(100, 2) = 4")
    for x in (10**3, 10**4):
        (census,) = smooth_census(x, [x])
        pi_x = sieve_primes(x).primes.size
        crit.check(census.psi == x, f"Psi({x}, {x}) = {x}")
        crit.check(census.pi_smooth == pi_x, f"pi({x}, {x}) = pi({x}) = {pi_x}")
    worst = 0.0
    for v in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        expected, err = quad(lambda t: math.log1p(v / t), 0, 1, epsabs=1e-12, limit=200)
        worst = max(worst, abs(log_psi_leading(v) - expected))
        assert err < 1e-9
    crit.check(worst <= 1e-9, f"closed form vs quadrature, worst gap {worst:.2e} <= 1e-9")
    crit.finish()


def test_c10_champion_reporting():
    crit = _Criterion(10, "champion at 1e6: bulk vs pointwise, score context", 60.0)
    # Asymptotic-regime records are out of reach at desk scale; the counting
    # engine itself was verified in finite form by criteria 7 and 8.  Here the
    # bulk-table champion is recomputed pointwise and its normalized score is
    # logged against both theorem exponents.
    rec = champion_search(10**6, 1)
    pointwise = omega_star(rec.n)
    crit.check(
        pointwise == rec.omega_star_n,
        f"champion n = {rec.n}: bulk {rec.omega_star_n} == pointwise {pointwise}",
    )
    uncond = 0.6736 * math.log(2.0)
    grh = math.log(GOLDEN_RATIO)
    crit.check(
        rec.score > 0,
        f"score {rec.score:.6f} (theorem exponents: unconditional {uncond:.6f}, GRH {grh:.6f})",
    )
    crit.finish()
