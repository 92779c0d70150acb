import dataclasses
import math

import numpy as np
import pytest

from omegastar import construction, rng
from omegastar.constants import GRH_U
from omegastar.construction import (
    accept_flags,
    build_params,
    champion_search,
    chebyshev_bounds,
    count_A_d,
    count_representations,
    entropy_lower_bound,
    enumerate_D_exact,
    harman_smoothness_check,
    log_d_moments,
    pair_count_report,
    primorial_k,
    sample_divisor,
    sample_stats,
    total_pairs_A,
)
from omegastar.arith import divisors, euler_phi
from omegastar.omega import omega_star, omega_star_table
from omegastar.sieve import ResourceLimitError, factorize, primes_in_ap

from conftest import brute_pair_count_A, brute_pair_count_A_d, grh_acceptance_bracket


@pytest.fixture(scope="module")
def grh_1100():
    return build_params(1100.0, mode="grh")


@pytest.fixture(scope="module")
def grh_111():
    return build_params(111.0, mode="grh")


@pytest.fixture(scope="module")
def uncond_111():
    return build_params(111.0, mode="unconditional")


class TestBuildParams:
    def test_epsilon_one_third_example(self):
        p = build_params(math.exp(9.0), mode="grh")
        assert abs(p.epsilon - 1.0 / 3.0) <= 1e-12
        assert abs(p.rho - (0.5 - 1 / 3) / (GRH_U - 1 / 3)) <= 1e-12
        assert p.theta == 0.5 and p.u == GRH_U

    def test_rho_approaches_inverse_golden_squared(self):
        # rho = (1/2 - eps)/(u - eps) increases toward 1/(2u) = 1/golden^2 as eps -> 0
        rhos = [build_params(lx, mode="grh").rho for lx in (100.0, 8103.0, 10**6)]
        limit = 1.0 / (2 * GRH_U)
        assert rhos == sorted(rhos)
        assert all(r < limit for r in rhos)
        # the gap to the limit shrinks by more than half across the sweep
        assert limit - rhos[-1] < (limit - rhos[0]) / 2

    def test_unconditional_1100(self, oracle_primes_2000):
        p = build_params(1100.0, mode="unconditional")
        assert abs(p.L - (1.2694 - p.epsilon) * 1100.0) <= 1e-9
        assert p.R == sum(1 for q in oracle_primes_2000 if q <= p.L) == 165
        assert np.all(p.k_primes <= p.L)

    def test_invariant_wiring(self, grh_1100):
        p = grh_1100
        assert abs(p.epsilon - 1.0 / math.sqrt(math.log(1100.0))) <= 1e-15
        assert p.R == p.k_primes.size
        assert abs(p.rho - (0.5 - p.epsilon) / (p.u - p.epsilon)) <= 1e-15
        assert abs(p.window_log_d - 2 * p.L / math.log(p.L) ** 2) <= 1e-12

    def test_too_small_log_x_names_constraint(self):
        with pytest.raises(ValueError, match="log_x"):
            build_params(50.0, mode="grh")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            build_params(111.0, mode="sideways")

    def test_excluding_a_listed_prime_drops_R_by_one(self, grh_111):
        without = build_params(111.0, mode="grh", excluded_prime=89)
        assert without.R == grh_111.R - 1
        assert 89 not in without.k_primes.tolist()
        unaffected = build_params(111.0, mode="grh", excluded_prime=97)  # above L
        assert unaffected.R == grh_111.R


class TestPrimorial:
    def test_ten(self):
        primes, log_k = primorial_k(10)
        assert primes.tolist() == [2, 3, 5, 7]
        assert abs(log_k - math.log(210)) <= 1e-12

    def test_exclusion(self):
        primes, log_k = primorial_k(19, excluded_prime=7)
        assert primes.tolist() == [2, 3, 5, 11, 13, 17, 19]
        assert abs(log_k - math.log(2 * 3 * 5 * 11 * 13 * 17 * 19)) <= 1e-12

    def test_chebyshev_scale_at_1000(self, oracle_primes_2000):
        primes, log_k = primorial_k(1000)
        oracle = math.fsum(math.log(p) for p in oracle_primes_2000 if p <= 1000)
        assert abs(log_k - oracle) <= 1e-9
        assert 0.9 * 1000 < log_k < 1.1 * 1000

    def test_domain(self):
        with pytest.raises(ValueError):
            primorial_k(1.5)


class TestCountAd:
    def test_examples(self):
        k6 = factorize(6)
        assert count_A_d(20, 20, k6, 1) == 24  # 8 primes x {6, 12, 18}
        assert count_A_d(20, 20, k6, 2) == 21
        assert count_A_d(20, 20, k6, 6) == 21  # {7, 13, 19} x 7 coprime m

    def test_brute_pair_oracle(self, oracle_primes_2000):
        for k in (2, 6, 30):
            fk = factorize(k)
            for d in divisors(fk).divisors:
                for x, y in ((20, 20), (50, 30), (37, 50)):
                    expected = brute_pair_count_A_d(x, y, k, d, oracle_primes_2000)
                    assert count_A_d(x, y, fk, d) == expected, (x, y, k, d)

    def test_floor_form_lower_bound(self, oracle_primes_2000):
        # the coarser m-count floor(x/k) phi(d) never exceeds the exact count
        for k in (6, 30, 210):
            fk = factorize(k)
            for d in divisors(fk).divisors:
                for x in (100, 500, 2000):
                    coarse = primes_in_ap(x, d, 1 % d) * (x // k) * euler_phi(factorize(d))
                    assert count_A_d(x, x, fk, d) >= coarse

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            count_A_d(20, 20, factorize(6), 4)

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            count_A_d(20, 20, factorize(12), 2)


class TestTotalPairs:
    def test_all_pairs_for_k_one(self):
        assert total_pairs_A(20, factorize(1)) == 20 * 8

    def test_brute_oracle(self, oracle_primes_2000):
        for k in (2, 6, 30, 210):
            for x in (20, 100, 333):
                expected = brute_pair_count_A(x, k, oracle_primes_2000)
                assert total_pairs_A(x, factorize(k)) == expected, (x, k)

    def test_domination_by_small_divisor_counts(self, oracle_primes_2000):
        for k in (6, 30, 210):
            fk = factorize(k)
            for x in (20, 100, 500):
                small = [d for d in divisors(fk).divisors if d * d <= k]
                total = total_pairs_A(x, fk)
                assert sum(count_A_d(x, x, fk, d) for d in small) <= total

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError):
            total_pairs_A(10**6, factorize(6))


class TestCountRepresentations:
    def test_examples(self):
        assert count_representations(12, 12, 13) == 5
        assert count_representations(12, 2, 13) == 2  # d in {6, 12}

    def test_bridging_identity_small(self):
        for n in range(1, 501):
            assert count_representations(n, n, n + 1) == omega_star(n)

    def test_caps_bind(self):
        assert count_representations(12, 12, 12) == 4  # p = 13 excluded
        assert count_representations(12, 1, 13) == 1  # only m = 1, d = 12


class TestChampion:
    def test_small_exhaustive(self):
        table = omega_star_table(300)
        for k in (1, 2, 6):
            rec = champion_search(300, factorize(k), table=table)
            mults = range(k, 301, k)
            best = max(int(table.counts[n]) for n in mults)
            first = next(n for n in mults if table.counts[n] == best)
            assert (rec.n, rec.omega_star_n) == (first, best)
            assert rec.omega_star_n == omega_star(rec.n)

    def test_hundred(self):
        rec = champion_search(100, factorize(1))
        assert rec.omega_star_n == 8
        assert rec.n == 60  # smallest of the tied record-holders {60, 72}

    def test_only_multiple(self):
        rec = champion_search(10, factorize(7))
        assert (rec.n, rec.omega_star_n) == (7, 1)
        assert rec.score == 0.0  # log(1) = 0

    def test_score_normalization(self):
        rec = champion_search(100, factorize(1))
        expected = math.log(8) * math.log(math.log(60)) / math.log(60)
        assert abs(rec.score - expected) <= 1e-15

    def test_k_beyond_range(self):
        with pytest.raises(ValueError):
            champion_search(10, factorize(11))


class TestSampleDivisor:
    def test_deterministic_given_seed(self, grh_1100):
        a = sample_divisor(grh_1100, 42)
        b = sample_divisor(grh_1100, 42)
        assert np.array_equal(a.indicators, b.indicators)
        assert a.log_d == b.log_d and a.big_omega_d == b.big_omega_d

    def test_sample_fields_consistent(self, grh_1100):
        s = sample_divisor(grh_1100, 2024)
        assert s.big_omega_d == int(s.indicators.sum())
        assert abs(s.log_d - float(grh_1100.log_primes[s.indicators].sum())) <= 1e-9
        in_d, in_dp = accept_flags(s, grh_1100)
        assert in_d == s.in_window_logd
        assert in_dp == (s.in_window_logd and s.in_window_omega)

    def test_degenerate_rho_zero(self, grh_111):
        p0 = dataclasses.replace(grh_111, rho=0.0)
        s = sample_divisor(p0, 5)
        assert s.big_omega_d == 0 and s.log_d == 0.0

    def test_degenerate_rho_one(self, grh_111):
        p1 = dataclasses.replace(grh_111, rho=1.0)
        s = sample_divisor(p1, 5)
        assert s.big_omega_d == p1.R
        assert abs(s.log_d - p1.log_k) <= 1e-9


class TestAcceptFlags:
    def test_center_of_window(self, grh_1100):
        s = sample_divisor(grh_1100, 1)
        centered = dataclasses.replace(s, log_d=grh_1100.target_log_d)
        assert accept_flags(centered, grh_1100)[0]

    def test_three_window_deviation_fails(self, grh_1100):
        dev = 3 * grh_1100.L / math.log(grh_1100.L) ** 2
        s = dataclasses.replace(sample_divisor(grh_1100, 1), log_d=grh_1100.target_log_d + dev)
        assert not accept_flags(s, grh_1100)[0]

    def test_window_strictness_and_omega_inclusivity(self, grh_1100):
        p = grh_1100
        base = sample_divisor(p, 1)
        at_edge = dataclasses.replace(base, log_d=p.target_log_d + p.window_log_d)
        assert not accept_flags(at_edge, p)[0]  # strict <
        inside_omega = dataclasses.replace(
            base,
            log_d=p.target_log_d,
            big_omega_d=int(math.floor(p.expected_omega + p.window_omega)),
        )
        assert accept_flags(inside_omega, p)[1]  # inclusive <=
        outside_omega = dataclasses.replace(
            inside_omega, big_omega_d=int(math.ceil(p.expected_omega + p.window_omega)) + 1
        )
        assert not accept_flags(outside_omega, p)[1]

    def test_dprime_contained_in_d(self, grh_1100):
        for i in range(500):
            s = sample_divisor(grh_1100, rng.substream_seed(77, i))
            in_d, in_dp = accept_flags(s, grh_1100)
            assert not in_dp or in_d

    def test_every_accepted_d_obeys_size_estimate(self, grh_1100):
        p = grh_1100
        for i in range(500):
            s = sample_divisor(p, rng.substream_seed(3, i))
            if accept_flags(s, p)[0]:
                assert abs(s.log_d - (0.5 - p.epsilon) * p.log_x) < p.window_log_d


class TestSampleStats:
    def test_bulk_matches_pointwise_samples(self, grh_1100):
        stats = sample_stats(grh_1100, 300, seed=11)
        n_logd = n_omega = n_dp = 0
        total_logd = 0.0
        for i in range(300):
            s = sample_divisor(grh_1100, rng.substream_seed(11, i))
            in_d, in_dp = accept_flags(s, grh_1100)
            n_logd += in_d
            n_omega += s.in_window_omega
            n_dp += in_dp
            total_logd += s.log_d
        assert stats.n_in_logd == n_logd
        assert stats.n_in_omega == n_omega
        assert stats.n_in_dprime == n_dp
        assert abs(stats.sum_log_d - total_logd) <= 1e-7

    def test_worker_count_does_not_change_results(self, grh_1100):
        one = sample_stats(grh_1100, 20000, seed=5, workers=1)
        four = sample_stats(grh_1100, 20000, seed=5, workers=4, chunk_size=1024)
        assert one.n_in_dprime == four.n_in_dprime
        assert one.n_in_logd == four.n_in_logd
        assert one.sum_omega == four.sum_omega
        assert abs(one.sum_log_d - four.sum_log_d) <= 1e-6

    def test_thread_count_is_clamped(self, grh_1100, monkeypatch):
        # A fake executor records max_workers and maps serially, so an
        # oversized worker request can never start that many threads.
        requested = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(construction, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(construction.os, "cpu_count", lambda: 8)
        huge = sample_stats(grh_1100, 300, seed=5, workers=10**6, chunk_size=100)
        monkeypatch.setattr(construction.os, "cpu_count", lambda: 2)
        sample_stats(grh_1100, 300, seed=5, workers=10**6, chunk_size=100)
        assert requested == [3, 2]  # 3 chunks, then 2 cores
        one = sample_stats(grh_1100, 300, seed=5, workers=1, chunk_size=100)
        assert requested == [3, 2]
        assert huge == one

    def test_sampling_mean_concentrates(self, grh_1100):
        mean, var = log_d_moments(grh_1100)
        trials = 10**5
        stats = sample_stats(grh_1100, trials, seed=20250809)
        assert abs(stats.mean_log_d - mean) <= 4.0 * math.sqrt(var / trials)

    def test_empirical_rates_against_distribution_oracles(self, grh_1100):
        trials = 10**5
        stats = sample_stats(grh_1100, trials, seed=20250809)
        bracket = grh_acceptance_bracket(1100.0)
        p = 0.5 * (bracket.in_logd_lo + bracket.in_logd_hi)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert bracket.lo - 4 * sigma <= stats.acceptance <= bracket.hi + 4 * sigma
        in_logd = 1.0 - stats.fail_rate_logd
        assert bracket.in_logd_lo - 4 * sigma <= in_logd <= bracket.in_logd_hi + 4 * sigma
        p_fail_omega = bracket.fail_omega
        assert stats.fail_rate_omega <= p_fail_omega + 4 * math.sqrt(max(p_fail_omega, 1e-9) / trials)

    def test_chebyshev_bounds_cover_empirical_rates(self, grh_1100):
        trials = 10**5
        stats = sample_stats(grh_1100, trials, seed=20250809)
        b_logd, b_omega = chebyshev_bounds(grh_1100)
        s_logd = math.sqrt(b_logd * (1 - min(b_logd, 1.0)) / trials)
        s_omega = math.sqrt(b_omega * (1 - b_omega) / trials)
        assert stats.fail_rate_logd <= b_logd + 3 * s_logd
        assert stats.fail_rate_omega <= b_omega + 3 * s_omega

    def test_unconditional_acceptance_is_high(self):
        p = build_params(1100.0, mode="unconditional")
        stats = sample_stats(p, 2 * 10**4, seed=4)
        assert stats.acceptance >= 0.99


class TestChebyshevBounds:
    def test_omega_bound_cap(self, grh_1100, grh_111, uncond_111):
        for p in (grh_1100, grh_111, uncond_111):
            _, b_omega = chebyshev_bounds(p)
            assert b_omega <= 0.25 * p.R ** (-1.0 / 3.0) + 1e-15

    def test_monotone_in_rho_variance(self, grh_111):
        quarter = dataclasses.replace(grh_111, rho=0.25)
        half = dataclasses.replace(grh_111, rho=0.5)
        for a, b in zip(chebyshev_bounds(quarter), chebyshev_bounds(half)):
            assert a <= b

    def test_variance_formula(self, grh_1100):
        mean, var = log_d_moments(grh_1100)
        p = grh_1100
        assert abs(mean - p.rho * p.log_k) <= 1e-9
        expected_var = p.rho * (1 - p.rho) * float((p.log_primes**2).sum())
        assert abs(var - expected_var) <= 1e-9


class TestEntropyBound:
    def test_half_rho_is_R_log2(self, grh_111):
        half = dataclasses.replace(grh_111, rho=0.5)
        assert abs(entropy_lower_bound(half) - grh_111.R * math.log(2)) <= 1e-12

    def test_vanishes_as_rho_vanishes(self, grh_111):
        values = [
            entropy_lower_bound(dataclasses.replace(grh_111, rho=r))
            for r in (0.25, 0.1, 0.01, 0.001)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.05 * grh_111.R

    def test_scale_against_limit_constant(self):
        # R H(rho) in units of C log x / log log x creeps toward 1 from below
        from omegastar.constants import grh_constants

        C = grh_constants().C
        ratios = []
        for log_x in (10**4, 10**6):
            p = build_params(float(log_x), mode="grh")
            ratios.append(entropy_lower_bound(p) / (C * log_x / math.log(log_x)))
        assert 0.5 < ratios[0] < ratios[1] < 1.0


class TestEnumerateExact:
    def test_uniform_rho_counts_exactly(self, grh_111):
        half = dataclasses.replace(grh_111, rho=0.5)
        e = enumerate_D_exact(half)
        assert e.prob_Dprime == e.size_Dprime * 0.5**half.R
        assert e.max_mass == 0.5**half.R

    def test_mass_identity_every_instance(self, grh_111, uncond_111):
        for p in (grh_111, uncond_111, dataclasses.replace(grh_111, rho=0.3)):
            e = enumerate_D_exact(p)
            assert e.size_Dprime >= e.prob_Dprime / e.max_mass

    def test_frozen_R24_grh_instance(self, grh_111):
        e = enumerate_D_exact(grh_111)
        assert (e.size_D, e.size_Dprime) == (12372, 12372)
        assert abs(e.prob_Dprime - 0.9871733620458616) <= 1e-12
        assert abs(e.max_mass - (1 - grh_111.rho) ** grh_111.R) <= 1e-15

    def test_monte_carlo_frequency_matches(self, grh_111):
        e = enumerate_D_exact(grh_111)
        trials = 2 * 10**4
        stats = sample_stats(grh_111, trials, seed=600)
        sigma = math.sqrt(e.prob_Dprime * (1 - e.prob_Dprime) / trials)
        assert abs(stats.acceptance - e.prob_Dprime) <= 3 * sigma

    def test_resource_error_beyond_24(self, grh_1100):
        with pytest.raises(ResourceLimitError):
            enumerate_D_exact(grh_1100)


class TestAcceptanceBracketOracle:
    def test_brackets_exact_enumeration_at_R24(self, grh_111):
        bracket = grh_acceptance_bracket(111.0)
        exact = enumerate_D_exact(grh_111).prob_Dprime
        assert bracket.lo <= exact <= bracket.hi
        assert bracket.hi - bracket.lo <= 1e-4

    def test_narrow_at_1100(self):
        bracket = grh_acceptance_bracket(1100.0)
        assert 0.0 < bracket.hi - bracket.lo <= 1e-3


class TestHarman:
    def test_single_prime_divisor_fails(self, grh_111):
        for idx in (0, grh_111.R - 1):
            ind = np.zeros(grh_111.R, dtype=bool)
            ind[idx] = True
            s = sample_divisor(grh_111, 1)
            s = dataclasses.replace(
                s,
                indicators=ind,
                log_d=float(grh_111.log_primes[idx]),
                big_omega_d=1,
            )
            assert not harman_smoothness_check(s, grh_111)

    def test_smooth_ratio_passes(self, grh_1100):
        s = sample_divisor(grh_1100, 9)
        # top prime log is at most log L ~ 6.93 while accepted log d ~ 134
        ratio = math.log(float(grh_1100.k_primes[-1])) / grh_1100.target_log_d
        assert ratio < grh_1100.delta_smooth
        if s.big_omega_d and accept_flags(s, grh_1100)[0]:
            assert harman_smoothness_check(s, grh_1100)

    def test_synthetic_ratio_below_threshold(self, grh_111):
        # log(max prime) / log d = 0.05 passes a 0.1 threshold
        ind = np.zeros(grh_111.R, dtype=bool)
        ind[-1] = True
        top_log = float(grh_111.log_primes[-1])
        s = dataclasses.replace(
            sample_divisor(grh_111, 1),
            indicators=ind,
            log_d=top_log / 0.05,
            big_omega_d=1,
        )
        assert harman_smoothness_check(s, grh_111)
        tight = dataclasses.replace(s, log_d=top_log / 0.2)  # ratio 0.2 > 0.1
        assert not harman_smoothness_check(tight, grh_111)

    def test_empty_divisor_vacuous(self, grh_111):
        p0 = dataclasses.replace(grh_111, rho=0.0)
        assert harman_smoothness_check(sample_divisor(p0, 1), p0)

    def test_accepted_fraction_reported(self, grh_1100):
        hits = total = 0
        for i in range(2000):
            s = sample_divisor(grh_1100, rng.substream_seed(31, i))
            if accept_flags(s, grh_1100)[1]:
                total += 1
                hits += harman_smoothness_check(s, grh_1100)
        assert total > 0
        fraction = hits / total
        assert 0.0 <= fraction <= 1.0
        print(f"harman-smooth fraction among accepted samples: {fraction:.4f}")


class TestPairCountReport:
    def test_sum_bounded_by_total(self, oracle_primes_2000):
        for k in (6, 30, 210):
            rep = pair_count_report(200, factorize(k))
            listed = [d for d, _ in rep.per_d]
            assert listed == [d for d in divisors(factorize(k)).divisors if d * d <= k]
            assert sum(a for _, a in rep.per_d) <= rep.total_A
            assert rep.total_A == brute_pair_count_A(200, k, oracle_primes_2000)
