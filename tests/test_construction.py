import errno
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegastar import construction, rng, sieve
from omegastar.constants import GRH_U
from omegastar.construction import (
    build_params,
    champion_search,
    chebyshev_bounds,
    entropy_lower_bound,
    log_d_moments,
    pair_count_report,
    sample_stats,
)
from omegastar.arith import count_coprime_up_to, divisors
from omegastar.omega import omega_star, omega_star_table
from omegastar.sieve import ResourceLimitError, factorize

from conftest import (
    brute_pair_count_A,
    brute_pair_count_A_d,
    expand_half_table,
    grh_acceptance_bracket,
    trial_division_primes,
)
from oracles import count_representations, enumerate_D_exact, sample_divisor, substream_seed

_PRIMES_3000 = trial_division_primes(3000)


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
        assert np.array_equal(p.log_primes, np.log([q for q in oracle_primes_2000 if q <= p.L]))

    def test_invariant_wiring(self, grh_1100):
        p = grh_1100
        assert abs(p.epsilon - 1.0 / math.sqrt(math.log(1100.0))) <= 1e-15
        assert p.R == p.log_primes.size
        assert abs(p.rho - (0.5 - p.epsilon) / (p.u - p.epsilon)) <= 1e-15
        assert abs(p.window_log_d - 2 * p.L / math.log(p.L) ** 2) <= 1e-12

    @pytest.mark.parametrize("log_x", [1e6, 1e7])
    def test_memory_is_one_array_of_R(self, log_x):
        # Only the R float64 logs outlive the call.  Beside the sieve's L/16
        # bytes of bits, the peak holds the int64 primes and their logs, with
        # no float copy of the primes between them.
        build_params(log_x)
        tracemalloc.start()
        try:
            p = build_params(log_x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        words = 8 * p.R
        assert held <= 1.05 * words, (held, words)
        assert peak < 2.5 * words + p.L / 16, (peak, words)

    def test_too_small_log_x_names_constraint(self):
        with pytest.raises(ValueError, match="log_x"):
            build_params(50.0, mode="grh")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            build_params(111.0, mode="sideways")


def _small_divisors(k: int) -> list[int]:
    return [d for d in divisors(factorize(k)) if d * d <= k]


class TestCountAd:
    """The A_d column of pair_count_report, one entry per divisor d <= sqrt(k)."""

    def test_examples(self):
        # A_1: 8 primes x {6, 12, 18}; d = 6 > sqrt(6) is not listed
        assert pair_count_report(20, factorize(6)).per_d == [(1, 24), (2, 21)]

    def test_brute_pair_oracle(self, oracle_primes_2000):
        for k in (1, 2, 6, 30, 210, 2310):
            for x in (0, 1, 2, 20, 37, 50, 333):
                expected = [(d, brute_pair_count_A_d(x, x, k, d, oracle_primes_2000)) for d in _small_divisors(k)]
                assert pair_count_report(x, factorize(k)).per_d == expected, (x, k)

    def test_floor_form_lower_bound(self, oracle_primes_2000):
        # the coarser m-count floor(x/k) phi(d) never exceeds the exact count
        for k in (6, 30, 210):
            for x in (100, 500, 2000):
                for d, a_d in pair_count_report(x, factorize(k)).per_d:
                    phi_d = count_coprime_up_to(d, factorize(d))
                    p_count = sum(1 for p in oracle_primes_2000 if p <= x and (p - 1) % d == 0)
                    assert a_d >= p_count * (x // k) * phi_d, (x, k, d)

    def test_rejects_non_squarefree(self):
        # refused once, by the report that lists the A_d, not per d
        with pytest.raises(ValueError, match="k = 12 is not squarefree"):
            pair_count_report(20, factorize(12))


class TestTotalPairs:
    """The total_A of pair_count_report."""

    def test_all_pairs_for_k_one(self):
        assert pair_count_report(20, factorize(1)).total_A == 20 * 8

    def test_brute_oracle(self, oracle_primes_2000):
        for k in (1, 2, 6, 30, 210, 2310):
            for x in (0, 1, 2, 20, 100, 333):
                expected = brute_pair_count_A(x, k, oracle_primes_2000)
                assert pair_count_report(x, factorize(k)).total_A == expected, (x, k)

    def test_domination_by_small_divisor_counts(self):
        for k in (6, 30, 210):
            for x in (20, 100, 500):
                rep = pair_count_report(x, factorize(k))
                assert sum(a_d for _, a_d in rep.per_d) <= rep.total_A

    def test_x_bounded_by_ceiling_alone(self, monkeypatch, oracle_primes_2000):
        # the count is linear in pi(x): no pair-space cap below the ceiling
        monkeypatch.setenv("OMEGASTAR_CEILING", "1000")
        assert pair_count_report(1000, factorize(6)).total_A == brute_pair_count_A(1000, 6, oracle_primes_2000)
        with pytest.raises(ResourceLimitError, match="sieve limit = 1001"):
            pair_count_report(1001, factorize(6))


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
        full = expand_half_table(table)
        for k in (1, 2, 6):
            rec = champion_search(300, k, table=table)
            mults = range(k, 301, k)
            best = max(int(full[n]) for n in mults)
            first = next(n for n in mults if full[n] == best)
            assert (rec.n, rec.omega_star_n) == (first, best)
            assert rec.omega_star_n == omega_star(rec.n)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 7, 15])
    def test_against_pointwise_omega_star(self, k):
        # the record from pointwise omega*, never from a table: the first
        # multiple of k to reach the maximum, at N = k, 2k - 1, 2k and a few
        # larger N of both parities (odd k has no even multiple below 2k)
        for N in sorted({k, 2 * k - 1, 2 * k, 2 * k + 1, 97, 98, 360, 361}):
            if N < k:
                continue
            values = [(omega_star(n), -n) for n in range(k, N + 1, k)]
            best, neg_n = max(values)
            for table in (None, omega_star_table(N), omega_star_table(N + 1)):
                rec = champion_search(N, k, table=table)
                assert (rec.n, rec.omega_star_n) == (-neg_n, best), (k, N)

    def test_hundred(self):
        rec = champion_search(100, 1)
        assert rec.omega_star_n == 8
        assert rec.n == 60  # smallest of the tied record-holders {60, 72}

    def test_only_multiple(self):
        rec = champion_search(10, 7)
        assert (rec.n, rec.omega_star_n) == (7, 1)
        assert rec.score == 0.0  # log(1) = 0

    def test_score_normalization(self):
        rec = champion_search(100, 1)
        expected = math.log(8) * math.log(math.log(60)) / math.log(60)
        assert abs(rec.score - expected) <= 1e-15

    def test_k_beyond_range(self):
        with pytest.raises(ValueError):
            champion_search(10, 11)


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
        p = grh_1100
        assert s.in_window_logd == (abs(s.log_d - p.target_log_d) < p.window_log_d)
        assert s.in_window_omega == (abs(s.big_omega_d - p.expected_omega) <= p.window_omega)

    def test_degenerate_rho_zero(self, grh_111):
        p0 = grh_111._replace(rho=0.0)
        s = sample_divisor(p0, 5)
        assert s.big_omega_d == 0 and s.log_d == 0.0
        # The chunk kernel at the lower edge of its compare, limit 0.
        _check_chunk_against_samples(p0)

    def test_degenerate_rho_one(self, grh_111):
        p1 = grh_111._replace(rho=1.0)
        s = sample_divisor(p1, 5)
        assert s.big_omega_d == p1.R
        assert abs(s.log_d - p1.log_k) <= 1e-9
        # The chunk kernel at the upper edge of its compare, limit 2^64.
        _check_chunk_against_samples(p1)


class TestAcceptFlags:
    """construction._window_flags on scalars: (in the log d window of D,
    in the Omega window); D' is their conjunction."""

    def test_center_of_window(self, grh_1100):
        p = grh_1100
        assert construction._window_flags(p, p.target_log_d, 0)[0]

    def test_three_window_deviation_fails(self, grh_1100):
        p = grh_1100
        dev = 3 * p.L / math.log(p.L) ** 2
        assert not construction._window_flags(p, p.target_log_d + dev, 0)[0]

    def test_window_strictness_and_omega_inclusivity(self, grh_1100):
        p = grh_1100
        at_edge = p.target_log_d + p.window_log_d
        assert not construction._window_flags(p, at_edge, 0)[0]  # strict <
        inside = int(math.floor(p.expected_omega + p.window_omega))
        assert all(construction._window_flags(p, p.target_log_d, inside))  # inclusive <=
        outside = int(math.ceil(p.expected_omega + p.window_omega)) + 1
        in_logd, in_omega = construction._window_flags(p, p.target_log_d, outside)
        assert in_logd and not in_omega

    def test_dprime_contained_in_d(self, grh_1100):
        n_d = n_dprime = 0
        for i in range(500):
            s = sample_divisor(grh_1100, substream_seed(77, i))
            in_logd, in_omega = construction._window_flags(grh_1100, s.log_d, s.big_omega_d)
            assert (in_logd, in_omega) == (s.in_window_logd, s.in_window_omega)
            n_d += in_logd
            n_dprime += in_logd and in_omega
        assert 0 < n_dprime <= n_d

    def test_every_accepted_d_obeys_size_estimate(self, grh_1100):
        p = grh_1100
        for i in range(500):
            s = sample_divisor(p, substream_seed(3, i))
            if s.in_window_logd:
                assert abs(s.log_d - (0.5 - p.epsilon) * p.log_x) < p.window_log_d


def _check_chunk_against_samples(p):
    """_chunk_stats against sample_divisor at counts at or next to a row-block
    boundary of the chunk kernel, and at a whole chunk; with buffers made for
    the count, and with one set made for a whole chunk and reused by every
    count, as a worker reuses its own."""
    rows = construction._block_rows(p.R)
    assert rows < construction._CHUNK
    seed, start = 13, 3 * construction._CHUNK
    samples = [sample_divisor(p, substream_seed(seed, start + i)) for i in range(construction._CHUNK)]
    reused = construction._chunk_buffers(p, construction._CHUNK)
    for count in (1, rows - 1, rows, rows + 1, construction._CHUNK):
        head = samples[:count]
        expected = (
            sum(s.in_window_logd for s in head),
            sum(s.in_window_omega for s in head),
            sum(s.in_window_logd and s.in_window_omega for s in head),
            float(np.array([s.log_d for s in head]).sum()),
            sum(s.big_omega_d for s in head),
        )
        for buffers in (construction._chunk_buffers(p, count), reused):
            assert construction._chunk_stats(p, seed, start, count, buffers) == expected, count


class TestSampleStats:
    def test_bulk_matches_pointwise_samples(self, grh_1100):
        stats = sample_stats(grh_1100, 300, seed=11)
        n_logd = n_omega = n_dp = 0
        total_logd = 0.0
        for i in range(300):
            s = sample_divisor(grh_1100, substream_seed(11, i))
            n_logd += s.in_window_logd
            n_omega += s.in_window_omega
            n_dp += s.in_window_logd and s.in_window_omega
            total_logd += s.log_d
        assert stats.n_in_logd == n_logd
        assert stats.n_in_omega == n_omega
        assert stats.n_in_dprime == n_dp
        assert abs(stats.sum_log_d - total_logd) <= 1e-7

    @pytest.mark.parametrize("log_x", [111.0, 1100.0, 2000.0], ids=["R24", "R172", "R290"])
    def test_blocked_chunk_matches_scalar_samples(self, log_x):
        _check_chunk_against_samples(build_params(log_x, mode="grh"))

    def test_omega_count_past_255(self):
        # At rho = 0.95 and R = 290 nearly every row holds more than 255
        # ones, so an Omega count kept in a uint8 would wrap.
        p = build_params(2000.0, mode="grh")._replace(rho=0.95)
        assert p.R == 290
        assert sample_divisor(p, substream_seed(13, 0)).big_omega_d > 255
        _check_chunk_against_samples(p)

    def test_threshold_exact_at_boundary(self):
        # _below_limit compares a raw word z with ceil(rho 2^53) 2^11; it must
        # hold exactly when the unit float (z >> 11) 2^-53 is below rho.
        # Checked at both ends of the 2^11 words of each draw at the limit's
        # edge, which pins the limit to the word, for the rho of both modes,
        # at rho = 0 (limit 0, no word accepted), at rho = 1 and past it
        # (limit 2^64 or more, which no uint64 holds: every word accepted),
        # for rho with rho * 2^53 an integer and for random rho; also in the
        # form _chunk_stats writes over its words as 0.0 and 1.0.
        gen = np.random.default_rng(20251018)
        rhos = [build_params(lx, mode).rho for lx in (100.0, 111.0, 500.0, 1100.0) for mode in construction.MODES]
        rhos += [0.0, 1.0, 2.0]
        rhos += [j * 2.0**-53 for j in (1, 2, 2**52 - 1, 2**52, 3 * 2**50, 2**53 - 1)]
        rhos += gen.random(100).tolist()  # multiples of 2^-53
        rhos += (gen.random(100) / 3).tolist()  # bits below 2^-53
        top = 2**53 - 1
        for rho in rhos:
            t = math.ceil(Fraction(rho) * 2**53)
            ks = sorted({k for k in (0, t - 1, t, t + 1, top) if 0 <= k <= top})
            words = np.array([z for k in ks for z in (k << 11, (k << 11) | 0x7FF)], dtype=np.uint64)
            expected = (words >> np.uint64(11)) * 2.0**-53 < rho
            assert expected.tolist() == [k * 2.0**-53 < rho for k in ks for _ in (0, 1)], rho
            below = construction._below_limit(words, rho, np.empty(words.shape, dtype=bool))
            assert below.dtype == bool and np.array_equal(below, expected), rho
            terms = construction._below_limit(words, rho, out=words.view(np.float64))
            assert np.shares_memory(terms, words)
            assert np.array_equal(terms, expected.astype(np.float64)), rho
        edges = np.array([0, 2**11 - 1, 2**64 - 1], dtype=np.uint64)
        assert not construction._below_limit(edges, 0.0, np.empty(edges.shape, dtype=bool)).any()
        assert construction._below_limit(edges, 1.0, np.empty(edges.shape, dtype=bool)).all()

    def test_worker_count_does_not_change_results(self, grh_1100):
        one = sample_stats(grh_1100, 20000, seed=5, workers=1)
        four = sample_stats(grh_1100, 20000, seed=5, workers=4)
        assert one == four

    @pytest.mark.parametrize("mode", construction.MODES)
    @pytest.mark.parametrize("full_chunks", [5, 4])
    def test_scheduling_does_not_change_results(self, mode, full_chunks, monkeypatch):
        # Workers claim chunks as they free up, so which thread runs which
        # chunk varies from run to run; the index-order reduce must hide it.
        # A partial last chunk, and 6 or 5 chunks over 1 to 4 threads.
        monkeypatch.setattr(construction, "_usable_cpus", lambda: list(range(8)))
        p = build_params(1100.0, mode)
        trials = full_chunks * construction._CHUNK + 7
        one = sample_stats(p, trials, seed=17, workers=1)
        for workers in (2, 3, 4):
            assert sample_stats(p, trials, seed=17, workers=workers) == one, workers

    def test_kernels_called_through_module_attributes(self, grh_1100, monkeypatch):
        # perfbench's tracer times the chunk and its row blocks by rebinding
        # construction._chunk_stats and rng.unit_block; a sampler that
        # inlined either, or called it by another name, would escape it.
        # One _chunk_stats call per chunk, one unit_block call per row block.
        chunk_stats, unit_block = construction._chunk_stats, rng.unit_block
        blocks = {}
        current = threading.local()

        def traced_chunk(params, seed, start, count, *rest):
            assert start not in blocks, f"chunk {start} ran twice"
            current.start = start
            blocks[start] = []
            return chunk_stats(params, seed, start, count, *rest)

        def traced_block(seeds, n, **kwargs):
            blocks[current.start].append(seeds.size)
            return unit_block(seeds, n, **kwargs)

        monkeypatch.setattr(construction, "_chunk_stats", traced_chunk)
        monkeypatch.setattr(rng, "unit_block", traced_block)
        monkeypatch.setattr(construction, "_usable_cpus", lambda: list(range(2)))
        size = construction._CHUNK
        trials = 3 * size + 5
        stats = sample_stats(grh_1100, trials, seed=9, workers=2)
        rows = construction._block_rows(grh_1100.R)
        chunks = {start: min(size, trials - start) for start in range(0, trials, size)}
        assert sorted(blocks) == sorted(chunks)
        for start, count in chunks.items():
            assert len(blocks[start]) == -(-count // rows), start
            assert blocks[start] == [min(rows, count - a) for a in range(0, count, rows)], start
        monkeypatch.undo()
        assert stats == sample_stats(grh_1100, trials, seed=9, workers=1)

    @pytest.mark.parametrize("log_x", [111.0, 1100.0, 2000.0], ids=["R24", "R172", "R290"])
    def test_no_block_allocates(self, log_x):
        # With a worker's buffers, one block drawn into them and one whole
        # chunk must each raise the traced peak by less than a quarter of the
        # block matrix.  A fresh matrix per block, or a fresh mixing copy,
        # would add a whole one; what stays is numpy's fixed iterator buffers
        # and the chunk's per-sample arrays.
        p = build_params(log_x, mode="grh")
        buffers = construction._chunk_buffers(p, construction._CHUNK)
        quarter = buffers.block.nbytes // 4
        seeds = rng.substream_seeds(3, 0, buffers.block.shape[0])
        construction._chunk_stats(p, 3, 0, construction._CHUNK, buffers)
        runs = {
            "unit_block": lambda: rng.unit_block(seeds, p.R, out=buffers.block, scratch=buffers.mix),
            "_chunk_stats": lambda: construction._chunk_stats(p, 3, construction._CHUNK, construction._CHUNK, buffers),
        }
        for name, run in runs.items():
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < quarter, (name, peak, quarter)

    def test_thread_count_is_clamped(self, grh_1100, monkeypatch):
        # A fake Thread records each worker and runs it serially, so an
        # oversized worker request can never start that many threads.
        started = []

        class RecordingThread:
            def __init__(self, target):
                self.target = target

            def start(self):
                started[-1] += 1
                self.target()

            def join(self):
                pass

        # The fake runs each worker on the calling thread, so its pins are
        # recorded, not made: a real one would pin this test's thread.
        pins = []
        monkeypatch.setattr(construction, "threading", SimpleNamespace(Thread=RecordingThread, Lock=threading.Lock))
        monkeypatch.setattr(construction.os, "sched_setaffinity", lambda pid, cpus: pins.append(cpus), raising=False)
        monkeypatch.setattr(construction, "_CHUNK", 100)
        monkeypatch.setattr(construction, "_usable_cpus", lambda: list(range(8)))
        started.append(0)
        huge = sample_stats(grh_1100, 300, seed=5, workers=10**6)
        monkeypatch.setattr(construction, "_usable_cpus", lambda: list(range(2)))
        started.append(0)
        sample_stats(grh_1100, 300, seed=5, workers=10**6)
        assert started == [3, 2]  # 3 chunks, then 2 CPUs
        assert pins == [{0}, {1}, {2}, {0}, {1}]
        started.append(0)
        one = sample_stats(grh_1100, 300, seed=5, workers=1)
        assert started == [3, 2, 1]  # one worker takes the same thread path
        assert len(pins) == 5  # and a lone worker is left unpinned
        assert huge == one

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert construction._usable_cpus() == sorted(os.sched_getaffinity(0))
        monkeypatch.delattr(construction.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(construction.os, "cpu_count", lambda: 3)
        assert construction._usable_cpus() == [0, 1, 2]
        monkeypatch.setattr(construction.os, "cpu_count", lambda: None)
        assert construction._usable_cpus() == [0]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no per-thread CPU affinity here")
    def test_workers_pin_to_distinct_cpus(self, grh_111, monkeypatch):
        # Each of two workers pins its own thread to its own CPU; the
        # caller's affinity is left as it was.  A pin the OS refuses (a
        # machine with one CPU) is still recorded and changes nothing.
        # Workers are told apart by their Thread objects: the OS may hand a
        # finished thread's ident to the next one.
        setaffinity = os.sched_setaffinity
        pins = []

        def recording_pin(pid, cpus):
            pins.append((threading.current_thread(), pid, frozenset(cpus)))
            setaffinity(pid, cpus)

        monkeypatch.setattr(construction, "_usable_cpus", lambda: [0, 1])
        monkeypatch.setattr(construction.os, "sched_setaffinity", recording_pin)
        before = os.sched_getaffinity(0)
        stats = sample_stats(grh_111, 3 * construction._CHUNK, seed=4, workers=2)
        assert os.sched_getaffinity(0) == before
        threads = {thread for thread, _, _ in pins}
        assert len(threads) == 2 and threading.current_thread() not in threads
        assert sorted((pid, *cpus) for _, pid, cpus in pins) == [(0, 0), (0, 1)]
        monkeypatch.undo()
        assert stats == sample_stats(grh_111, 3 * construction._CHUNK, seed=4, workers=1)

    @pytest.mark.parametrize("pin", ["refused", "missing"])
    def test_failed_pin_changes_nothing(self, grh_111, monkeypatch, pin):
        # The pin is only a hint: where the OS refuses it, or the platform
        # has no call for it, the workers run unpinned to the same results.
        def refuse(pid, cpus):
            raise OSError(errno.EINVAL, "Invalid argument")

        trials = 3 * construction._CHUNK + 11
        one = sample_stats(grh_111, trials, seed=6, workers=1)
        monkeypatch.setattr(construction, "_usable_cpus", lambda: [0, 1])
        if pin == "refused":
            monkeypatch.setattr(construction.os, "sched_setaffinity", refuse, raising=False)
        else:
            monkeypatch.delattr(construction.os, "sched_setaffinity", raising=False)
        assert sample_stats(grh_111, trials, seed=6, workers=2) == one

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_exception_reaches_the_caller(self, grh_111, monkeypatch, workers):
        # a failing chunk is raised in the caller, as itself, once every
        # worker has stopped; no sampler thread outlives the call
        chunk_stats = construction._chunk_stats
        failure = ZeroDivisionError("chunk 2 failed")

        def failing_chunk(params, seed, start, count, buffers):
            if start == 2 * construction._CHUNK:
                raise failure
            return chunk_stats(params, seed, start, count, buffers)

        monkeypatch.setattr(construction, "_chunk_stats", failing_chunk)
        before = set(threading.enumerate())
        with pytest.raises(ZeroDivisionError) as exc:
            sample_stats(grh_111, 5 * construction._CHUNK, seed=5, workers=workers)
        assert exc.value is failure
        assert set(threading.enumerate()) == before

    def test_every_chunk_claimed_once_under_contention(self, grh_111, monkeypatch):
        # 16 threads on the machine's cores, switching every microsecond,
        # race for 40 chunks: a claim the lock failed to guard would run a
        # chunk twice or skip one
        monkeypatch.setattr(construction, "_usable_cpus", lambda: list(range(16)))
        monkeypatch.setattr(construction, "_CHUNK", 64)
        chunk_stats = construction._chunk_stats
        starts = []

        def recording_chunk(params, seed, start, count, buffers):
            starts.append(start)
            return chunk_stats(params, seed, start, count, buffers)

        monkeypatch.setattr(construction, "_chunk_stats", recording_chunk)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = sample_stats(grh_111, 40 * 64, seed=9, workers=16)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(starts) == list(range(0, 40 * 64, 64))
        starts.clear()
        assert sample_stats(grh_111, 40 * 64, seed=9, workers=1) == many

    def test_oversized_trials_refused_before_any_chunk(self, grh_111, monkeypatch):
        # 2^31 + 1 trials would list half a million chunks and submit them all.
        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran before the trial count was checked")

        monkeypatch.delenv("OMEGASTAR_CEILING", raising=False)
        monkeypatch.setattr(construction, "_chunk_stats", no_chunk)
        with pytest.raises(ResourceLimitError, match="trials"):
            sample_stats(grh_111, 2**31 + 1, seed=5, workers=2)

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
        quarter = grh_111._replace(rho=0.25)
        half = grh_111._replace(rho=0.5)
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
        half = grh_111._replace(rho=0.5)
        assert abs(entropy_lower_bound(half) - grh_111.R * math.log(2)) <= 1e-12

    def test_vanishes_as_rho_vanishes(self, grh_111):
        values = [
            entropy_lower_bound(grh_111._replace(rho=r))
            for r in (0.25, 0.1, 0.01, 0.001)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.05 * grh_111.R

    def test_scale_against_limit_constant(self):
        # R H(rho) in units of C log x / log log x creeps toward 1 from below
        from omegastar.constants import GRH_C as C

        ratios = []
        for log_x in (10**4, 10**6):
            p = build_params(float(log_x), mode="grh")
            ratios.append(entropy_lower_bound(p) / (C * log_x / math.log(log_x)))
        assert 0.5 < ratios[0] < ratios[1] < 1.0


class TestEnumerateExact:
    def test_uniform_rho_counts_exactly(self, grh_111):
        half = grh_111._replace(rho=0.5)
        e = enumerate_D_exact(half)
        assert e.prob_Dprime == e.size_Dprime * 0.5**half.R
        assert e.max_mass == 0.5**half.R

    def test_mass_identity_every_instance(self, grh_111, uncond_111):
        for p in (grh_111, uncond_111, grh_111._replace(rho=0.3)):
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


class TestPairCountReport:
    def test_sum_bounded_by_total(self, oracle_primes_2000):
        for k in (6, 30, 210):
            rep = pair_count_report(200, factorize(k))
            assert [d for d, _ in rep.per_d] == _small_divisors(k)
            assert sum(a for _, a in rep.per_d) <= rep.total_A
            assert rep.total_A == brute_pair_count_A(200, k, oracle_primes_2000)

    def test_sieves_once_per_report(self, monkeypatch):
        calls = []

        def counted(limit):
            calls.append(limit)
            return sieve.sieve_primes(limit)

        monkeypatch.setattr(construction, "sieve_primes", counted)
        rep = pair_count_report(1000, factorize(30030))
        assert calls == [1000]
        assert len(rep.per_d) == 32

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(min_value=1, max_value=30030).filter(lambda k: factorize(k).is_squarefree()),
        x=st.integers(min_value=0, max_value=3000),
    )
    @example(k=30030, x=0)
    @example(k=30030, x=1)
    @example(k=2 * 7019, x=3000)  # a prime factor above sqrt(x)
    def test_property_against_brute_oracles(self, k, x):
        rep = pair_count_report(x, factorize(k))
        assert rep.per_d == [(d, brute_pair_count_A_d(x, x, k, d, _PRIMES_3000)) for d in _small_divisors(k)]
        assert rep.total_A == brute_pair_count_A(x, k, _PRIMES_3000)
