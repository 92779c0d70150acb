import numpy as np

from omegastar import rng

from oracles import mix64, substream_seed

_MASK = (1 << 64) - 1


def _scalar_stream(seed: int, n: int) -> list[int]:
    """First n raw outputs of the stream for `seed`, in pure Python integers."""
    return [mix64((seed + i * rng.GAMMA) & _MASK) for i in range(1, n + 1)]


def _scalar_draws(seed: int, n: int) -> list[int]:
    """First n 53-bit draws of the stream for `seed`, in pure Python integers."""
    return [z >> 11 for z in _scalar_stream(seed, n)]


def _scalar_units(seed: int, n: int) -> list[float]:
    return [(z >> 11) * 2.0**-53 for z in _scalar_stream(seed, n)]


def _fresh_block(seeds: np.ndarray, n: int) -> np.ndarray:
    """unit_block into a fresh `out` and `scratch`."""
    out = np.empty((seeds.size, n), dtype=np.uint64)
    return rng.unit_block(seeds, n, out=out, scratch=np.empty_like(out))


def _unit_row(seed: int, n: int) -> np.ndarray:
    """The one-seed stream as the chunk kernel draws it: row 0 of a one-row
    unit_block."""
    return _fresh_block(np.array([seed], dtype=np.uint64), n)[0]


def _assert_words(words: np.ndarray, seed: int, n: int) -> None:
    """Each word is the integer mix64(seed + j * GAMMA); its draw word >> 11
    is the pinned 53-bit draw, and that times 2^-53 the unit float."""
    assert words.dtype == np.uint64
    assert words.tolist() == _scalar_stream(seed, n)
    draws = words >> np.uint64(11)
    assert draws.tolist() == _scalar_draws(seed, n)
    assert (draws * 2.0**-53).tolist() == _scalar_units(seed, n)


class TestSplitMix64:
    def test_vector_matches_scalar(self):
        # Raw outputs i = 1 .. n are substreams 1 .. n of the seed.
        for seed in (0, 1, 42, 2**63, 2**64 - 1):
            assert rng.substream_seeds(seed, 1, 64).tolist() == _scalar_stream(seed, 64)
            _assert_words(_unit_row(seed, 64), seed, 64)

    def test_known_reference_values(self):
        # SplitMix64 reference outputs: the state advances by GAMMA before
        # each output, which is the mix64 finalizer of the state.
        assert rng.substream_seeds(0, 1, 3).tolist() == [
            mix64(rng.GAMMA),
            mix64((2 * rng.GAMMA) & _MASK),
            mix64((3 * rng.GAMMA) & _MASK),
        ]
        assert mix64(rng.GAMMA) == 0xE220A8397B1DCDAF
        # regression pin: the published first outputs for seed 1234567
        expected = [6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431]
        assert _scalar_stream(1234567, 4) == expected
        assert rng.substream_seeds(1234567, 1, 4).tolist() == expected
        row = _unit_row(1234567, 4)
        assert row.tolist() == expected
        draws = row >> np.uint64(11)
        assert draws.tolist() == [z >> 11 for z in expected]
        assert (draws * 2.0**-53).tolist() == [(z >> 11) * 2.0**-53 for z in expected]

    def test_determinism(self):
        seeds = rng.substream_seeds(42, 0, 8)
        assert np.array_equal(rng.substream_seeds(42, 0, 8), seeds)
        assert np.array_equal(_unit_row(42, 1000), _unit_row(42, 1000))
        assert np.array_equal(_fresh_block(seeds, 100), _fresh_block(seeds, 100))

    def test_unit_range_and_mean(self):
        words = _unit_row(7, 10**5)
        assert words.dtype == np.uint64
        draws = words >> np.uint64(11)
        assert 0 <= int(draws.min()) and int(draws.max()) < 2**53
        u = draws * 2.0**-53
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0
        assert abs(float(u.mean()) - 0.5) < 0.01

    def test_substream_block_matches_per_seed_streams(self):
        seeds = rng.substream_seeds(99, 0, 16)
        block = _fresh_block(seeds, 32)
        for i in range(16):
            assert int(seeds[i]) == substream_seed(99, i)
            assert np.array_equal(block[i], _unit_row(int(seeds[i]), 32))
            _assert_words(block[i], int(seeds[i]), 32)

    def test_block_into_out_matches_fresh_block(self):
        seeds = rng.substream_seeds(5, 100, 9)
        out = np.empty((9, 17), dtype=np.uint64)
        block = rng.unit_block(seeds, 17, out=out, scratch=np.empty_like(out))
        assert np.shares_memory(block, out)
        assert np.array_equal(block, _fresh_block(seeds, 17))
        # A caller's scratch only takes the mixing's shifted copies: stale
        # words in it, or in out, do not reach the result.
        out.fill(2**64 - 1)
        scratch = np.full((9, 17), 12345, dtype=np.uint64)
        block = rng.unit_block(seeds, 17, out=out, scratch=scratch)
        assert np.shares_memory(block, out) and not np.shares_memory(block, scratch)
        assert np.array_equal(block, _fresh_block(seeds, 17))

    def test_inputs_are_only_read(self):
        # The mixing runs in place, so it must never reach a caller's array.
        seeds = rng.substream_seeds(99, 0, 16)
        kept = seeds.copy()
        _fresh_block(seeds, 32)
        _fresh_block(seeds, 1)
        _fresh_block(seeds[3:9], 5)
        rng.unit_block(seeds[3:9], 5, out=np.empty((6, 5), dtype=np.uint64), scratch=np.empty((6, 5), dtype=np.uint64))
        assert np.array_equal(seeds, kept)
        assert np.array_equal(rng.substream_seeds(99, 0, 16), kept)
        one = np.array([7], dtype=np.uint64)
        _fresh_block(one, 64)
        assert one.tolist() == [7]
        _assert_words(_unit_row(7, 64), 7, 64)

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(rng.substream_seeds(1, 1, 16), rng.substream_seeds(2, 1, 16))
        assert not np.array_equal(_unit_row(1, 16), _unit_row(2, 16))
