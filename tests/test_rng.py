import numpy as np

from omegastar import rng


def _scalar_stream(seed: int, n: int) -> list[int]:
    return [rng.mix64((seed + i * rng.GAMMA) & ((1 << 64) - 1)) for i in range(1, n + 1)]


class TestSplitMix64:
    def test_vector_matches_scalar(self):
        for seed in (0, 1, 42, 2**63, 2**64 - 1):
            vec = rng.stream(seed, 64).tolist()
            assert vec == _scalar_stream(seed, 64)

    def test_known_reference_values(self):
        # SplitMix64 reference outputs for seed 0 (state advances by GAMMA
        # before each output, mix64 finalizer)
        assert rng.stream(0, 3).tolist() == [
            rng.mix64(rng.GAMMA),
            rng.mix64((2 * rng.GAMMA) & ((1 << 64) - 1)),
            rng.mix64((3 * rng.GAMMA) & ((1 << 64) - 1)),
        ]
        # regression pin: first output for seed 1234567
        assert rng.stream(1234567, 1)[0] == rng.mix64((1234567 + rng.GAMMA) & ((1 << 64) - 1))

    def test_determinism(self):
        a = rng.unit_stream(42, 1000)
        b = rng.unit_stream(42, 1000)
        assert np.array_equal(a, b)

    def test_unit_range_and_mean(self):
        u = rng.unit_stream(7, 10**5)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0
        assert abs(float(u.mean()) - 0.5) < 0.01

    def test_substream_block_matches_per_seed_streams(self):
        seeds = rng.substream_seeds(99, 0, 16)
        block = rng.unit_block(seeds, 32)
        for i in range(16):
            row = rng.unit_stream(int(seeds[i]), 32)
            assert np.array_equal(block[i], row)
            assert int(seeds[i]) == rng.substream_seed(99, i)

    def test_block_into_out_matches_fresh_block(self):
        seeds = rng.substream_seeds(5, 100, 9)
        out = np.empty((9, 17), dtype=np.uint64)
        block = rng.unit_block(seeds, 17, out=out)
        assert np.shares_memory(block, out)
        assert np.array_equal(block, rng.unit_block(seeds, 17))

    def test_inputs_are_only_read(self):
        # The mixing runs in place, so it must never reach a caller's array.
        seeds = rng.substream_seeds(99, 0, 16)
        kept = seeds.copy()
        rng.unit_block(seeds, 32)
        rng.unit_block(seeds, 1)
        rng.unit_block(seeds[3:9], 5, out=np.empty((6, 5), dtype=np.uint64))
        assert np.array_equal(seeds, kept)
        assert np.array_equal(rng.substream_seeds(99, 0, 16), kept)
        raw = rng.stream(7, 64)
        assert raw.tolist() == _scalar_stream(7, 64)
        rng.to_unit(raw)
        assert raw.tolist() == _scalar_stream(7, 64)

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(rng.stream(1, 16), rng.stream(2, 16))
