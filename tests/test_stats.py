import statistics
import warnings

import numpy as np
import pytest

from rumourlab.stats import Z99, make_rng, mix64, uniforms

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def seeds_with_edges(count: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**64, size=count, dtype=np.uint64, endpoint=False)
    seeds[:len(EDGE_SEEDS)] = EDGE_SEEDS
    return seeds


class TestMix64Arrays:
    @pytest.mark.parametrize("prefix", [(), (0,), (404, 7), (2**64 - 1, 3)])
    def test_array_part_equals_int_parts(self, prefix):
        parts = seeds_with_edges(2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the uint64 arithmetic wraps silently
            got = mix64(*prefix, parts)
            then = mix64(got, 1)
        assert got.dtype == np.uint64
        assert got.tolist() == [mix64(*prefix, t) for t in parts.tolist()]
        assert then.tolist() == [mix64(s, 1) for s in got.tolist()]


class TestUniforms:
    """uniforms is pinned to NumPy's own Generator(PCG64(seed)) stream; a NumPy
    release that changes that stream (NEP 19 does not freeze it) fails here."""

    def test_ten_thousand_seeds(self):
        seeds = seeds_with_edges(10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = uniforms(seeds, 16)
        assert got.shape == (10_000, 16) and got.dtype == np.float64
        for row, s in zip(got, seeds.tolist()):
            want = np.random.Generator(np.random.PCG64(s)).random(16)
            assert row.tobytes() == want.tobytes(), s

    @pytest.mark.parametrize("batch", [1, 2, 3, 7, 16, 33, 64])
    def test_batch_sizes_and_counts(self, batch):
        seeds = seeds_with_edges(batch, seed=batch) if batch >= len(EDGE_SEEDS) else \
            np.array(EDGE_SEEDS[-batch:], dtype=np.uint64)
        for count in (1, 2, 3, 5, 8, 31, 64, 100):
            got = uniforms(seeds, count)
            assert got.shape == (batch, count)
            for row, s in zip(got, seeds.tolist()):
                want = np.random.Generator(np.random.PCG64(s)).random(count)
                assert row.tobytes() == want.tobytes(), (s, count)

    def test_make_rng_streams(self):
        # the lattice draws make_rng(seed, stream).random(count) for a batch of seeds
        trial_seeds = mix64(5, np.arange(200, dtype=np.uint64))
        got = uniforms(mix64(trial_seeds, 1), 12)
        for row, s in zip(got, trial_seeds.tolist()):
            assert row.tobytes() == make_rng(s, 1).random(12).tobytes()

    def test_no_draws(self):
        assert uniforms(np.array([3, 4], dtype=np.uint64), 0).shape == (2, 0)
        assert uniforms(np.array([], dtype=np.uint64), 5).shape == (0, 5)


def test_z99_is_the_normal_quantile():
    # a literal, so that stats need not import statistics; every Wilson and
    # mean interval keeps its bytes only while it is this float exactly
    assert Z99 == statistics.NormalDist().inv_cdf(0.995)
