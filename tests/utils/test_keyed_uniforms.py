"""Tests for the counter-based per-key uniform source ``keyed_uniforms``."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy import stats

from repro.utils.rng import (
    cursor_uniforms,
    keyed_uniforms,
    root_seed,
    stream_keys,
    stream_uniforms,
)

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def splitmix_finalizer(z: int) -> int:
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def scalar_block(seed: int, salt: int, key: int, rows: int, width: int) -> np.ndarray:
    """The documented formula, one value at a time in Python ints."""
    stream = splitmix_finalizer(
        splitmix_finalizer(seed + salt * GOLDEN) ^ splitmix_finalizer(key + GOLDEN)
    )
    values = [
        (splitmix_finalizer(stream + (i + 1) * GOLDEN) >> 11) * 2.0**-53
        for i in range(rows * width)
    ]
    return np.asarray(values).reshape(rows, width)


class TestFormula:
    def test_matches_scalar_splitmix64(self):
        block = keyed_uniforms(7, 29, [0, 41, 2**40], 3, 5)
        for b, key in enumerate([0, 41, 2**40]):
            np.testing.assert_array_equal(
                block[:, 5 * b : 5 * (b + 1)], scalar_block(7, 29, key, 3, 5)
            )

    def test_shape_and_dtype(self):
        block = keyed_uniforms(1, 2, np.arange(4, dtype=np.int64), 6, 3)
        assert block.shape == (6, 12) and block.dtype == np.float64
        assert keyed_uniforms(1, 2, [], 6, 3).shape == (6, 0)
        assert keyed_uniforms(1, 2, [5, 6], 0, 3).shape == (0, 6)

    def test_large_and_negative_seeds_wrap_modulo_2_64(self):
        np.testing.assert_array_equal(
            keyed_uniforms(2**64 + 9, 3, [4], 2, 2), keyed_uniforms(9, 3, [4], 2, 2)
        )
        np.testing.assert_array_equal(
            keyed_uniforms(-1, 3, [4], 2, 2), keyed_uniforms(MASK, 3, [4], 2, 2)
        )

    def test_any_entry_drawn_alone_equals_the_block(self):
        """``stream_uniforms`` reads entry (t, b·width + r) as value
        t·width + r of key b's stream, in any order and with repeats."""
        keys, rows, width = [9, 0, 2**33], 4, 6
        block = keyed_uniforms(5, 31, keys, rows, width)
        streams = stream_keys(5, 31, keys)
        rng = np.random.default_rng(0)
        b = rng.integers(0, len(keys), size=50)
        t = rng.integers(0, rows, size=50)
        r = rng.integers(0, width, size=50)
        drawn = stream_uniforms(streams[b], t * width + r)
        np.testing.assert_array_equal(drawn, block[t, b * width + r])


class TestPurity:
    @pytest.mark.parametrize("order", list(itertools.permutations([3, 17, 250])))
    def test_block_independent_of_the_other_keys(self, order):
        rows, width = 4, 6
        fused = keyed_uniforms(11, 100, list(order), rows, width)
        singles = np.concatenate(
            [keyed_uniforms(11, 100, [key], rows, width) for key in order], axis=1
        )
        np.testing.assert_array_equal(fused, singles)

    def test_key_dtype_does_not_matter(self):
        keys = [0, 5, 6000]
        reference = keyed_uniforms(3, 31, keys, 2, 4)
        for dtype in (np.int64, np.int32, np.uint64, np.uint32):
            np.testing.assert_array_equal(
                keyed_uniforms(3, 31, np.asarray(keys, dtype=dtype), 2, 4), reference
            )


class TestSensitivity:
    def test_seed_salt_and_key_each_change_the_block(self):
        base = keyed_uniforms(5, 29, [8], 3, 4)
        for changed in (
            keyed_uniforms(6, 29, [8], 3, 4),
            keyed_uniforms(5, 31, [8], 3, 4),
            keyed_uniforms(5, 29, [9], 3, 4),
        ):
            assert not np.any(changed == base)

    def test_no_two_blocks_of_a_large_call_are_equal(self):
        rows, width = 2, 3
        keys = np.arange(10_000)
        block = keyed_uniforms(123, 10, keys, rows, width)
        per_key = block.reshape(rows, keys.size, width).transpose(1, 0, 2)
        distinct = np.unique(per_key.reshape(keys.size, rows * width), axis=0)
        assert distinct.shape[0] == keys.size


class TestDistribution:
    def test_values_in_unit_interval(self):
        block = keyed_uniforms(2024, 7, np.arange(2_000), 10, 10)
        assert block.min() >= 0.0 and block.max() < 1.0

    def test_uniform_by_ks_and_mean(self):
        block = keyed_uniforms(77, 100, np.arange(500), 10, 20).ravel()
        assert stats.kstest(block, "uniform").pvalue > 1e-3
        # 10^5 draws: the mean's standard error is 1/sqrt(12·10^5) ≈ 9e-4.
        assert abs(block.mean() - 0.5) < 5e-3

    def test_adjacent_keys_uncorrelated(self):
        block = keyed_uniforms(1, 2, np.arange(2_000), 1, 50)
        per_key = block.reshape(2_000, 50)
        correlation = np.corrcoef(per_key[:-1].ravel(), per_key[1:].ravel())[0, 1]
        assert abs(correlation) < 0.02


class TestRootSeed:
    def test_int_is_its_own_root(self):
        assert root_seed(42) == 42

    def test_generator_gives_one_draw(self):
        assert root_seed(np.random.default_rng(3)) == root_seed(np.random.default_rng(3))

    def test_none_is_fresh(self):
        assert root_seed(None) != root_seed(None)


class TestFreshEntropy:
    """``seed=None`` draws one root per estimator or build call."""

    @staticmethod
    def recorded_seeds(monkeypatch, module, run):
        seeds = []

        def keys_of(seed, salt, keys):
            seeds.append(seed)
            return stream_keys(seed, salt, keys)

        monkeypatch.setattr(module, "stream_keys", keys_of)
        run()
        monkeypatch.undo()
        return seeds

    def test_two_estimators_get_different_draws(self, monkeypatch):
        import repro.core.montecarlo as montecarlo
        import repro.core.walks as walks
        from repro.core.config import SimRankConfig
        from repro.graph.generators import copying_web_graph

        graph = copying_web_graph(60, out_degree=3, seed=2)
        config = SimRankConfig(T=5, r_pair=20)
        draws = []

        def draw(cursors):
            values = cursor_uniforms(cursors)
            draws[-1].append(values)
            return values

        monkeypatch.setattr(walks, "cursor_uniforms", draw)
        for _ in range(2):
            draws.append([])
            estimator = montecarlo.SingleSourceEstimator(graph, 0, config, seed=None)
            estimator.estimate_batch([1, 2, 3], R=10)
            estimator.estimate_batch([4], R=10)
        first, second = (np.concatenate(values) for values in draws)
        assert first.size and second.size
        assert np.intersect1d(first, second).size == 0

    def test_one_root_per_build_call(self, monkeypatch):
        import repro.core.bounds as bounds
        import repro.core.index as index
        from repro.core.config import SimRankConfig
        from repro.graph.generators import copying_web_graph

        graph = copying_web_graph(400, out_degree=3, seed=2)
        config = SimRankConfig(T=4, index_walks=40, index_checks=3, r_gamma=200)
        for module, run in (
            (index, lambda: index.build_signatures(graph, config, seed=None)),
            (bounds, lambda: bounds.compute_gamma_rows(graph, range(graph.n), config)),
        ):
            first = self.recorded_seeds(monkeypatch, module, run)
            second = self.recorded_seeds(monkeypatch, module, run)
            assert len(first) > 1  # several blocks, one root
            assert len(set(first)) == 1 and len(set(second)) == 1
            assert first[0] != second[0]
