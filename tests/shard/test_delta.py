"""Delta epoch propagation: the patch codec and the pool's patch op.

The contract under test: a worker that applies a
:func:`~repro.shard.codec.patch_engine_arrays` payload to its resident
base epoch must arrive at arrays **bit-identical** to a full
:func:`~repro.shard.codec.engine_to_arrays` export of the
coordinator's patched engine — and every patched array must be freshly
allocated (no views into the base epoch or the delta segment), so
epochs can be released independently.  Malformed patches must fail
loudly, never produce a silently-wrong index.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.dynamic import DynamicSimRankEngine, FlushStats
from repro.errors import ShardError
from repro.shard.codec import (
    delta_to_arrays,
    engine_from_arrays,
    engine_to_arrays,
    patch_engine_arrays,
)
from repro.shard.pool import ShardPool


@pytest.fixture
def delta_config(shard_config):
    """Low-T variant: blast radii stay small, so deltas are eligible.

    At T=5 a single edit's out-ball covers essentially all 120 vertices
    and :meth:`~repro.shard.pool.ShardPool.publish_delta` correctly
    falls back to a full export; T=2 keeps affected sets to a handful
    of rows, which is the regime the patch protocol exists for.
    """
    return dataclasses.replace(shard_config, T=2)


@pytest.fixture
def flushed_delta(shard_graph, shard_config):
    """(base engine, patched engine, stats) from one incremental flush."""
    dynamic = DynamicSimRankEngine(
        shard_graph, shard_config, seed=4, rebuild_fraction=1.0
    )
    base = dynamic.engine
    dynamic.add_edge(3, 90)
    dynamic.add_edge(11, 90)
    dynamic.add_edge(0, 121)  # grows the graph by two vertices
    dynamic.add_edge(122, 5)
    removable = next(iter(shard_graph.edges()))
    dynamic.remove_edge(*removable)
    stats = dynamic.flush()
    assert not stats.full_rebuild
    return base, dynamic.engine, stats


class TestPatchCodec:
    def _patch(self, base, patched, stats):
        delta = delta_to_arrays(
            patched, stats.adds, stats.removes, stats.affected, stats.old_n
        )
        _, meta = engine_to_arrays(patched, seed=4)
        return delta, meta, patch_engine_arrays(base, delta, meta)

    def test_patched_arrays_bit_identical_to_full_export(self, flushed_delta):
        base, patched, stats = flushed_delta
        _, _, arrays = self._patch(base, patched, stats)
        expected, _ = engine_to_arrays(patched, seed=4)
        assert set(arrays) == set(expected)
        for key in expected:
            np.testing.assert_array_equal(arrays[key], expected[key], err_msg=key)
            assert arrays[key].dtype == expected[key].dtype, key

    def test_patched_arrays_are_fresh_allocations(self, flushed_delta):
        base, patched, stats = flushed_delta
        delta, _, arrays = self._patch(base, patched, stats)
        base_buffers = list(base.graph.to_buffers().values())
        base_buffers += list(base.index.to_buffers().values())
        base_buffers.append(np.asarray(base.diagonal))
        base_buffers += list(delta.values())
        for key, array in arrays.items():
            for buffer in base_buffers:
                assert not np.shares_memory(array, buffer), key

    def test_rebuilt_engine_answers_identically(self, flushed_delta):
        base, patched, stats = flushed_delta
        _, meta, arrays = self._patch(base, patched, stats)
        rebuilt = engine_from_arrays(arrays, meta)
        for u in (0, 5, 50, 119, 120, 121):
            assert rebuilt.top_k(u).items == patched.top_k(u).items
        assert rebuilt.single_pair(3, 90) == patched.single_pair(3, 90)

    def test_missing_delta_field_raises(self, flushed_delta):
        base, patched, stats = flushed_delta
        delta, meta, _ = self._patch(base, patched, stats)
        broken = dict(delta)
        del broken["delta.sig_flat"]
        with pytest.raises(ShardError, match="missing field"):
            patch_engine_arrays(base, broken, meta)

    def test_vertex_count_mismatch_raises(self, flushed_delta):
        base, patched, stats = flushed_delta
        delta, meta, _ = self._patch(base, patched, stats)
        wrong = dict(meta, n=meta["n"] + 1)
        with pytest.raises(ShardError, match="diagonal tail"):
            patch_engine_arrays(base, delta, wrong)

    def test_unsorted_affected_raises(self, flushed_delta):
        base, patched, stats = flushed_delta
        delta, meta, _ = self._patch(base, patched, stats)
        bad = dict(delta)
        bad["delta.affected"] = bad["delta.affected"][::-1].copy()
        with pytest.raises(ShardError):
            patch_engine_arrays(base, bad, meta)

    def test_grown_vertex_missing_from_affected_raises(self, flushed_delta):
        base, patched, stats = flushed_delta
        delta, meta, _ = self._patch(base, patched, stats)
        bad = dict(delta)
        # The flush grew vertices 120..122; drop the last from `affected`.
        bad["delta.affected"] = bad["delta.affected"][:-1].copy()
        with pytest.raises(ShardError, match="grown"):
            patch_engine_arrays(base, bad, meta)

    def test_signature_rows_must_match_affected(self, flushed_delta):
        base, patched, stats = flushed_delta
        delta, meta, _ = self._patch(base, patched, stats)
        bad = dict(delta)
        bad["delta.sig_offsets"] = bad["delta.sig_offsets"][:-1].copy()
        with pytest.raises(ShardError, match="signature rows"):
            patch_engine_arrays(base, bad, meta)


class TestPoolPatchProtocol:
    def test_delta_publish_lifecycle_bit_identical(self, shard_graph, delta_config):
        dynamic = DynamicSimRankEngine(
            shard_graph, delta_config, seed=4, rebuild_fraction=1.0
        )
        probes = (0, 7, 40, 90, 119)
        with ShardPool(dynamic.engine, 2) as pool:
            # Epoch 1: a delta patch (edits + growth).
            dynamic.add_edge(3, 90)
            dynamic.add_edge(0, 121)
            stats = dynamic.flush()
            epoch = pool.publish_delta(dynamic.engine, stats)
            assert epoch == 1
            assert pool.epoch == 1
            for u in probes + (120, 121):
                assert pool.top_k(u).items == dynamic.engine.top_k(u).items
            assert pool.single_pair(3, 90) == dynamic.engine.single_pair(3, 90)

            # Epoch 2: patch-on-patched — the base is itself a patch.
            dynamic.add_edge(17, 90)
            dynamic.remove_edge(3, 90)
            stats = dynamic.flush()
            assert pool.publish_delta(dynamic.engine, stats) == 2
            for u in probes:
                assert pool.top_k(u).items == dynamic.engine.top_k(u).items

    def test_pinned_epoch_plans_against_its_own_engine(
        self, shard_graph, delta_config
    ):
        dynamic = DynamicSimRankEngine(
            shard_graph, delta_config, seed=4, rebuild_fraction=1.0
        )
        probes = (0, 3, 5, 7, 40, 90, 119)
        base = dynamic.engine
        expected = {u: base.top_k(u) for u in probes}
        with ShardPool(base, 2) as pool:
            pinned = pool.epoch
            # Edits beside the probes, and growth: a coordinator that
            # planned against the newest engine would see other
            # candidates, distances and bounds.
            dynamic.add_edge(3, 90)
            dynamic.add_edge(5, 40)
            dynamic.add_edge(0, 121)
            dynamic.add_edge(121, 7)
            stats = dynamic.flush()
            assert pool.publish_delta(dynamic.engine, stats) == pinned + 1
            assert any(
                dynamic.engine.top_k(u).items != expected[u].items for u in probes
            )
            for u in probes:
                got = pool.top_k(u, epoch=pinned)
                assert got.items == expected[u].items
                got_stats = dataclasses.asdict(got.stats)
                want_stats = dataclasses.asdict(expected[u].stats)
                got_stats.pop("elapsed_seconds")
                want_stats.pop("elapsed_seconds")
                assert got_stats == want_stats

    def test_ineligible_deltas_fall_back_to_none(self, shard_graph, delta_config):
        dynamic = DynamicSimRankEngine(
            shard_graph, delta_config, seed=4, rebuild_fraction=1.0
        )
        with ShardPool(dynamic.engine, 2, delta_fraction=0.25) as pool:
            dynamic.add_edge(3, 90)
            stats = dynamic.flush()
            # A full rebuild ships no row delta.
            full = FlushStats(
                full_rebuild=True,
                old_n=stats.old_n,
                new_n=stats.new_n,
                affected=stats.affected,
            )
            assert pool.publish_delta(dynamic.engine, full) is None
            # An affected set above delta_fraction * n: re-export instead.
            wide = FlushStats(
                full_rebuild=False,
                old_n=stats.old_n,
                new_n=stats.new_n,
                adds=stats.adds,
                removes=stats.removes,
                affected=list(range(dynamic.engine.graph.n)),
            )
            assert pool.publish_delta(dynamic.engine, wide) is None
            # A base mismatch (delta computed against a different n).
            stale = FlushStats(
                full_rebuild=False,
                old_n=stats.old_n - 1,
                new_n=stats.new_n,
                adds=stats.adds,
                removes=stats.removes,
                affected=stats.affected,
            )
            assert pool.publish_delta(dynamic.engine, stale) is None
            # The real thing still lands.
            assert pool.publish_delta(dynamic.engine, stats) == 1

    def test_republishing_existing_epoch_rejected(self, shard_graph, delta_config):
        dynamic = DynamicSimRankEngine(
            shard_graph, delta_config, seed=4, rebuild_fraction=1.0
        )
        with ShardPool(dynamic.engine, 2) as pool:
            dynamic.add_edge(3, 90)
            stats = dynamic.flush()
            with pytest.raises(ShardError, match="already published"):
                pool.publish_delta(dynamic.engine, stats, epoch=0)
