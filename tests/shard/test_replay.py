"""Bit-identity of the scatter-gather decomposition, fully in-process.

The acceptance property of the shard subsystem: for ANY shard count,
one ``plan_query``, ``score_shard`` on each shard's slice of the plan,
then ``replay_merge`` produces the same :class:`TopKResult` — items AND
QueryStats — as the single-process engine, because every estimate is
derived from the same seeds and the coordinator runs the engine's own
scan over the gathered estimates (see ``repro/shard/merge.py``).
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core.query import plan_query
from repro.shard.merge import replay_merge
from repro.shard.plan import ShardPlan
from repro.shard.worker import score_shard, shard_pair
from repro.utils.rng import derive_seed


def engine_plan(engine, u, k=None, **kwargs):
    return plan_query(
        engine.graph, engine.index, u, k=k, config=engine.config,
        seed=derive_seed(engine.seed, 11, u), diagonal=engine.diagonal, **kwargs,
    )


def scatter_gather(engine, u, n_shards, k=None, **kwargs):
    plan = engine_plan(engine, u, k=k, **kwargs)
    partition = ShardPlan(n=engine.graph.n, n_shards=n_shards)
    results = [
        score_shard(engine, plan.select(partition.owned_mask(plan.candidates, shard_id)))
        for shard_id in range(n_shards)
    ]
    return replay_merge(plan, results)


def assert_identical(merged, reference):
    assert merged.u == reference.u and merged.k == reference.k
    assert merged.items == reference.items
    got, want = asdict(merged.stats), asdict(reference.stats)
    got.pop("elapsed_seconds")
    want.pop("elapsed_seconds")
    assert got == want


@pytest.mark.parametrize("n_shards", [1, 2, 4])
class TestBitIdentity:
    def test_social_graph(self, shard_engine, n_shards):
        for u in range(0, shard_engine.graph.n, 7):
            assert_identical(
                scatter_gather(shard_engine, u, n_shards), shard_engine.top_k(u)
            )

    def test_web_graph(self, web_engine, n_shards):
        for u in range(0, web_engine.graph.n, 17):
            assert_identical(
                scatter_gather(web_engine, u, n_shards), web_engine.top_k(u)
            )

    def test_explicit_k(self, shard_engine, n_shards):
        for k in (1, 3, 11):
            assert_identical(
                scatter_gather(shard_engine, 5, n_shards, k=k),
                shard_engine.top_k(5, k=k),
            )

    def test_non_adaptive(self, shard_engine, n_shards):
        assert_identical(
            scatter_gather(shard_engine, 9, n_shards, adaptive=False),
            shard_engine.top_k(9, adaptive=False),
        )

    def test_without_l1(self, shard_engine, n_shards):
        assert_identical(
            scatter_gather(shard_engine, 9, n_shards, use_l1=False),
            shard_engine.top_k(9, use_l1=False),
        )

    def test_without_l2(self, shard_engine, n_shards):
        assert_identical(
            scatter_gather(shard_engine, 9, n_shards, use_l2=False),
            shard_engine.top_k(9, use_l2=False),
        )

    def test_extra_candidates(self, shard_engine, n_shards):
        extra = [1, 2, 3, 40, 41]
        assert_identical(
            scatter_gather(shard_engine, 9, n_shards, extra_candidates=extra),
            shard_engine.top_k(9, extra_candidates=extra),
        )


class TestShardPair:
    def test_matches_single_pair(self, shard_engine):
        for u, v in [(0, 1), (3, 77), (10, 10), (5, 119)]:
            assert shard_pair(shard_engine, u, v) == shard_engine.single_pair(u, v)


class TestWorkerContract:
    def test_busy_seconds_reported(self, shard_engine):
        result = score_shard(shard_engine, engine_plan(shard_engine, 5))
        assert result["busy_seconds"] >= 0.0

    def test_merge_requires_results(self, shard_engine):
        from repro.errors import ShardError

        plan = engine_plan(shard_engine, 5)
        assert len(plan) > 0
        with pytest.raises(ShardError):
            replay_merge(plan, [{"scores": {}, "busy_seconds": 0.0}])
