"""ShardPool: real spawned workers, shared memory, epochs, crashes.

Everything here runs through the actual multiprocess path — spawn
start method, one shared-memory segment per epoch, pipe RPC — so these
tests are the ground truth that the in-process bit-identity results of
``test_replay.py`` survive serialization and process boundaries.
"""

from __future__ import annotations

import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.dynamic import DynamicSimRankEngine
from repro.errors import ShardCrashError, ShardError, VertexError
from repro.obs import instrument as obs
from repro.shard.pool import ShardPool


@pytest.fixture(scope="module")
def pool(shard_engine):
    with ShardPool(shard_engine, 2) as running:
        yield running


class TestScatterGather:
    def test_bit_identical_to_engine(self, pool, shard_engine):
        for u in range(0, shard_engine.graph.n, 11):
            reference = shard_engine.top_k(u)
            merged = pool.top_k(u)
            assert merged.items == reference.items
            got, want = asdict(merged.stats), asdict(reference.stats)
            got.pop("elapsed_seconds")
            want.pop("elapsed_seconds")
            assert got == want

    def test_explicit_k_and_flags(self, pool, shard_engine):
        assert pool.top_k(5, k=2).items == shard_engine.top_k(5, k=2).items
        assert (
            pool.top_k(5, adaptive=False).items
            == shard_engine.top_k(5, adaptive=False).items
        )

    def test_timings_surface_per_shard_busy_time(self, pool):
        timings = {}
        pool.top_k(3, timings_out=timings)
        assert timings["wall_seconds"] > 0
        assert len(timings["busy_seconds"]) == 2
        assert all(b >= 0 for b in timings["busy_seconds"])

    def test_empty_plan_is_not_scattered(self, pool, shard_engine, monkeypatch):
        # At θ = 0.3 most vertices have B* < θ, so their plans are empty.
        view = shard_engine.with_config(theta=0.3)
        empty = [u for u in range(0, shard_engine.graph.n, 5)
                 if view.top_k(u).stats.candidates == 0]
        assert empty
        ops = []
        for worker in pool.workers:
            def request(msg, _real=worker.request):
                ops.append(msg["op"])
                return _real(msg)

            monkeypatch.setattr(worker, "request", request)
        pool.set_overrides({"theta": 0.3})
        try:
            for u in empty:
                timings = {}
                merged = pool.top_k(u, timings_out=timings)
                reference = view.top_k(u)
                assert merged.items == reference.items == []
                got, want = asdict(merged.stats), asdict(reference.stats)
                got.pop("elapsed_seconds")
                want.pop("elapsed_seconds")
                assert got == want
                assert timings["busy_seconds"] == [0.0, 0.0]
        finally:
            pool.set_overrides({})
        assert "query" not in ops

    def test_pair_routed_to_owning_shard(self, pool, shard_engine):
        assert pool.single_pair(3, 3) == 1.0
        for u, v in [(0, 1), (3, 77), (118, 2)]:
            assert pool.single_pair(u, v) == shard_engine.single_pair(u, v)

    def test_out_of_range_vertex_fails_before_scatter(self, pool, monkeypatch):
        def scatter(msg):
            raise AssertionError(f"scattered {msg['op']!r} for an invalid vertex")

        for worker in pool.workers:
            monkeypatch.setattr(worker, "request", scatter)
        with pytest.raises(VertexError):
            pool.top_k(10_000)
        for bad in ([-1], [10_000]):
            with pytest.raises(VertexError):
                pool.top_k(9, extra_candidates=bad)
        with pytest.raises(VertexError):
            pool.single_pair(0, 10_000)

    def test_health_rows(self, pool):
        rows = pool.health()
        assert [row["shard"] for row in rows] == [0, 1]
        assert all(row["alive"] for row in rows)
        assert all(row["epoch"] == pool.epoch for row in rows)

    def test_metrics_recorded(self, pool):
        with obs.session() as registry:
            pool.top_k(0)
        assert registry.counter_value("shard", "queries_total") == 1
        fanout = registry.get("shard", "fanout")
        assert fanout is not None and fanout.count == 1

    def test_seed_policy(self, shard_engine):
        rng_engine = type(shard_engine)(
            shard_engine.graph, shard_engine.config, seed=np.random.default_rng(3)
        )
        with pytest.raises(ValueError):
            ShardPool(rng_engine, 2)
        with pytest.raises(ShardError):
            ShardPool(shard_engine, 0)


class TestEpochProtocol:
    def test_publish_retention_and_staleness(self, shard_graph, shard_config):
        dynamic = DynamicSimRankEngine(shard_graph, shard_config, seed=4)
        with ShardPool(dynamic.engine, 2) as pool:
            epoch0_answer = pool.top_k(5).items
            assert pool.epoch == 0

            dynamic.add_edge(0, 60)
            dynamic.flush()
            assert pool.publish(dynamic.engine) == 1
            assert pool.top_k(5).items == dynamic.engine.top_k(5).items
            # Two-epoch retention: the previous epoch stays queryable...
            assert pool.top_k(5, epoch=0).items == epoch0_answer

            dynamic.add_edge(5, 61)
            dynamic.flush()
            assert pool.publish(dynamic.engine) == 2
            # ...until a second publish retires it.
            with pytest.raises(ShardError, match="no longer resident"):
                pool.top_k(5, epoch=0)
            assert pool.top_k(5, epoch=1).items is not None
            rows = pool.health()
            assert all(row["epoch"] == 2 for row in rows)

    def test_republish_same_epoch_rejected(self, shard_engine):
        with ShardPool(shard_engine, 2) as pool:
            with pytest.raises(ShardError):
                pool.publish(shard_engine, epoch=0)


class TestCrashIsolation:
    def test_dead_worker_fails_fast_never_hangs(self, shard_engine):
        with ShardPool(shard_engine, 2) as pool:
            assert pool.top_k(7).items  # warm: both workers answering
            pool.workers[1].request({"op": "crash"})  # worker exits silently
            started = time.perf_counter()
            with pytest.raises(ShardCrashError):
                pool.top_k(7)
            assert time.perf_counter() - started < pool.gather_timeout
            # Subsequent queries fail fast too (no per-request timeout wait).
            started = time.perf_counter()
            with pytest.raises(ShardCrashError):
                pool.top_k(8)
            assert time.perf_counter() - started < 5.0
            rows = pool.health()
            assert rows[0]["alive"] and not rows[1]["alive"]

    def test_crash_recorded_in_metrics(self, shard_engine):
        with obs.session() as registry:
            with ShardPool(shard_engine, 2) as pool:
                pool.workers[0].request({"op": "crash"})
                with pytest.raises(ShardCrashError):
                    pool.top_k(3)
                # top_k can fail on the *send* side before the reader
                # thread finishes its EOF accounting; the counter is
                # only guaranteed once that thread has exited.
                pool.workers[0].reader.join(timeout=10)
        assert registry.counter_value("shard", "worker_crashes_total") >= 1
