"""ShardPool: real spawned workers, shared memory, epochs, crashes.

Everything here runs through the actual multiprocess path — spawn
start method, one shared-memory segment per epoch, pipe RPC — so these
tests are the ground truth that the in-process bit-identity results of
``test_replay.py`` survive serialization and process boundaries.
"""

from __future__ import annotations

import threading
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


def assert_same_answer(got, want):
    assert got.items == want.items
    got, want = asdict(got.stats), asdict(want.stats)
    got.pop("elapsed_seconds")
    want.pop("elapsed_seconds")
    assert got == want


def record_ops(pool, monkeypatch):
    """``[(shard_id, op), ...]`` of every request the pool sends."""
    sent = []
    for worker in pool.workers:
        def request(msg, _worker=worker, _real=worker.request):
            sent.append((_worker.shard_id, msg["op"]))
            return _real(msg)

        monkeypatch.setattr(worker, "request", request)
    return sent


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
        busy = timings["busy_seconds"]
        assert len(busy) == 2
        # Only the worker the query was routed to was busy.
        assert busy.count(0.0) == 1 and max(busy) > 0

    def test_empty_plan_is_not_scattered(self, pool, shard_engine, monkeypatch):
        # Every query, an emptied plan included, is one top_k op to one
        # worker.  At θ = 0.3 every sampled vertex has B* < θ.
        sample = range(0, shard_engine.graph.n, 5)
        view = shard_engine.with_config(theta=0.3)
        sent = record_ops(pool, monkeypatch)
        for u in sample:
            pool.top_k(u)
        pool.set_overrides({"theta": 0.3})
        try:
            for u in sample:
                timings = {}
                merged = pool.top_k(u, timings_out=timings)
                reference = view.top_k(u)
                assert merged.items == reference.items == []
                assert_same_answer(merged, reference)
                assert merged.stats.walks_simulated == shard_engine.config.r_alphabeta
                assert timings["busy_seconds"].count(0.0) == 1
        finally:
            pool.set_overrides({})
        assert [op for _, op in sent] == ["top_k"] * (2 * len(sample))

    def test_pair_routed_to_one_worker(self, pool, shard_engine, monkeypatch):
        sent = record_ops(pool, monkeypatch)
        assert pool.single_pair(3, 3) == 1.0
        assert sent == []
        for u, v in [(0, 1), (3, 77), (118, 2)]:
            assert pool.single_pair(u, v) == shard_engine.single_pair(u, v)
        # An idle pool routes every request to the lowest shard_id.
        assert sent == [(0, "pair")] * 3

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
        with pytest.raises(ValueError):
            pool.top_k(9, k=0)
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
        assert fanout is not None and fanout.count == 1 and fanout.sum == 1

    def test_seed_policy(self, shard_engine):
        rng_engine = type(shard_engine)(
            shard_engine.graph, shard_engine.config, seed=np.random.default_rng(3)
        )
        with pytest.raises(ValueError):
            ShardPool(rng_engine, 2)
        with pytest.raises(ShardError):
            ShardPool(shard_engine, 0)


class TestRouting:
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_bit_identical_at_every_shard_count(self, web_engine, n_shards):
        # The sample mixes full and B*-emptied plans (in-degree-0 vertices
        # have B* = 0), with and without a live override.
        overrides = {"r_pair": 60, "screen_slack": 0.5}
        view = web_engine.with_config(**overrides)
        sample = range(0, web_engine.graph.n, 6)
        emptied = [u for u in sample if view.top_k(u).stats.candidates == 0]
        assert 0 < len(emptied) < len(sample)
        with ShardPool(web_engine, n_shards) as pool:
            for u in sample:
                assert_same_answer(pool.top_k(u), web_engine.top_k(u))
            pool.set_overrides(overrides)
            for u in sample:
                assert_same_answer(pool.top_k(u), view.top_k(u))

    def test_concurrent_queries_land_on_different_workers(
        self, pool, shard_engine, monkeypatch
    ):
        sent = record_ops(pool, monkeypatch)
        # Neither query takes its answer until both are routed, so each
        # sees the other in flight.
        both_routed = threading.Barrier(2, timeout=30)
        real_gather = pool._gather

        def gather(futures, what):
            both_routed.wait()
            return real_gather(futures, what)

        monkeypatch.setattr(pool, "_gather", gather)
        answers = {}
        threads = [
            threading.Thread(target=lambda u=u: answers.setdefault(u, pool.top_k(u)))
            for u in (5, 9)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(sent) == [(0, "top_k"), (1, "top_k")]
        for u in (5, 9):
            assert_same_answer(answers[u], shard_engine.top_k(u))


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
