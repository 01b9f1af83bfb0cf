"""Bit-identity of the routed query path, fully in-process.

A sharded query goes whole to one worker loop
(:func:`repro.shard.worker.worker_main`), which answers it with
``engine.top_k`` on the engine it rebuilt from the epoch's exported
arrays.  Here the loops run on threads over pipes, so the message
fields, the shared-memory round trip and the worker's own ``top_k`` are
checked without spawning processes: for any number of workers, and
whichever of them a query lands on, the answer — items AND QueryStats —
equals the single-process engine's.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import asdict
from multiprocessing import Pipe

import pytest

from repro.core.query import TopKResult, plan_query
from repro.shard.codec import engine_to_arrays
from repro.shard.memory import SharedArrayBundle
from repro.shard.merge import replay_merge
from repro.shard.worker import shard_pair, worker_main
from repro.utils.rng import derive_seed


def engine_plan(engine, u, k=None, **kwargs):
    return plan_query(
        engine.graph, engine.index, u, k=k, config=engine.config,
        seed=derive_seed(engine.seed, 11, u), diagonal=engine.diagonal, **kwargs,
    )


class ThreadWorkers:
    """``n`` worker loops on threads, all attached to one exported epoch."""

    def __init__(self, engine, n):
        arrays, meta = engine_to_arrays(engine, engine.seed)
        self.bundle = SharedArrayBundle.export(arrays)
        self.conns, self.threads = [], []
        self.ids = itertools.count(1)
        self.turn = itertools.count()
        for shard_id in range(n):
            parent, child = Pipe()
            thread = threading.Thread(
                target=worker_main, args=(child, shard_id), daemon=True
            )
            thread.start()
            self.conns.append(parent)
            self.threads.append(thread)
        for conn in self.conns:
            self.call(conn, {"op": "load_epoch", "epoch": 0,
                             "manifest": self.bundle.manifest(), "meta": meta})

    def call(self, conn, msg):
        msg = dict(msg, id=next(self.ids))
        conn.send(msg)
        reply = conn.recv()
        assert reply["id"] == msg["id"]
        assert reply["ok"], reply.get("error")
        return reply["result"]

    def top_k(self, u, k=None, use_l1=True, use_l2=True, adaptive=True,
              extra_candidates=None):
        """One ``top_k`` op, sent to the workers in turn."""
        conn = self.conns[next(self.turn) % len(self.conns)]
        return self.call(conn, {
            "op": "top_k", "epoch": 0, "u": u, "k": k,
            "use_l1": use_l1, "use_l2": use_l2, "adaptive": adaptive,
            "extra_candidates": extra_candidates, "overrides": None,
        })

    def close(self):
        for conn in self.conns:
            self.call(conn, {"op": "release_epoch", "epoch": 0})
            self.call(conn, {"op": "stop"})
        for thread in self.threads:
            thread.join(timeout=5)
        self.bundle.close()


@pytest.fixture(scope="module")
def thread_workers():
    """``thread_workers(engine, n)``: one worker set per (engine, n)."""
    started = {}

    def get(engine, n):
        if (id(engine), n) not in started:
            started[id(engine), n] = ThreadWorkers(engine, n)
        return started[id(engine), n]

    yield get
    for workers in started.values():
        workers.close()


def routed(workers, u, **kwargs):
    return workers.top_k(u, **kwargs)["result"]


def assert_identical(merged, reference):
    assert merged.u == reference.u and merged.k == reference.k
    assert merged.items == reference.items
    got, want = asdict(merged.stats), asdict(reference.stats)
    got.pop("elapsed_seconds")
    want.pop("elapsed_seconds")
    assert got == want


@pytest.mark.parametrize("n_shards", [1, 2, 4])
class TestBitIdentity:
    def test_social_graph(self, shard_engine, thread_workers, n_shards):
        workers = thread_workers(shard_engine, n_shards)
        for u in range(0, shard_engine.graph.n, 7):
            assert_identical(routed(workers, u), shard_engine.top_k(u))

    def test_web_graph(self, web_engine, thread_workers, n_shards):
        workers = thread_workers(web_engine, n_shards)
        for u in range(0, web_engine.graph.n, 17):
            assert_identical(routed(workers, u), web_engine.top_k(u))

    def test_explicit_k(self, shard_engine, thread_workers, n_shards):
        workers = thread_workers(shard_engine, n_shards)
        for k in (1, 3, 11):
            assert_identical(routed(workers, 5, k=k), shard_engine.top_k(5, k=k))

    def test_non_adaptive(self, shard_engine, thread_workers, n_shards):
        workers = thread_workers(shard_engine, n_shards)
        assert_identical(
            routed(workers, 9, adaptive=False), shard_engine.top_k(9, adaptive=False)
        )

    def test_without_l1(self, shard_engine, thread_workers, n_shards):
        workers = thread_workers(shard_engine, n_shards)
        assert_identical(
            routed(workers, 9, use_l1=False), shard_engine.top_k(9, use_l1=False)
        )

    def test_without_l2(self, shard_engine, thread_workers, n_shards):
        workers = thread_workers(shard_engine, n_shards)
        assert_identical(
            routed(workers, 9, use_l2=False), shard_engine.top_k(9, use_l2=False)
        )

    def test_extra_candidates(self, shard_engine, thread_workers, n_shards):
        workers = thread_workers(shard_engine, n_shards)
        extra = [1, 2, 3, 40, 41]
        assert_identical(
            routed(workers, 9, extra_candidates=extra),
            shard_engine.top_k(9, extra_candidates=extra),
        )


class TestShardPair:
    def test_matches_single_pair(self, shard_engine):
        for u, v in [(0, 1), (3, 77), (10, 10), (5, 119)]:
            assert shard_pair(shard_engine, u, v) == shard_engine.single_pair(u, v)


class TestWorkerContract:
    def test_busy_seconds_reported(self, shard_engine, thread_workers):
        reply = thread_workers(shard_engine, 1).top_k(5)
        assert isinstance(reply["result"], TopKResult)
        assert reply["busy_seconds"] >= 0.0

    def test_merge_requires_results(self, shard_engine):
        from repro.errors import ShardError

        plan = engine_plan(shard_engine, 5)
        assert len(plan) > 0
        with pytest.raises(ShardError):
            replay_merge(plan, [{"scores": {}, "busy_seconds": 0.0}])
