"""The serve acceptance suite against the ``shards=N`` backend.

The PR-2 acceptance tests (snapshot-swap consistency, bounded-queue
shedding) are re-run **unchanged** with the server answering through a
2-shard query-routing pool — the module-level ``run_server`` fixture
overrides the conftest one to force ``shards=2``, and the inherited
test classes do the rest.  Because the sharded backend is bit-identical
to the single-process engine, even the deterministic local-mirror
checks inside those tests hold verbatim.

On top of that: equality spot checks, the ``/healthz`` shard rows, and
the worker-crash contract (a killed shard mid-traffic turns into clean
request errors, never a hang).
"""

from __future__ import annotations

import time

import pytest

from repro.core.dynamic import DynamicSimRankEngine
from repro.serve import ServeClient, ServeConfig, ServerThread, SimRankServer, http_get
from repro.serve.client import parse_healthz
from tests.serve.test_server import (
    TestLoadShedding as _BaseLoadShedding,
    TestSnapshotSwap as _BaseSnapshotSwap,
)


@pytest.fixture
def run_server():
    """Same factory as the conftest one, but every server is sharded."""
    threads = []

    def _run(engine, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        config_kwargs.setdefault("shards", 2)
        server = SimRankServer(engine, ServeConfig(**config_kwargs))
        thread = ServerThread(server)
        port = thread.start()
        threads.append(thread)
        return server, port

    yield _run
    for thread in threads:
        thread.stop()


class TestShardedQueryPlane:
    def test_remote_matches_local(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            for u in (0, 3, 57, 118):
                remote = client.top_k(u)
                local = static_engine.top_k(u)
                assert remote.epoch == 0
                assert remote.items == [(int(v), float(s)) for v, s in local.items]
            assert client.single_pair(3, 77) == static_engine.single_pair(3, 77)

    def test_healthz_reports_shard_rows(self, run_server, static_engine):
        _, port = run_server(static_engine)
        status, body = http_get("127.0.0.1", port, "/healthz")
        assert status == 200
        health = parse_healthz(body)
        assert [row["shard"] for row in health["shards"]] == [0, 1]
        assert all(row["alive"] for row in health["shards"])
        assert all(row["epoch"] == health["epoch"] for row in health["shards"])

    def test_flush_propagates_to_all_shards(
        self, run_server, serve_graph, serve_simrank_config
    ):
        dynamic = DynamicSimRankEngine(serve_graph, serve_simrank_config, seed=4)
        _, port = run_server(dynamic)
        mirror = DynamicSimRankEngine(serve_graph, serve_simrank_config, seed=4)
        with ServeClient("127.0.0.1", port) as client:
            assert client.top_k(5).epoch == 0
            client.update(add=[(0, 60), (60, 5)])
            assert client.flush()["epoch"] == 1
            for u, v in [(0, 60), (60, 5)]:
                mirror.add_edge(u, v)
            mirror.flush()
            result = client.top_k(5)
            assert result.epoch == 1
            assert result.items == [
                (int(v), float(s)) for v, s in mirror.engine.top_k(5).items
            ]
            # Every worker is serving the new epoch (no epoch lag).
            health = client.healthz()
            assert all(row["epoch"] == 1 for row in health["shards"])


class TestShardedSnapshotSwap(_BaseSnapshotSwap):
    """PR-2 acceptance test, verbatim, through the sharded backend."""


class TestShardedLoadShedding(_BaseLoadShedding):
    """PR-2 acceptance test, verbatim, through the sharded backend."""


class TestWorkerCrash:
    def test_killed_shard_yields_errors_not_hangs(self, run_server, static_engine):
        server, port = run_server(static_engine, default_timeout=30.0)
        with ServeClient("127.0.0.1", port) as client:
            assert client.top_k(3).items  # both workers warm
            server.handle.pool.workers[1].request({"op": "crash"})
            started = time.perf_counter()
            with pytest.raises(Exception) as info:
                client.top_k(4)  # uncached: must reach the dead pool
            assert time.perf_counter() - started < 30.0
            assert "dead" in str(info.value) or "died" in str(info.value)
            # The session survives and control-plane ops still answer.
            health = client.healthz()
            assert not health["shards"][1]["alive"]
            assert health["shards"][0]["alive"]
