"""End-to-end tests of the TCP server: protocol, swaps, shedding, HTTP.

The two acceptance-grade tests live here:

- ``TestSnapshotSwap.test_concurrent_queries_see_exactly_one_snapshot``
  drives concurrent client threads through a live ``flush`` and proves
  every response is internally consistent against exactly one engine
  generation (validated against a deterministic local mirror);
- ``TestLoadShedding.test_bounded_queue_sheds_instead_of_stalling``
  overloads a tiny admission queue and reconciles the server's
  ``serve_requests_shed_total`` with client-observed rejections.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import threading
import time
import warnings

import pytest

from repro.core.dynamic import DynamicSimRankEngine
from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ServeError,
    ServerOverloadedError,
)
from repro.obs.export import parse_prometheus
from repro.serve import ServeClient, ServeConfig, ServerThread, SimRankServer, http_get
from repro.serve.client import parse_healthz


class TestQueryPlane:
    def test_remote_matches_local(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            for u in (0, 3, 57):
                remote = client.top_k(u)
                local = static_engine.top_k(u)
                assert remote.epoch == 0
                assert remote.items == [(int(v), float(s)) for v, s in local.items]
                assert remote.vertices() == local.vertices()

    def test_pair_matches_local(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            assert client.single_pair(1, 2) == pytest.approx(
                static_engine.single_pair(1, 2)
            )

    def test_explicit_k(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            assert len(client.top_k(3, k=2)) <= 2

    def test_out_of_range_vertex_is_bad_request(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            with pytest.raises(ProtocolError):
                client.top_k(10_000)

    def test_missing_vertex_field_is_bad_request(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            with pytest.raises(ProtocolError):
                client.request("top_k")

    def test_tiny_deadline_expires(self, run_server, static_engine):
        _, port = run_server(static_engine, batch_window=0.05)
        with ServeClient("127.0.0.1", port) as client:
            with pytest.raises(DeadlineExceededError):
                client.top_k(3, timeout_ms=0.0001)

    def test_unknown_op_is_unsupported(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            with pytest.raises(ServeError):
                client.request("frobnicate")

    def test_request_id_echoed(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            assert client.request("healthz", id="req-7")["id"] == "req-7"

    def test_garbage_line_keeps_session_alive(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"this is not json\n")
            stream.flush()
            first = json.loads(stream.readline())
            assert first["ok"] is False
            assert first["code"] == "bad_request"
            stream.write(b'{"op":"top_k","vertex":3}\n')
            stream.flush()
            second = json.loads(stream.readline())
            assert second["ok"] is True


class TestControlPlane:
    def test_static_engine_rejects_updates(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            with pytest.raises(ServeError):
                client.update(add=[(0, 1)])
            with pytest.raises(ServeError):
                client.flush()

    def test_update_then_flush_bumps_epoch(self, run_server, dynamic_engine):
        # A staleness budget the test never reaches: the explicit flush,
        # not the background flusher, applies the staged edits.
        _, port = run_server(dynamic_engine, flush_max_staleness=60.0)
        with ServeClient("127.0.0.1", port) as client:
            assert client.top_k(3).epoch == 0
            staged = client.update(add=[(0, 100), (100, 0)])
            assert staged["pending"] == staged["added"] > 0
            flushed = client.flush()
            assert flushed["edits_applied"] == staged["added"]
            assert flushed["epoch"] == 1
            assert client.top_k(3).epoch == 1

    def test_healthz_fields(self, run_server, dynamic_engine):
        _, port = run_server(dynamic_engine)
        with ServeClient("127.0.0.1", port) as client:
            client.top_k(3)
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["epoch"] == 0
        assert health["vertices"] == dynamic_engine.graph.n
        assert health["queue_capacity"] > 0
        assert health["shed_total"] == 0
        assert health["p95_latency_ms"] >= 0


class TestSnapshotSwap:
    """Acceptance: zero-downtime swap under concurrent load."""

    EDITS = [(0, 60), (5, 61), (60, 5)]
    VERTICES = list(range(0, 120, 6))

    def test_concurrent_queries_see_exactly_one_snapshot(
        self, run_server, serve_graph, serve_simrank_config
    ):
        dynamic = DynamicSimRankEngine(serve_graph, serve_simrank_config, seed=4)
        _, port = run_server(
            dynamic, workers=4, max_batch=8, batch_window=0.001,
            flush_max_staleness=60.0,  # the explicit flush applies the edits
        )

        warmed_up = threading.Barrier(4)  # 3 clients + main
        flush_done = threading.Event()
        records, errors = [], []
        lock = threading.Lock()

        def client_loop(offset: int) -> None:
            try:
                with ServeClient("127.0.0.1", port) as client:
                    for i in range(30):
                        vertex = self.VERTICES[(i + offset) % len(self.VERTICES)]
                        result = client.top_k(vertex)
                        with lock:
                            records.append((vertex, result.epoch, result.items))
                        if i == 9:
                            warmed_up.wait(timeout=30)
                        if i == 10:
                            flush_done.wait(timeout=30)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                with lock:
                    errors.append(exc)

        workers = [
            threading.Thread(target=client_loop, args=(offset,))
            for offset in (0, 7, 13)
        ]
        for worker in workers:
            worker.start()
        warmed_up.wait(timeout=30)
        with ServeClient("127.0.0.1", port) as admin:
            admin.update(add=self.EDITS)
            flushed = admin.flush()
        flush_done.set()
        for worker in workers:
            worker.join(timeout=60)

        assert not errors, f"requests failed during swap: {errors!r}"
        assert flushed["epoch"] == 1

        # A deterministic local mirror: same seed, same edits, same
        # flush count => bit-identical per-epoch answers.
        mirror = DynamicSimRankEngine(serve_graph, serve_simrank_config, seed=4)
        answers = {0: {u: mirror.engine.top_k(u).items for u in self.VERTICES}}
        for u, v in self.EDITS:
            mirror.add_edge(u, v)
        mirror.flush()
        answers[1] = {u: mirror.engine.top_k(u).items for u in self.VERTICES}

        seen_epochs = set()
        for vertex, epoch, items in records:
            seen_epochs.add(epoch)
            assert epoch in (0, 1)
            expected = [(int(v), float(s)) for v, s in answers[epoch][vertex]]
            assert items == expected, (
                f"vertex {vertex} answered inconsistently with epoch {epoch}"
            )
        # The schedule forces traffic on both sides of the flush.
        assert seen_epochs == {0, 1}

        # The edits must actually change some answer, or the check above
        # could not distinguish the epochs at all.
        assert any(
            answers[0][u] != answers[1][u] for u in self.VERTICES
        ), "edit set did not affect any probed vertex"

        # Post-flush, the serving cache must hold no pre-flush answers.
        with ServeClient("127.0.0.1", port) as client:
            for u in self.VERTICES[:5]:
                result = client.top_k(u)
                assert result.epoch == 1
                assert result.items == [
                    (int(v), float(s)) for v, s in answers[1][u]
                ]


class TestLoadShedding:
    """Acceptance: the bounded queue sheds rather than stalls."""

    N_CLIENTS = 16

    def test_bounded_queue_sheds_instead_of_stalling(
        self, run_server, static_engine
    ):
        server, port = run_server(
            static_engine,
            queue_capacity=2,
            max_batch=64,
            batch_window=0.5,  # long linger so concurrent arrivals pile up
            workers=2,
            cache_capacity=None,
        )
        ready = threading.Barrier(self.N_CLIENTS)
        outcomes, errors = [], []
        lock = threading.Lock()

        def one_shot(vertex: int) -> None:
            try:
                with ServeClient("127.0.0.1", port) as client:
                    ready.wait(timeout=30)
                    try:
                        client.top_k(vertex)
                        outcome = "ok"
                    except ServerOverloadedError:
                        outcome = "shed"
                with lock:
                    outcomes.append(outcome)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                with lock:
                    errors.append(exc)

        start = time.perf_counter()
        workers = [
            threading.Thread(target=one_shot, args=(u,))
            for u in range(self.N_CLIENTS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        elapsed = time.perf_counter() - start

        assert not errors, f"unexpected failures: {errors!r}"
        shed = outcomes.count("shed")
        served = outcomes.count("ok")
        assert served + shed == self.N_CLIENTS  # nobody stalled or vanished
        assert shed > 0, "overload never shed — queue did not bound the backlog"
        assert served > 0, "every request shed — server served nothing"
        assert elapsed < 30  # shedding kept the burst from stalling

        # Server-side accounting must match what clients observed.
        with ServeClient("127.0.0.1", port) as client:
            samples = parse_prometheus(client.metrics_text())
            health = client.healthz()
        assert samples["serve_requests_shed_total"] == shed
        assert samples["serve_requests_total"] == served
        assert health["shed_total"] == shed


class TestHttpEndpoints:
    def test_healthz(self, run_server, static_engine):
        _, port = run_server(static_engine)
        status, body = http_get("127.0.0.1", port, "/healthz")
        assert status == 200
        health = parse_healthz(body)
        assert health["status"] == "ok"
        assert health["vertices"] == static_engine.graph.n

    def test_metrics(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            client.top_k(3)
        status, body = http_get("127.0.0.1", port, "/metrics")
        assert status == 200
        samples = parse_prometheus(body)
        assert samples["serve_requests_total"] >= 1
        assert "query_prune_rate" in samples

    def test_unknown_path_404(self, run_server, static_engine):
        _, port = run_server(static_engine)
        status, _ = http_get("127.0.0.1", port, "/nope")
        assert status == 404

    def test_post_is_405(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"POST /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            raw = b""
            while b"\r\n" not in raw:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
        assert b"405" in raw.split(b"\r\n", 1)[0]


class TestShutdown:
    def test_shutdown_op_stops_server(self, run_server, static_engine):
        _, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            client.shutdown()
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=1):
                    time.sleep(0.05)
            except OSError:
                break
        else:
            pytest.fail("server still accepting connections after shutdown")

    def test_stop_after_shutdown_op_leaves_no_coroutine(self, static_engine):
        thread = ServerThread(SimRankServer(static_engine, ServeConfig(port=0)))
        port = thread.start()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ServeClient("127.0.0.1", port) as client:
                client.shutdown()
            thread.stop()
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_stop_closes_a_stop_the_loop_never_ran(self, static_engine):
        # The race behind a shutdown op: the loop winds down between
        # ServerThread.stop scheduling server.stop() and running it.
        thread = ServerThread(SimRankServer(static_engine, ServeConfig(port=0)))
        loop = asyncio.new_event_loop()  # never run
        thread._loop = loop
        thread._thread = threading.Thread(target=time.sleep, args=(0.1,))
        thread._thread.start()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            thread.stop()
            loop.close()
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestFlushPipelineServing:
    """Every dynamic server flushes staged edits without an explicit flush."""

    def test_updates_flushed_in_background(self, run_server, dynamic_engine):
        _, port = run_server(dynamic_engine, flush_max_staleness=0.05)
        with ServeClient("127.0.0.1", port) as client:
            staged = client.update(add=[(0, 100), (100, 0)])
            assert staged["added"] == 2
            deadline = time.perf_counter() + 20
            health = client.healthz()
            while time.perf_counter() < deadline:
                health = client.healthz()
                if (
                    health["flush"]["epoch"] >= 1
                    and health["pending_edits"] == 0
                ):
                    break
                time.sleep(0.02)
            else:
                pytest.fail(f"pipeline never flushed: {health!r}")
            # The swap happened off-path; queries see the new epoch.
            assert client.top_k(3).epoch >= 1

    def test_healthz_reports_pipeline_state(self, run_server, dynamic_engine):
        server, port = run_server(
            dynamic_engine,
            flush_max_staleness=5.0,  # too slow to fire during the test
            flush_max_pending=7,
        )
        with ServeClient("127.0.0.1", port) as client:
            flush = client.healthz()["flush"]
        assert flush["epoch"] == 0
        assert flush["flush_count"] == 0
        assert flush["max_staleness"] == 5.0
        assert flush["max_pending"] == 7
        assert "last_error" not in flush
        assert server.pipeline is not None

    def test_static_server_runs_no_pipeline(self, run_server, static_engine):
        server, port = run_server(static_engine)
        with ServeClient("127.0.0.1", port) as client:
            assert "flush" not in client.healthz()
        assert server.pipeline is None

    def test_update_past_max_pending_throttles(self, run_server, dynamic_engine):
        server, port = run_server(
            dynamic_engine, flush_max_staleness=60.0, flush_max_pending=4
        )
        assert server.pipeline is not None
        with ServeClient("127.0.0.1", port) as client:
            staged = client.update(add=[(0, 100 + i) for i in range(10)])
            assert staged["added"] == 10
            assert staged["pending"] <= 4
            assert client.healthz()["flush"]["epoch"] >= 1

    def test_idle_pipeline_makes_no_timed_wakeups(
        self, run_server, dynamic_engine, monkeypatch
    ):
        reads = []
        pending = DynamicSimRankEngine.pending_edits

        def counted(engine):
            reads.append(time.perf_counter())
            return pending.fget(engine)

        monkeypatch.setattr(DynamicSimRankEngine, "pending_edits", property(counted))
        run_server(dynamic_engine)  # default staleness: 0.2 s
        time.sleep(0.1)  # let the flusher settle into its idle wait
        start = time.perf_counter()
        time.sleep(0.5)
        assert len([t for t in reads if t >= start]) <= 1

    def test_flush_tunables_route_to_live_pipeline(self, run_server, dynamic_engine):
        server, _ = run_server(
            dynamic_engine,
            flush_max_staleness=0.5,
            autotune=True,
        )
        assert "flush_max_staleness" in server.tunables.names()
        assert "flush_max_pending" in server.tunables.names()
        server.tunables.apply("flush_max_staleness", 0.25)
        server.tunables.apply("flush_max_pending", 16)
        assert server.pipeline is not None
        assert server.pipeline.max_staleness == 0.25
        assert server.pipeline.max_pending == 16
