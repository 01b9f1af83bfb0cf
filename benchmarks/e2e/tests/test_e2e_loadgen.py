"""The load generator's schedule, stall accounting and percentile rule."""

import asyncio
import json
import time

import pytest

from loadgen import (
    MAX_LATE_MS,
    Connection,
    closed_loop,
    late_p99_ms,
    open_loop,
    quantile,
    schedule,
    tail_percentile,
)


async def _fake_server(stall: float):
    """An NDJSON echo server that stalls ``stall`` seconds before its first reply."""
    stalled = []

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            if not stalled:
                stalled.append(True)
                await asyncio.sleep(stall)
            request = json.loads(line)
            writer.write(json.dumps({"ok": True, "id": request["id"]}).encode() + b"\n")
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _open_loop(count: int, rate: float, stall: float = 0.0):
    async def go():
        server, port = await _fake_server(stall)
        conn = await Connection.open("127.0.0.1", port)
        try:
            requests = [{"op": "top_k", "id": i} for i in range(count)]
            return await open_loop([conn], requests, rate, lambda i, r: 0)
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(go())


def test_schedule_is_exact():
    due = schedule(1000.0, 40.0, 500)
    assert due == [1000.0 + i / 40.0 for i in range(500)]


def test_open_loop_sends_each_request_when_due():
    samples = _open_loop(40, 200.0)
    t0 = samples[0].due
    for i, sample in enumerate(samples):
        assert sample.due == t0 + i / 200.0
        assert sample.sent >= sample.due - 1e-3
        assert sample.ok and sample.reply["id"] == i


def test_stall_is_charged_to_every_request_queued_behind_it():
    stall, rate = 0.2, 100.0
    samples = _open_loop(40, rate, stall)
    t0 = samples[0].due
    queued = [s for s in samples if s.due < t0 + stall]
    assert len(queued) >= 15
    for sample in queued:
        # Each reply waits for the stall to end, timed from its due time.
        assert sample.latency >= (t0 + stall) - sample.due - 0.005
    late = [s for s in samples if s.due > t0 + stall + 0.05]
    assert late and max(s.latency for s in late) < stall / 2


def test_blocked_generator_marks_the_run_invalid():
    async def go(block: float):
        server, port = await _fake_server(0.0)
        conn = await Connection.open("127.0.0.1", port)

        async def hog():
            # Blocks the generator's event loop, as an overloaded host would.
            while block:
                time.sleep(block)
                await asyncio.sleep(0.001)

        blocker = asyncio.ensure_future(hog())
        try:
            requests = [{"op": "top_k", "id": i} for i in range(60)]
            return await open_loop([conn], requests, 200.0, lambda i, r: 0)
        finally:
            blocker.cancel()
            await conn.close()
            server.close()
            await server.wait_closed()

    assert late_p99_ms(asyncio.run(go(0.02))) > MAX_LATE_MS
    assert late_p99_ms(asyncio.run(go(0.0))) <= MAX_LATE_MS


def test_closed_loop_keeps_routed_requests_on_their_connection():
    async def go():
        server, port = await _fake_server(0.0)
        conns = [await Connection.open("127.0.0.1", port) for _ in range(2)]
        try:
            requests = [{"op": "top_k", "id": i} for i in range(500)]
            return await closed_loop(conns, requests, lambda i, r: r["id"] % 2)
        finally:
            for conn in conns:
                await conn.close()
            server.close()
            await server.wait_closed()

    samples, elapsed = asyncio.run(go())
    assert len(samples) == 500 and all(s.ok for s in samples)
    assert all(s.request["id"] % 2 == s.conn for s in samples)
    assert elapsed >= max(s.done for s in samples) - min(s.due for s in samples)


def test_server_going_away_fails_outstanding_requests():
    async def go():
        async def handle(reader, writer):
            await reader.readline()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        conn = await Connection.open("127.0.0.1", server.sockets[0].getsockname()[1])
        try:
            return await open_loop([conn], [{"op": "top_k", "id": i} for i in range(3)],
                                   100.0, lambda i, r: 0)
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    samples = asyncio.run(go())
    assert [s.ok for s in samples] == [False, False, False]


@pytest.mark.parametrize(
    "n, expected",
    [(10_000, 99.9), (9_999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
     (199, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_has_ten_samples_beyond_it(n, expected):
    assert tail_percentile(n) == expected


def test_quantile_is_a_measured_value():
    values = [float(v) for v in range(100, 0, -1)]
    assert quantile(values, 50) == 50.0
    assert quantile(values, 90) == 90.0
    assert quantile(values, 99.9) == 100.0
    assert quantile([7.5], 99) == 7.5
