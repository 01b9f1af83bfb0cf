"""The default linger is one event-loop tick, and a window of 0 never sleeps.

A batch shares only its snapshot, so a linger only delays answers.  The
defaults agree on 0.5 ms, which asyncio's millisecond timer rounds up to
one 1 ms tick: each take sleeps once, for the configured window.  A
server started with a window of 0 dispatches each read at once, and
``--autotune`` must not add a linger back: there is no ``batch_window``
knob to clamp up to the grid's minimum, and the controller's first
protective step falls through to ``r_pair``.  The longer opt-in lingers
keep their own coverage in ``test_admission.py``, ``test_batching.py``
and ``test_autotune.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import TUNABLES
from repro.serve import MicroBatcher, ServeClient, ServeConfig, admission


class SleepRecorder:
    """Stands in for ``asyncio`` inside the admission module."""

    def __init__(self) -> None:
        self.delays = []

    def __getattr__(self, name):
        return getattr(asyncio, name)

    async def sleep(self, delay, *args, **kwargs):
        self.delays.append(delay)
        return await asyncio.sleep(delay, *args, **kwargs)


@pytest.fixture
def sleeps(monkeypatch):
    recorder = SleepRecorder()
    monkeypatch.setattr(admission, "asyncio", recorder)
    return recorder.delays


def test_defaults_agree_on_one_tick():
    import inspect

    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--graph", "g.txt"])
    window = inspect.signature(MicroBatcher).parameters["window"].default
    assert args.batch_window_ms / 1000.0 == ServeConfig().batch_window == window
    assert window == TUNABLES["batch_window"].minimum


def test_default_server_lingers_once_per_take(static_engine, run_server, sleeps):
    _, port = run_server(static_engine)
    with ServeClient("127.0.0.1", port) as client:
        reply = client.top_k(3)
    local = static_engine.top_k(3)
    assert reply.items == [(int(v), float(s)) for v, s in local.items]
    assert sleeps == [ServeConfig().batch_window]


def test_zero_window_answers_without_sleeping(static_engine, run_server, sleeps):
    _, port = run_server(static_engine, batch_window=0.0)
    with ServeClient("127.0.0.1", port) as client:
        reply = client.top_k(3)
    local = static_engine.top_k(3)
    assert reply.items == [(int(v), float(s)) for v, s in local.items]
    assert sleeps == []


def test_autotune_keeps_a_zero_window(static_engine, run_server, sleeps):
    server, port = run_server(
        static_engine,
        batch_window=0.0,
        autotune=True,
        slo_p99_ms=200.0,
        control_interval=30.0,  # park the background loop; ticks are manual
    )
    assert "batch_window" not in server.tunables.names()
    assert server.batcher.batch_params()[1] == 0.0
    with ServeClient("127.0.0.1", port) as client:
        for u in range(6):
            client.top_k(u, k=3)
    assert sleeps == []

    # Synthetic SLO-violating latencies trip the guard with no step
    # pending; with no window to shrink, r_pair is the first knob.
    server.registry.counter("serve", "requests_total").inc(8)
    histogram = server.registry.get("serve", "request_latency_seconds")
    for _ in range(8):
        histogram.observe(0.3)
    action = server.controller.tick(server.registry.snapshot())
    assert action == "step:r_pair:down"
