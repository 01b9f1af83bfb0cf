"""Run ``repro serve`` with spans recorded around its public entry points.

Usage: ``python traced_server.py --spans PATH serve [serve options]``.

Each layer is timed from outside: this launcher replaces public
functions and methods *where their callers look them up* (a module
attribute such as ``repro.core.query.bfs_distances``, or a class
attribute such as ``AdmissionQueue.take``) with wrappers that record a
span, then calls ``repro.cli.main``.  No file of the program changes.

A span is ``(name, request id, thread, start, end, parent)`` plus a few
attributes; times come from ``time.monotonic``, the clock the load
generator uses.  Spans stay in memory and are written as JSON lines to
``--spans`` when the server exits.  The request id reaches the executor
thread through the ``ThreadPoolExecutor.submit`` wrapper, which tags the
thread with the id of the ticket it runs; engine-stage spans on that
thread inherit it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

Attrs = Callable[[tuple, dict, Any], Dict[str, Any]]


class Recorder:
    """In-memory span store shared by every wrapper in the process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Any:
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value: Any) -> None:
        self._local.request_id = value

    def add(self, name: str, request_id: Any, start: float, end: float,
            parent: Optional[int] = None, sid: Optional[int] = None, **attrs: Any) -> None:
        self.spans.append({
            "sid": next(self._ids) if sid is None else sid, "name": name, "id": request_id,
            "thread": threading.get_ident(), "start": start, "end": end,
            "parent": parent, **attrs,
        })

    def wrap(self, name: str, fn: Callable, attrs: Optional[Attrs] = None,
             request_id: Optional[Callable[[tuple, Any], Any]] = None) -> Callable:
        """A synchronous wrapper nesting spans per thread.

        ``request_id(args, result)`` names the request when the thread is
        not tagged (protocol decode/encode run on the event loop).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            sid = next(recorder._ids)
            stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            rid = recorder.request_id
            if rid is None and request_id is not None:
                rid = request_id(args, result)
            extra = attrs(args, kwargs, result) if attrs is not None else {}
            recorder.add(name, rid, start, end, parent, sid=sid, **extra)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _message_id(message: Any) -> Any:
    return message.get("id") if isinstance(message, dict) else None


def install(recorder: Recorder) -> None:
    """Replace each traced entry point with its recording wrapper."""
    from repro.core import engine as engine_mod
    from repro.core import query as query_mod
    from repro.core.bounds import GammaTable
    from repro.core.dynamic import DynamicSimRankEngine, FlushPipeline
    from repro.core.index import BufferBackedCandidateIndex, CandidateIndex
    from repro.core.montecarlo import SingleSourceEstimator
    from repro.serve import protocol
    from repro.serve.admission import AdmissionQueue, Ticket
    from repro.serve.lifecycle import EngineSnapshot
    from repro.shard import pool as pool_mod

    wrap = recorder.wrap

    # Protocol: decode/encode run on the event loop; the id is in the message.
    protocol.decode = wrap("protocol.decode", protocol.decode,
                           request_id=lambda args, message: _message_id(message))
    protocol.encode = wrap("protocol.encode", protocol.encode,
                           request_id=lambda args, line: _message_id(args[0]))

    # Admission: AdmissionQueue.offer stamps Ticket.enqueued_at, and take
    # is a coroutine, so its spans are recorded flat (a coroutine must not
    # nest on the loop thread's span stack).
    original_take = AdmissionQueue.take

    async def take(self: AdmissionQueue, max_items: int = 16, window: float = 0.0) -> list:
        called = time.monotonic()
        batch = await original_take(self, max_items, window)
        now = time.monotonic()
        if batch:
            # Work arrived at max(called, first enqueue); the rest is linger.
            first = max(called, batch[0].enqueued_at)
            recorder.add("batching.take", None, first, now, size=len(batch))
            for ticket in batch:
                recorder.add("admission.wait", _message_id(ticket.payload),
                             ticket.enqueued_at, now)
        return batch

    AdmissionQueue.take = take

    # Executor: time from submit to the thread picking the ticket up, and
    # tag that thread with the ticket's request id while it runs.
    original_submit = ThreadPoolExecutor.submit

    def submit(self: ThreadPoolExecutor, fn: Callable, /, *args: Any, **kwargs: Any):
        ticket = next((a for a in args if isinstance(a, Ticket)), None)
        if ticket is None:
            return original_submit(self, fn, *args, **kwargs)
        rid = _message_id(ticket.payload)
        queued = time.monotonic()

        def run() -> Any:
            recorder.add("batching.executor_wait", rid, queued, time.monotonic())
            recorder.request_id = rid
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.request_id = None

        return original_submit(self, run)

    ThreadPoolExecutor.submit = submit

    # Snapshot + cache, then the engine stages where query.py looks them up.
    EngineSnapshot.top_k = wrap("lifecycle.top_k", EngineSnapshot.top_k)
    engine_mod.top_k_query = wrap("query.top_k", engine_mod.top_k_query)
    query_mod.bfs_distances = wrap("traversal.bfs", query_mod.bfs_distances)
    query_mod.distance_ball = wrap("traversal.ball", query_mod.distance_ball)
    query_mod.compute_alpha_beta = wrap("bounds.alpha_beta", query_mod.compute_alpha_beta)
    for cls in (CandidateIndex, BufferBackedCandidateIndex):
        cls.candidates = wrap("index.candidates", cls.__dict__["candidates"])
    GammaTable.bound_many = wrap("bounds.gamma", GammaTable.bound_many)
    SingleSourceEstimator.estimate_batch = wrap(
        "montecarlo.estimate", SingleSourceEstimator.estimate_batch,
        attrs=lambda args, kw, scores: {"size": int(len(scores))},
    )

    # Shards: wall and per-shard busy time from timings_out, and the merge.
    traced_shard_top_k = wrap(
        "shard.top_k", pool_mod.ShardPool.top_k,
        attrs=lambda args, kw, result: {"busy": kw["timings_out"]["busy_seconds"]},
    )

    def shard_top_k(self: Any, u: int, k: Optional[int] = None, **kwargs: Any) -> Any:
        kwargs.setdefault("timings_out", {})
        return traced_shard_top_k(self, u, k=k, **kwargs)

    pool_mod.ShardPool.top_k = shard_top_k
    pool_mod.replay_merge = wrap("shard.merge", pool_mod.replay_merge)

    # Dynamic writes: staging, flushes and writer backpressure.
    for method in ("add_edge", "remove_edge"):
        setattr(DynamicSimRankEngine, method,
                wrap("dynamic.stage", getattr(DynamicSimRankEngine, method)))
    DynamicSimRankEngine.flush = wrap(
        "dynamic.flush", DynamicSimRankEngine.flush,
        attrs=lambda args, kw, stats: {
            "edits": stats.edits_applied, "affected": stats.vertices_affected,
        },
    )
    FlushPipeline.throttle = wrap("dynamic.throttle", FlushPipeline.throttle)


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_server.py --spans PATH serve [options]", file=sys.stderr)
        return 2
    path, cli_args = argv[1], argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
