"""The micro-batcher: take admitted top-k requests, fan across threads.

A batch is the unit of snapshot consistency, not of shared work: every
ticket still runs as its own query on the executor, so the one thing a
batch shares is the engine snapshot it is answered against.

1. **one snapshot per batch** — the handle is dereferenced once per
   take, so every request in the batch is answered against the same
   engine generation (the consistency unit of the swap guarantee), and
   a swap costs at most one batch of staleness, never a torn answer;
2. **thread-pool fan-out** — the batch's requests execute concurrently
   on the executor, the single-machine analogue of the paper's
   "M machines" remark for the all-vertices sweep; the per-vertex
   queries are the same :func:`~repro.core.query.top_k_query` the
   parallel sweep runs, reached through the snapshot's engine/cache.

Because nothing else is shared, lingering only delays answers, so the
default window is the shortest one the event loop can time: asyncio's
epoll loop rounds a wait up to whole milliseconds, and the 0.5 ms
default lingers one 1 ms tick.  A window of 0 dispatches each take at
once; it answers an isolated read about 1 ms sooner, but then a
saturated closed loop of cheap reads ping-pongs client and server with
sub-millisecond turnarounds, and its throughput follows the host's
thread scheduling instead of the server.

The batcher is also where deadlines are enforced (a ticket that expired
while queued is answered with a ``deadline`` error instead of occupying
a thread) and where per-request latency/batch-size metrics are emitted.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from typing import Optional, Tuple

from repro.errors import ReproError
from repro.obs import instrument as obs
from repro.serve import protocol
from repro.serve.admission import AdmissionQueue, Ticket
from repro.serve.lifecycle import EngineHandle, EngineSnapshot
from repro.serve.tunables import TunableSet


__all__ = ["MicroBatcher"]
class MicroBatcher:
    """Consume an :class:`AdmissionQueue`, execute batches on an executor.

    ``run()`` is the long-lived consumer task; it exits when the queue
    is closed and drained.  Batches are dispatched without waiting for
    the previous batch to finish — completion is per-ticket, so one
    slow query never convoys the queue behind it.
    """

    def __init__(
        self,
        handle: EngineHandle,
        queue: AdmissionQueue,
        executor: Executor,
        max_batch: int = 16,
        window: float = 0.0005,
        tunables: Optional[TunableSet] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.handle = handle
        self.queue = queue
        self.executor = executor
        self.max_batch = max_batch
        self.window = window
        self.tunables = tunables
        self.batches_dispatched = 0
        self.last_batch_size = 0

    def batch_params(self) -> Tuple[int, float]:
        """The (max_items, window) for the *next* take.

        Pulled from the :class:`TunableSet` when one is wired in, so a
        controller step lands within one batch window — no restart, no
        queue drain.  Falls back to the constructor values otherwise,
        and to the constructor ``window`` when the set has no
        ``batch_window`` knob (a server started with a window of 0).
        """
        if self.tunables is None:
            return self.max_batch, self.window
        window = (
            self.tunables.get("batch_window")
            if "batch_window" in self.tunables.names()
            else self.window
        )
        return self.tunables.get_int("max_batch"), window

    async def run(self) -> None:
        """Consume until the queue closes; returns after the final batch."""
        loop = asyncio.get_running_loop()
        pending = set()
        while True:
            max_items, window = self.batch_params()
            batch = await self.queue.take(max_items, window)
            if not batch:
                if self.queue.closed:
                    break
                continue
            self.batches_dispatched += 1
            self.last_batch_size = len(batch)
            if obs.OBS.enabled:
                obs.record_serve_batch(len(batch))
            snapshot = self.handle.current()
            now = loop.time()
            for ticket in batch:
                if ticket.expired(now):
                    self._expire(ticket)
                    continue
                task = asyncio.ensure_future(
                    self._finish(loop, snapshot, ticket)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------------
    # Per-ticket paths
    # ------------------------------------------------------------------

    def _expire(self, ticket: Ticket) -> None:
        if obs.OBS.enabled:
            obs.record_serve_deadline_expired()
        if ticket.future is not None and not ticket.future.done():
            ticket.future.set_result(
                protocol.error(
                    ticket.op,
                    protocol.CODE_DEADLINE,
                    "deadline passed while the request was queued",
                )
            )

    async def _finish(
        self, loop: asyncio.AbstractEventLoop, snapshot: EngineSnapshot, ticket: Ticket
    ) -> None:
        # Latency is measured from admission, so queue wait is included.
        start = ticket.enqueued_at or loop.time()
        try:
            response = await loop.run_in_executor(
                self.executor, self._execute, snapshot, ticket
            )
        except ReproError as exc:
            if obs.OBS.enabled:
                obs.record_serve_error()
            response = protocol.error(ticket.op, protocol.CODE_BAD_REQUEST, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            if obs.OBS.enabled:
                obs.record_serve_error()
            response = protocol.error(ticket.op, protocol.CODE_INTERNAL, str(exc))
        if obs.OBS.enabled:
            obs.record_serve_request(loop.time() - start)
        if ticket.future is not None and not ticket.future.done():
            ticket.future.set_result(response)

    def _execute(self, snapshot: EngineSnapshot, ticket: Ticket) -> protocol.Message:
        """Runs on an executor thread; must only touch the snapshot."""
        payload = ticket.payload
        if ticket.op == "top_k":
            vertex = int(payload["vertex"])
            k = payload.get("k")
            k = int(k) if k is not None else None
            result = snapshot.top_k(vertex, k=k)
            return protocol.ok(
                "top_k",
                vertex=vertex,
                k=result.k,
                epoch=snapshot.epoch,
                items=[[int(v), float(s)] for v, s in result.items],
            )
        if ticket.op == "pair":
            u, v = int(payload["vertex"]), int(payload["other"])
            score = snapshot.engine.single_pair(u, v)
            return protocol.ok(
                "pair", vertex=u, other=v, epoch=snapshot.epoch, score=float(score)
            )
        return protocol.error(
            ticket.op, protocol.CODE_UNSUPPORTED, f"unknown batched op {ticket.op!r}"
        )
