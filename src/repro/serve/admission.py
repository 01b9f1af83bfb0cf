"""Bounded admission with load shedding and per-request deadlines.

The server's defence against overload is to refuse work *early*: a
request either gets a seat in this bounded queue or is rejected on the
spot with an ``overloaded`` protocol error — the moral equivalent of
HTTP 503 — instead of stretching every in-flight latency until clients
time out anyway.  Two shedding policies:

- ``"reject-new"`` (default): a full queue rejects the arriving
  request.  Fair to queued work, and what a retrying client expects.
- ``"drop-oldest"``: a full queue evicts its longest-waiting ticket
  (failing that ticket's future) and admits the new one.  Better when
  queries lose value with age — the oldest request is the one most
  likely past its caller's patience.

Deadlines compose with shedding: a ticket carries an absolute
``deadline`` (event-loop clock); the batcher discards expired tickets
at dispatch time with a ``deadline`` error rather than wasting a thread
on an answer nobody is waiting for.

Everything here runs on one asyncio event loop, so no locking — only
the metric hooks are touched from other threads (they are thread-safe).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from collections import deque

from repro.errors import ConfigError
from repro.obs import instrument as obs
from repro.serve import protocol


__all__ = ["SHED_POLICIES", "Ticket", "AdmissionQueue"]
SHED_POLICIES = ("reject-new", "drop-oldest")


@dataclass
class Ticket:
    """One admitted request waiting for execution.

    ``payload`` is the decoded request message; ``future`` always
    resolves to a protocol response dict — a success from the batcher,
    or an ``overloaded`` / ``deadline`` / ``shutting_down`` error.
    ``deadline`` and ``enqueued_at`` are event-loop-clock timestamps.
    """

    op: str
    payload: protocol.Message = field(default_factory=dict)
    future: Optional[asyncio.Future] = None
    deadline: Optional[float] = None
    enqueued_at: float = 0.0

    def expired(self, now: float) -> bool:
        """Whether the deadline (if any) has passed."""
        return self.deadline is not None and now > self.deadline


class AdmissionQueue:
    """A bounded FIFO of :class:`Ticket` with configurable shedding.

    ``offer`` admits or sheds synchronously; ``take`` is the batcher's
    side — it blocks until work exists, then drains up to ``max_items``,
    optionally lingering ``window`` seconds to let a micro-batch fill.
    """

    def __init__(self, capacity: int = 256, policy: str = "reject-new") -> None:
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        if policy not in SHED_POLICIES:
            raise ConfigError(
                f"unknown shed policy {policy!r}; use one of {SHED_POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self.shed_count = 0
        self._items: Deque[Ticket] = deque()
        self._nonempty = asyncio.Event()
        self._closed = False

    # ------------------------------------------------------------------
    # Producer side (connection handlers)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def offer(self, ticket: Ticket) -> bool:
        """Admit ``ticket`` or shed; returns True iff admitted.

        Whatever happens, ``ticket.future`` will eventually resolve —
        shed tickets get an ``overloaded`` protocol error immediately
        (under ``drop-oldest`` the error goes to the *oldest* queued
        ticket and the arriving one is admitted), tickets offered to a
        closed queue get ``shutting_down``.
        """
        if self._closed:
            self._resolve(
                ticket,
                protocol.error(
                    ticket.op, protocol.CODE_SHUTTING_DOWN, "server is shutting down"
                ),
            )
            return False
        ticket.enqueued_at = asyncio.get_running_loop().time()
        if len(self._items) >= self.capacity:
            if self.policy == "reject-new":
                self._shed(ticket)
                return False
            self._shed(self._items.popleft())
        self._items.append(ticket)
        self._nonempty.set()
        if obs.OBS.enabled:
            obs.set_serve_queue_depth(len(self._items))
        return True

    @staticmethod
    def _resolve(ticket: Ticket, response: protocol.Message) -> None:
        if ticket.future is not None and not ticket.future.done():
            ticket.future.set_result(response)

    def _shed(self, ticket: Ticket) -> None:
        self.shed_count += 1
        if obs.OBS.enabled:
            obs.record_serve_shed()
        self._resolve(
            ticket,
            protocol.error(
                ticket.op,
                protocol.CODE_OVERLOADED,
                f"admission queue full (capacity {self.capacity})",
            ),
        )

    # ------------------------------------------------------------------
    # Consumer side (the micro-batcher)
    # ------------------------------------------------------------------

    async def take(self, max_items: int = 16, window: float = 0.0) -> List[Ticket]:
        """Next micro-batch: at least one ticket, at most ``max_items``.

        Blocks until the queue is non-empty (or closed — then returns
        whatever is left, possibly ``[]``).  A ``window`` of 0 returns
        at once with whatever is queued.  A positive ``window`` with
        spare batch room lingers once (the event loop rounds the wait up
        to whole milliseconds), so concurrent arrivals join the batch
        and share its snapshot; the linger shares no work, so it only
        adds to their latency.
        """
        await self._nonempty.wait()
        batch: List[Ticket] = []
        self._drain(batch, max_items)
        if not self._closed and window > 0 and 0 < len(batch) < max_items:
            await asyncio.sleep(window)
            self._drain(batch, max_items)
        return batch

    def _drain(self, batch: List[Ticket], max_items: int) -> None:
        while self._items and len(batch) < max_items:
            batch.append(self._items.popleft())
        if not self._items and not self._closed:
            self._nonempty.clear()
        if obs.OBS.enabled:
            obs.set_serve_queue_depth(len(self._items))

    def close(self) -> List[Ticket]:
        """Stop admitting; wake consumers; return still-queued tickets.

        The caller (server shutdown) decides the leftovers' fate —
        :meth:`SimRankServer.stop` fails them with ``shutting_down``.
        """
        self._closed = True
        self._nonempty.set()
        leftovers = list(self._items)
        self._items.clear()
        if obs.OBS.enabled:
            obs.set_serve_queue_depth(0)
        return leftovers
