"""Open- and closed-loop NDJSON load over a fixed set of TCP connections.

The open loop sends request ``i`` when it is due, at ``t0 + i / rate``,
whatever the server is doing, and times each request from that due
time.  A server that stalls therefore charges the stall to every request
queued behind it instead of hiding it (coordinated omission).  The
server answers one line at a time per connection, so requests routed to
a busy connection wait in its socket until the server reads them.

Everything here is timed with ``time.monotonic``, the clock the traced
server records its spans with, so client and server times compare.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

Message = Dict[str, Any]

#: Percentiles a report may name, in tenths of a percent.
PERCENTILES_TENTHS = (500, 900, 950, 990, 999)

#: Samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10

#: The tail percentile this benchmark reports: its steps have at least
#: 100 reads, and a traced churn run at least 100 writes, so ten or more
#: lie beyond it.
TAIL = 90.0

#: Seconds to wait for outstanding replies before giving up on the server.
REPLY_TIMEOUT_S = 60.0

#: Seconds between starting an open loop and its first due time.
LEAD_S = 0.05

#: A run whose generator sent later than this at p99 (ms) is invalid:
#: its latencies would hide the queueing the late sends skipped.
MAX_LATE_MS = 5.0


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ``TAIL_SAMPLES`` of ``n`` beyond it."""
    best = None
    for tenths in PERCENTILES_TENTHS:
        if n * (1000 - tenths) >= TAIL_SAMPLES * 1000:
            best = tenths / 10.0
    return best


def quantile(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: always one of the measured values."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def late_p99_ms(samples: Sequence["Sample"]) -> float:
    """How late the generator sent, at p99, in milliseconds."""
    return quantile([s.late for s in samples], 99) * 1e3


def schedule(t0: float, rate: float, count: int) -> List[float]:
    """Due times of an open loop: send ``i`` is due at ``t0 + i / rate``."""
    return [t0 + i / rate for i in range(count)]


@dataclass
class Sample:
    """One request and what happened to it."""

    request: Message
    conn: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    reply: Optional[Message] = None

    @property
    def latency(self) -> float:
        """Seconds from the due time to the reply."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent after the due time."""
        return self.sent - self.due

    @property
    def ok(self) -> bool:
        return self.reply is not None and bool(self.reply.get("ok"))


class Connection:
    """One persistent NDJSON connection with in-order reply matching."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Deque[Tuple[Sample, "asyncio.Future[Sample]"]] = deque()
        self._eof = False
        self._reads = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
        return cls(reader, writer)

    def send(self, sample: Sample) -> "asyncio.Future[Sample]":
        """Write the request now; the future resolves with its reply."""
        future: "asyncio.Future[Sample]" = asyncio.get_running_loop().create_future()
        sample.sent = time.monotonic()
        if self._eof:
            # The server is gone: the request fails without a reply.
            sample.done = sample.sent
            future.set_result(sample)
            return future
        self._pending.append((sample, future))
        self._writer.write(json.dumps(sample.request, separators=(",", ":")).encode() + b"\n")
        return future

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                now = time.monotonic()
                sample, future = self._pending.popleft()
                sample.done = now
                sample.reply = json.loads(line)
                if not future.done():
                    future.set_result(sample)
        finally:
            # The server went away: fail what is still outstanding.
            self._eof = True
            now = time.monotonic()
            while self._pending:
                sample, future = self._pending.popleft()
                sample.done = now
                if not future.done():
                    future.set_result(sample)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._reads


Route = Callable[[int, Message], int]


async def open_loop(
    conns: Sequence[Connection],
    requests: Sequence[Message],
    rate: float,
    route: Route,
) -> List[Sample]:
    """Send ``requests`` on a fixed schedule and wait for every reply."""
    t0 = time.monotonic() + LEAD_S
    samples: List[Sample] = []
    futures = []
    for i, (due, request) in enumerate(zip(schedule(t0, rate, len(requests)), requests)):
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        sample = Sample(request, route(i, request), due)
        futures.append(conns[sample.conn].send(sample))
        samples.append(sample)
    await asyncio.wait_for(asyncio.gather(*futures), REPLY_TIMEOUT_S)
    return samples


async def closed_loop(
    conns: Sequence[Connection],
    requests: Sequence[Message],
    route: Route,
) -> Tuple[List[Sample], float]:
    """Each connection sends its next request only after the last reply.

    ``requests`` are split across connections by ``route`` (so requests
    that must stay ordered keep their connection) and each connection
    works through its share.  Returns the samples and the seconds from
    start to the last reply.
    """
    queues: List[List[Message]] = [[] for _ in conns]
    for i, request in enumerate(requests):
        queues[route(i, request)].append(request)
    start = time.monotonic()
    samples: List[Sample] = []

    async def drive(index: int) -> None:
        for request in queues[index]:
            sample = Sample(request, index, time.monotonic())
            samples.append(sample)
            await asyncio.wait_for(conns[index].send(sample), REPLY_TIMEOUT_S)

    await asyncio.gather(*(drive(i) for i in range(len(conns))))
    last = max((s.done for s in samples), default=start)
    return samples, max(last - start, 1e-9)
