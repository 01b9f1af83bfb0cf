"""The asyncio query server: NDJSON over TCP, plus HTTP health/metrics.

One listening port speaks both protocols: a connection whose first line
starts with an HTTP method is answered as a one-shot HTTP request
(``GET /healthz``, ``GET /metrics``); anything else is treated as a
persistent newline-delimited-JSON session (see
:mod:`repro.serve.protocol`).

Data plane: ``top_k`` / ``pair`` requests pass the bounded
:class:`~repro.serve.admission.AdmissionQueue` (shedding with an
``overloaded`` reply when full) and execute through the
:class:`~repro.serve.batching.MicroBatcher` against one
:class:`~repro.serve.lifecycle.EngineSnapshot` per batch.

Control plane: ``update`` stages edge edits on the attached
:class:`~repro.core.dynamic.DynamicSimRankEngine`, ``flush`` applies
them on the executor (queries keep flowing on the old snapshot) and the
flush listener publishes the rebuilt engine atomically — the
zero-downtime index swap.  With ``flush_pipeline=True`` a
:class:`~repro.core.dynamic.FlushPipeline` absorbs staged edits on a
dedicated thread instead (bounded by ``flush_max_staleness`` /
``flush_max_pending``), and ``update`` applies backpressure through
:meth:`~repro.core.dynamic.FlushPipeline.throttle` — the
production-rate write path.  ``healthz`` / ``metrics`` / ``shutdown``
round out operations.

The server installs its own metrics registry
(:func:`repro.obs.instrument.push_registry`) for its lifetime, so
``/metrics`` exposes exactly the traffic it served, including the
engine-level ``query_*`` / ``cache_*`` series recorded by worker
threads.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Set, Union

if TYPE_CHECKING:  # imported lazily at runtime (see start())
    from repro.control.controller import Controller

from repro.core.dynamic import DynamicSimRankEngine, FlushPipeline
from repro.core.engine import SimRankEngine
from repro.errors import ConfigError, ProtocolError
from repro.obs import export as obs_export
from repro.obs import instrument as obs
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.admission import SHED_POLICIES, AdmissionQueue, Ticket
from repro.serve.batching import MicroBatcher
from repro.serve.lifecycle import EngineHandle
from repro.serve.tunables import TunableSet


__all__ = ["BATCHED_OPS", "ServeConfig", "SimRankServer", "ServerThread"]
#: Ops the admission queue + batcher execute (the data plane).
BATCHED_OPS = ("top_k", "pair")


@dataclass
class ServeConfig:
    """Operational knobs of one :class:`SimRankServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the kernel pick (tests, examples)
    queue_capacity: int = 256
    shed_policy: str = "reject-new"
    max_batch: int = 16
    batch_window: float = 0.002  # seconds the batcher lingers to fill a batch
    workers: int = 4  # executor threads answering queries
    cache_capacity: Optional[int] = 1024  # per-snapshot LRU; None/0 = no cache
    default_timeout: Optional[float] = None  # per-request deadline (seconds)
    shards: int = 0  # >0 = route queries to that many worker processes
    flush_pipeline: bool = False  # background flusher absorbs staged edits off-path
    flush_max_staleness: float = 0.2  # seconds staged edits may wait (pipeline mode)
    flush_max_pending: int = 1024  # staged edits forcing a flush + write throttle
    autotune: bool = False  # run the repro.control feedback controller
    control_interval: float = 1.0  # seconds between controller ticks
    slo_p99_ms: float = 250.0  # guarded latency objective (autotune)
    slo_error_rate: float = 0.01  # guarded error-rate ceiling (autotune)
    slo_shed_rate: float = 0.05  # guarded shed-rate ceiling (autotune)

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"unknown shed_policy {self.shed_policy!r}; use one of {SHED_POLICIES}"
            )
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_window < 0:
            raise ConfigError(f"batch_window must be >= 0, got {self.batch_window}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.shards < 0:
            raise ConfigError(f"shards must be >= 0, got {self.shards}")
        if self.flush_max_staleness <= 0:
            raise ConfigError(
                f"flush_max_staleness must be > 0, got {self.flush_max_staleness}"
            )
        if self.flush_max_pending < 1:
            raise ConfigError(
                f"flush_max_pending must be >= 1, got {self.flush_max_pending}"
            )
        if self.control_interval <= 0:
            raise ConfigError(
                f"control_interval must be > 0, got {self.control_interval}"
            )
        if self.slo_p99_ms <= 0:
            raise ConfigError(f"slo_p99_ms must be > 0, got {self.slo_p99_ms}")
        for name in ("slo_error_rate", "slo_shed_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")


class SimRankServer:
    """Serve top-k SimRank queries over one engine with live index swaps.

    ``engine`` may be a :class:`DynamicSimRankEngine` (updates + flush
    swaps available) or a plain preprocessed :class:`SimRankEngine`
    (read-only serving; ``update``/``flush`` answer ``unsupported``).
    """

    def __init__(
        self,
        engine: Union[DynamicSimRankEngine, SimRankEngine],
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.config = config or ServeConfig()
        if isinstance(engine, DynamicSimRankEngine):
            self.dynamic: Optional[DynamicSimRankEngine] = engine
            base: SimRankEngine = engine.engine
        else:
            self.dynamic = None
            base = engine
        if self.config.shards > 0:
            # Imported lazily: the shard package drags in multiprocessing
            # machinery the single-process server never needs.
            from repro.shard.lifecycle import ShardHandle

            self.handle: EngineHandle = ShardHandle(
                base,
                n_shards=self.config.shards,
                cache_capacity=self.config.cache_capacity,
            )
            if self.dynamic is not None:
                self.handle.attach(self.dynamic)
        elif self.dynamic is not None:
            self.handle = EngineHandle.from_dynamic(
                self.dynamic, cache_capacity=self.config.cache_capacity
            )
        else:
            self.handle = EngineHandle(
                base, cache_capacity=self.config.cache_capacity
            )
        self.registry = MetricsRegistry()
        self.port: Optional[int] = None
        self.queue: Optional[AdmissionQueue] = None
        self.batcher: Optional[MicroBatcher] = None
        # The off-path write pipeline (flush_pipeline=True + dynamic engine).
        self.pipeline: Optional[FlushPipeline] = None
        self._flush_error: Optional[str] = None
        # The live-tunable store + controller only exist under
        # --autotune; without it the batcher runs on the static config
        # values and no control task is scheduled.
        self.tunables: Optional[TunableSet] = None
        self.controller: Optional["Controller"] = None
        self._controller_task: Optional[asyncio.Task] = None
        self._controller_error: Optional[str] = None
        if self.config.autotune:
            self.tunables = self._build_tunables()
            self.tunables.subscribe(self._on_tunable)
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        self._stopping = False
        self._mutate_lock: Optional[asyncio.Lock] = None
        self._obs_was_enabled = False
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._writers: Set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Live tunables (autotune)
    # ------------------------------------------------------------------

    def _build_tunables(self) -> TunableSet:
        """Seed the knob store from the static config, clamped into bounds.

        Clamping (rather than rejecting) keeps ``--autotune`` usable
        with any otherwise-valid ServeConfig: a ``max_batch`` of 512 is
        legal statically but the controller's grid tops out at the
        TunableSpec maximum, so it starts from the nearest grid point.
        """
        from repro.core.config import TUNABLES

        engine_config = self.handle.current().engine.config
        knobs = {
            "max_batch": TUNABLES["max_batch"].clamp(self.config.max_batch),
            "batch_window": TUNABLES["batch_window"].clamp(
                self.config.batch_window
            ),
            "r_pair": TUNABLES["r_pair"].clamp(engine_config.r_pair),
            "screen_slack": TUNABLES["screen_slack"].clamp(
                engine_config.screen_slack
            ),
        }
        if self.dynamic is not None and self.config.flush_pipeline:
            knobs["flush_max_staleness"] = TUNABLES["flush_max_staleness"].clamp(
                self.config.flush_max_staleness
            )
            knobs["flush_max_pending"] = TUNABLES["flush_max_pending"].clamp(
                self.config.flush_max_pending
            )
        return TunableSet(knobs)

    def _on_tunable(self, name: str, value: float) -> None:
        """Push engine-scope knob changes through the handle.

        Batcher-scope knobs need no push — the MicroBatcher pulls them
        at the top of every take cycle.  Engine knobs republish the
        serving snapshot (and, on a sharded handle, broadcast to the
        worker pool) so every in-flight layer converges on the same
        settings.
        """
        assert self.tunables is not None
        spec = self.tunables.spec(name)
        typed: Union[int, float] = int(round(value)) if spec.integer else value
        if spec.scope == "flush":
            # Re-times the flusher thread immediately; a knob change
            # before start() (or after stop()) just has nowhere to land.
            if self.pipeline is not None:
                self.pipeline.apply(name, typed)
            return
        if spec.scope != "engine":
            return
        self.handle.apply_engine_overrides(**{name: typed})

    async def _control_loop(self) -> None:
        """Drive one controller tick per interval until shutdown.

        A controller bug must never take serving down: the loop stops
        on the first unexpected exception and surfaces it through
        ``/healthz`` instead of propagating.
        """
        assert self.controller is not None
        while not self._stopping:
            await asyncio.sleep(self.config.control_interval)
            if self._stopping:
                break
            try:
                self.controller.tick(self.registry.snapshot())
            except Exception as exc:  # noqa: BLE001 - reported via healthz
                self._controller_error = f"{type(exc).__name__}: {exc}"
                break

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        """Bind, start the batcher, return the actual listening port."""
        self._obs_was_enabled = obs.enabled()
        obs.enable()
        obs.push_registry(self.registry)
        self.queue = AdmissionQueue(
            capacity=self.config.queue_capacity, policy=self.config.shed_policy
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self.batcher = MicroBatcher(
            self.handle,
            self.queue,
            self._executor,
            max_batch=self.config.max_batch,
            window=self.config.batch_window,
            tunables=self.tunables,
        )
        self._batcher_task = asyncio.ensure_future(self.batcher.run())
        if self.dynamic is not None and self.config.flush_pipeline:
            self.pipeline = FlushPipeline(
                self.dynamic,
                max_staleness=self.config.flush_max_staleness,
                max_pending=self.config.flush_max_pending,
            ).start()
        if self.config.autotune:
            # Imported lazily: the control package is only needed when
            # the feedback loop is actually on.
            from repro.control.controller import Controller, ControllerConfig

            assert self.tunables is not None
            self.controller = Controller(
                ControllerConfig(
                    slo_p99_ms=self.config.slo_p99_ms,
                    max_error_rate=self.config.slo_error_rate,
                    max_shed_rate=self.config.slo_shed_rate,
                ),
                self.tunables,
            )
            self._controller_task = asyncio.ensure_future(self._control_loop())
        self._stopped = asyncio.Event()
        self._mutate_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` completes."""
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    async def run(self) -> None:
        """``start()`` then serve until something calls :meth:`stop`."""
        await self.start()
        await self.wait_stopped()

    async def stop(self) -> None:
        """Graceful shutdown: drain, fail leftovers, release everything."""
        if self._stopping or self._stopped is None:
            return
        self._stopping = True
        if self._controller_task is not None:
            self._controller_task.cancel()
            try:
                await self._controller_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        leftovers = self.queue.close() if self.queue is not None else []
        for ticket in leftovers:
            if ticket.future is not None and not ticket.future.done():
                ticket.future.set_result(
                    protocol.error(
                        ticket.op,
                        protocol.CODE_SHUTTING_DOWN,
                        "server is shutting down",
                    )
                )
        if self._batcher_task is not None:
            await self._batcher_task
        if self._executor is not None:
            # shutdown(wait=True) joins worker threads; on the loop it
            # would freeze keep-alive sessions (and /healthz) for as
            # long as the slowest in-flight batch runs.
            await asyncio.to_thread(self._executor.shutdown, wait=True)
        # Nudge idle keep-alive sessions off the loop: closing the
        # transport EOFs their pending readline, so the handlers exit
        # normally instead of being cancelled by loop teardown.
        for writer in list(self._writers):
            writer.close()
        current = asyncio.current_task()
        waiting = {t for t in self._conn_tasks if t is not current}
        if waiting:
            await asyncio.wait(waiting, timeout=5.0)
        if self.pipeline is not None:
            # Drains remaining staged edits (one last flush + swap), so
            # it must run before the handle — and any shard pool — goes.
            try:
                await asyncio.to_thread(self.pipeline.stop)
            except Exception as exc:  # noqa: BLE001 - shutdown must finish
                self._flush_error = f"{type(exc).__name__}: {exc}"
            self.pipeline = None
        self.handle.close()
        obs.pop_registry(self.registry)
        if not self._obs_was_enabled:
            obs.disable()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            first = await reader.readline()
            if not first:
                return
            if first.split(b" ", 1)[0] in (b"GET", b"HEAD", b"POST"):
                await self._handle_http(first, reader, writer)
                return
            line: Optional[bytes] = first
            while line:
                response = await self._dispatch_line(line)
                if response is not None:
                    writer.write(protocol.encode(response))
                    await writer.drain()
                if self._stopping:
                    break
                line = await reader.readline()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _dispatch_line(self, line: bytes) -> Optional[dict]:
        if not line.strip():
            return None
        try:
            message = protocol.decode(line)
        except ProtocolError as exc:
            return protocol.error("?", protocol.CODE_BAD_REQUEST, str(exc))
        op = message.get("op")
        request_id = message.get("id")
        try:
            response = await self._dispatch(op, message)
        except ProtocolError as exc:
            response = protocol.error(str(op), protocol.CODE_BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 - one request must not kill the session
            if obs.OBS.enabled:
                obs.record_serve_error()
            response = protocol.error(str(op), protocol.CODE_INTERNAL, str(exc))
        if request_id is not None and response is not None:
            response["id"] = request_id
        return response

    async def _dispatch(self, op: object, message: protocol.Message) -> protocol.Message:
        if self._stopping:
            return protocol.error(
                str(op), protocol.CODE_SHUTTING_DOWN, "server is shutting down"
            )
        if op in BATCHED_OPS:
            return await self._admit(str(op), message)
        if op == "update":
            return await self._op_update(message)
        if op == "flush":
            return await self._op_flush()
        if op == "healthz":
            return protocol.ok("healthz", **self.health())
        if op == "metrics":
            return protocol.ok("metrics", text=self.metrics_text())
        if op == "shutdown":
            asyncio.ensure_future(self.stop())
            return protocol.ok("shutdown")
        return protocol.error(
            str(op), protocol.CODE_UNSUPPORTED, f"unknown op {op!r}"
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    async def _admit(self, op: str, message: protocol.Message) -> protocol.Message:
        if "vertex" not in message:
            raise ProtocolError(f"{op} requires a 'vertex' field")
        if op == "pair" and "other" not in message:
            raise ProtocolError("pair requires an 'other' field")
        loop = asyncio.get_running_loop()
        timeout = message.get("timeout_ms")
        if timeout is None and self.config.default_timeout is not None:
            timeout = self.config.default_timeout * 1000.0
        deadline = loop.time() + float(timeout) / 1000.0 if timeout else None
        ticket = Ticket(
            op=op, payload=message, future=loop.create_future(), deadline=deadline
        )
        assert self.queue is not None
        # Shed/closed tickets have their future resolved synchronously
        # by the queue, so awaiting is correct on every path.
        self.queue.offer(ticket)
        return await ticket.future

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    async def _op_update(self, message: protocol.Message) -> protocol.Message:
        if self.dynamic is None:
            return protocol.error(
                "update",
                protocol.CODE_UNSUPPORTED,
                "server wraps a static engine; updates need a DynamicSimRankEngine",
            )
        add = message.get("add", [])
        remove = message.get("remove", [])
        if not isinstance(add, list) or not isinstance(remove, list):
            raise ProtocolError("update 'add'/'remove' must be lists of [u, v] pairs")
        assert self._mutate_lock is not None
        async with self._mutate_lock:
            added = sum(bool(self.dynamic.add_edge(int(u), int(v))) for u, v in add)
            removed = sum(
                bool(self.dynamic.remove_edge(int(u), int(v))) for u, v in remove
            )
            pending = self.dynamic.pending_edits
        pipeline = self.pipeline
        if pipeline is not None and pending > pipeline.max_pending:
            # Backpressure: block this writer (off the event loop and off
            # the mutate lock — other sessions keep staging and querying)
            # until the flusher drains the backlog below max_pending.
            await asyncio.to_thread(pipeline.throttle, 30.0)
            pending = self.dynamic.pending_edits
        return protocol.ok("update", added=added, removed=removed, pending=pending)

    async def _op_flush(self) -> protocol.Message:
        if self.dynamic is None:
            return protocol.error(
                "flush",
                protocol.CODE_UNSUPPORTED,
                "server wraps a static engine; nothing to flush",
            )
        loop = asyncio.get_running_loop()
        assert self._mutate_lock is not None and self._executor is not None
        async with self._mutate_lock:
            # The rebuild runs on the executor so queries keep being
            # answered (on the outgoing snapshot) while it happens; the
            # flush listener publishes the new snapshot atomically.
            stats = await loop.run_in_executor(self._executor, self.dynamic.flush)
        return protocol.ok(
            "flush",
            edits_applied=stats.edits_applied,
            vertices_affected=stats.vertices_affected,
            full_rebuild=stats.full_rebuild,
            elapsed_seconds=stats.elapsed_seconds,
            epoch=self.handle.epoch,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self) -> protocol.Message:
        """The ``/healthz`` payload."""
        latency = self.registry.get("serve", "request_latency_seconds")
        snapshot = self.handle.current()
        payload: protocol.Message = {
            "status": "ok" if not self._stopping else "stopping",
            "epoch": snapshot.epoch,
            "vertices": snapshot.engine.graph.n,
            "edges": snapshot.engine.graph.m,
            "queue_depth": len(self.queue) if self.queue is not None else 0,
            "queue_capacity": self.config.queue_capacity,
            "pending_edits": self.dynamic.pending_edits if self.dynamic else 0,
            "shed_total": self.queue.shed_count if self.queue is not None else 0,
            "p95_latency_ms": (
                latency.quantile(0.95) * 1000.0 if latency is not None else 0.0
            ),
        }
        if self.dynamic is not None:
            age = self.dynamic.snapshot_age_seconds
            flush: protocol.Message = {
                "epoch": self.dynamic.flush_epoch,
                "snapshot_age_seconds": age,
                "staged_age_seconds": self.dynamic.staged_age_seconds,
                "pipeline": self.pipeline is not None,
            }
            if self.pipeline is not None:
                flush["flush_count"] = self.pipeline.flush_count
                flush["max_staleness"] = self.pipeline.max_staleness
                flush["max_pending"] = self.pipeline.max_pending
                if self.pipeline.last_error is not None:
                    flush["last_error"] = (
                        f"{type(self.pipeline.last_error).__name__}: "
                        f"{self.pipeline.last_error}"
                    )
            if self._flush_error is not None:
                flush["last_error"] = self._flush_error
            payload["flush"] = flush
            # /healthz doubles as the gauge poll point: exporters scrape
            # /metrics, operators curl /healthz — keep both fresh.
            if obs.OBS.enabled:
                obs.set_flush_queue_depth(self.dynamic.pending_edits)
                obs.set_dynamic_snapshot_age(age)
        shard_rows = self.handle.shard_status()
        if shard_rows is not None:
            payload["shards"] = shard_rows
        if self.controller is not None:
            controller = self.controller.status()
            if self._controller_error is not None:
                controller["error"] = self._controller_error
            payload["controller"] = controller
        elif self.config.autotune:
            payload["controller"] = {"state": "starting"}
        return payload

    def metrics_text(self) -> str:
        """Prometheus exposition of the server's registry (+ derived gauges)."""
        return obs_export.to_prometheus(
            obs_export.with_derived(self.registry.snapshot())
        )

    # ------------------------------------------------------------------
    # Minimal HTTP endpoints
    # ------------------------------------------------------------------

    async def _handle_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # Drain headers (we need none of them).
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        parts = request_line.decode("latin-1").split()
        method = parts[0] if parts else ""
        path = parts[1] if len(parts) > 1 else "/"
        if method not in ("GET", "HEAD"):
            body, status, ctype = "method not allowed\n", "405 Method Not Allowed", "text/plain"
        elif path == "/healthz":
            body = json.dumps(self.health(), sort_keys=True) + "\n"
            status, ctype = "200 OK", "application/json"
        elif path == "/metrics":
            body = self.metrics_text()
            status, ctype = "200 OK", "text/plain; version=0.0.4"
        else:
            body, status, ctype = "not found\n", "404 Not Found", "text/plain"
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head if method == "HEAD" else head + payload)
        await writer.drain()


class ServerThread:
    """Run a :class:`SimRankServer` on a background thread's event loop.

    The blocking-world harness used by tests, the example service, and
    anyone embedding the server next to synchronous code::

        server = SimRankServer(engine, ServeConfig(port=0))
        thread = ServerThread(server)
        port = thread.start()
        ... ServeClient("127.0.0.1", port) ...
        thread.stop()
    """

    def __init__(self, server: SimRankServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> int:
        """Boot the loop + server; block until bound; return the port."""
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("server did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        assert self.server.port is not None
        return self.server.port

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        except BaseException as exc:  # startup failed; report to start()
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self.server.wait_stopped()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join the loop thread (idempotent)."""
        if self._thread is None:
            return
        stopping = future = None
        # A shutdown op already running stop() needs no second one.
        if (self._loop is not None and self._thread.is_alive()
                and not self.server._stopping):
            stopping = self.server.stop()
            try:
                future = asyncio.run_coroutine_threadsafe(stopping, self._loop)
            except RuntimeError:  # the loop closed in between
                pass
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("server thread did not stop in time")
        self._thread = None
        # The loop may have wound down before it ran the scheduled
        # stop(); close the coroutine so it is not left unawaited.
        if stopping is not None and (future is None or not future.done()):
            stopping.close()
