"""`ShardPool` — worker processes, epoch lifecycle, query routing.

One pool owns N spawned workers (spawn, not fork: the parent runs a
threaded server) connected by duplex pipes.  Each *publish* exports the
engine's arrays into a fresh shared-memory segment, broadcasts the
manifest, and waits for every worker to attach before the epoch becomes
current — so a query never races a half-loaded epoch.  Workers retain
the previous epoch too; a published epoch E is *released* (views
dropped, segment unlinked) only once E+2 exists and every in-flight
query pinned to E has drained.  That is the zero-downtime contract:
swaps and flushes never invalidate a snapshot someone is reading.

Queries are routed, not scattered: each ``top_k`` (and each ``pair``)
goes whole to the live worker with the fewest requests in flight, the
lowest ``shard_id`` on a tie, which answers it with the single-process
engine on the pinned epoch (:mod:`repro.shard.worker`).  Independent
queries thus run on as many cores as there are workers, as in the
paper's all-vertices mode (§2.2).

Failure policy: a dead worker fails its pending queries with
:class:`ShardCrashError` immediately (the per-worker reader thread sees
EOF on the pipe), and once any worker is dead every query fails fast —
it is not rerouted to the survivors.  A clean error, never a hang.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeoutError
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.core.query import TopKResult, query_args
from repro.errors import (
    ShardCrashError,
    ShardError,
    ShardTimeoutError,
    VertexError,
)
from repro.obs import instrument as obs
from repro.shard.codec import delta_to_arrays, engine_to_arrays
from repro.shard.memory import SharedArrayBundle
# Unused here; benchmarks/e2e/traced_server.py:193 still wraps it by name.
from repro.shard.merge import replay_merge  # noqa: F401
from repro.shard.worker import worker_main
from repro.utils.sync import make_lock


__all__ = ["ShardPool"]


class _Worker:
    """Parent-side state of one shard worker process."""

    def __init__(self, pool: "ShardPool", shard_id: int) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.pool = pool
        self.shard_id = shard_id
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, shard_id),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.alive = True
        self.pending: Dict[int, Future] = {}  # locked-by: _lock
        self._lock = make_lock(f"shard._Worker[{shard_id}]._lock")
        self.reader = threading.Thread(
            target=self._read_loop, name=f"repro-shard-reader-{shard_id}", daemon=True
        )
        self.reader.start()

    def request(self, msg: Dict[str, Any]) -> Future:
        """Send one message; the returned future resolves with the reply."""
        future: Future = Future()
        msg_id = next(self.pool._ids)
        msg = dict(msg, id=msg_id)
        with self._lock:
            if not self.alive:
                future.set_exception(
                    ShardCrashError(f"shard {self.shard_id} worker is dead")
                )
                return future
            self.pending[msg_id] = future
            try:
                self.conn.send(msg)
            except (OSError, ValueError, BrokenPipeError) as exc:
                self.pending.pop(msg_id, None)
                future.set_exception(
                    ShardCrashError(f"shard {self.shard_id} pipe broken: {exc}")
                )
        return future

    def _read_loop(self) -> None:
        while True:
            try:
                reply = self.conn.recv()
            except (EOFError, OSError):
                break
            future = None
            with self._lock:
                future = self.pending.pop(reply.get("id", -1), None)
            if future is None:
                continue
            if reply.get("ok"):
                future.set_result(reply.get("result"))
            else:
                future.set_exception(
                    ShardError(f"shard {self.shard_id}: {reply.get('error')}")
                )
        # Pipe is gone: clean shutdown or a crash.
        crashed = False
        with self._lock:
            if self.alive and not self.pool._closing:
                crashed = True
            self.alive = False
            drained = list(self.pending.values())
            self.pending.clear()
        for future in drained:
            future.set_exception(
                ShardCrashError(
                    f"shard {self.shard_id} worker died with requests in flight"
                )
            )
        if crashed and obs.OBS.enabled:
            obs.record_shard_crash()


class ShardPool:
    """A pool of shard workers serving one engine, epoch by epoch.

    ``ShardPool(engine, n_shards)`` spawns the workers and publishes the
    engine as epoch 0; ``publish(new_engine)`` rolls all workers to a
    new epoch without dropping a query.  Requires an integer (or None)
    engine seed, like :meth:`SimRankEngine.top_k_all_parallel` — with
    ``None`` the pool fixes a random integer seed at publish time so all
    shards still derive identical streams (answers are then
    deterministic per pool, though not reproducible across runs).
    """

    def __init__(
        self,
        engine: SimRankEngine,
        n_shards: int,
        gather_timeout: float = 60.0,
        delta_fraction: float = 0.25,
    ) -> None:
        if n_shards < 1:
            raise ShardError(f"n_shards must be >= 1, got {n_shards}")
        if not 0.0 <= delta_fraction <= 1.0:
            raise ShardError(
                f"delta_fraction must be in [0, 1], got {delta_fraction}"
            )
        if engine.seed is not None and not isinstance(engine.seed, int):
            raise ValueError("ShardPool needs an integer (or None) engine seed")
        if not engine.is_preprocessed:
            engine.preprocess()
        self.n_shards = n_shards
        self.gather_timeout = gather_timeout
        self.delta_fraction = delta_fraction
        self._fallback_seed = int.from_bytes(os.urandom(4), "little")
        self._ids = itertools.count(1)
        self._closing = False
        self._lock = make_lock("ShardPool._lock")
        self._epochs: Dict[int, Dict[str, Any]] = {}  # locked-by: _lock
        self._current_epoch: Optional[int] = None  # locked-by: _lock
        self._overrides: Dict[str, Any] = {}  # locked-by: _lock
        # Per worker: routed requests whose answer the caller has not
        # yet taken — the load the router balances.
        self._route_lock = make_lock("ShardPool._route_lock")
        self._in_flight = [0] * n_shards  # locked-by: _route_lock
        self.engine = engine  # the latest published (local) engine
        self.workers = [_Worker(self, i) for i in range(n_shards)]
        try:
            self.publish(engine, epoch=0)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        with self._lock:
            if self._current_epoch is None:
                raise ShardError("pool has no published epoch")
            return self._current_epoch

    def publish(self, engine: SimRankEngine, epoch: Optional[int] = None) -> int:
        """Export ``engine`` to shared memory and roll every worker to it.

        Blocks until all workers have attached; only then does the new
        epoch become current.  Older epochs are swept (released on the
        workers, unlinked here) once they fall two generations behind
        and their in-flight queries drain.
        """
        if self._closing:
            raise ShardError("pool is closed")
        if engine.seed is not None and not isinstance(engine.seed, int):
            raise ValueError("ShardPool needs an integer (or None) engine seed")
        seed = engine.seed if isinstance(engine.seed, int) else self._fallback_seed
        with self._lock:
            if epoch is None:
                epoch = 0 if self._current_epoch is None else self._current_epoch + 1
            if epoch in self._epochs:
                raise ShardError(f"epoch {epoch} is already published")
        arrays, meta = engine_to_arrays(engine, seed)
        bundle = SharedArrayBundle.export(arrays)
        msg = {
            "op": "load_epoch",
            "epoch": epoch,
            "manifest": bundle.manifest(),
            "meta": meta,
        }
        try:
            self._gather([w.request(msg) for w in self.workers], "load_epoch")
        except ShardError:
            bundle.close()
            raise
        with self._lock:
            self._epochs[epoch] = {
                "bundle": bundle, "inflight": 0, "engine": engine,
            }
            self._current_epoch = epoch
            self.engine = engine
        self._sweep_releases()
        self._record_epoch_gauges()
        return epoch

    def publish_delta(
        self,
        engine: SimRankEngine,
        stats: Any,
        epoch: Optional[int] = None,
    ) -> Optional[int]:
        """Roll every worker forward by shipping only one flush's delta.

        ``engine`` is the patched engine a
        :meth:`~repro.core.dynamic.DynamicSimRankEngine.flush` produced
        and ``stats`` its :class:`~repro.core.dynamic.FlushStats`.
        Instead of re-exporting the O(n + m) array set, the pool exports
        an O(Δ + affected-rows) delta segment — edited edges plus the
        affected vertices' fresh signature/γ rows — and workers patch
        their resident base epoch in place (:func:`patch_engine_arrays`),
        arriving at arrays bit-identical to a full
        :func:`engine_to_arrays` of ``engine``.

        Returns the new epoch, or **None** when the delta is not
        eligible — a full rebuild, an affected set above
        ``delta_fraction`` of all vertices (re-export is cheaper), or a
        base mismatch — in which case the caller falls back to
        :meth:`publish`.  Worker-side failures raise loudly; nothing is
        published partially (the epoch only becomes current after every
        worker acks).
        """
        if self._closing:
            raise ShardError("pool is closed")
        if engine.seed is not None and not isinstance(engine.seed, int):
            raise ValueError("ShardPool needs an integer (or None) engine seed")
        new_n = engine.graph.n
        if (
            getattr(stats, "full_rebuild", True)
            or len(stats.affected) > self.delta_fraction * new_n
        ):
            return None
        seed = engine.seed if isinstance(engine.seed, int) else self._fallback_seed
        with self._lock:
            base_epoch = self._current_epoch
            if base_epoch is None:
                return None
            base_state = self._epochs.get(base_epoch)
            if epoch is None:
                epoch = base_epoch + 1
            if epoch in self._epochs:
                raise ShardError(f"epoch {epoch} is already published")
        # The delta was computed against the currently published graph;
        # anything else (a missed epoch, a seed change) disqualifies it.
        if (
            base_state is None
            or stats.old_n != base_state["engine"].graph.n
            or stats.new_n != new_n
        ):
            return None
        arrays = delta_to_arrays(
            engine, stats.adds, stats.removes, stats.affected, stats.old_n
        )
        bundle = SharedArrayBundle.export(arrays, name_hint="repro-shard-delta")
        msg = {
            "op": "patch",
            "epoch": epoch,
            "base_epoch": base_epoch,
            "manifest": bundle.manifest(),
            "meta": {
                "n": new_n,
                "seed": int(seed),
                "config": engine.config.to_dict(),
                "build_seconds": engine.index.build_seconds,
            },
        }
        try:
            self._gather([w.request(msg) for w in self.workers], "patch")
        finally:
            # Workers copied what they needed; the delta segment's whole
            # life is one patch broadcast.
            bundle.close()
        with self._lock:
            # Patched epochs own no parent-side segment: workers hold
            # process-local arrays, there is nothing to unlink on release.
            self._epochs[epoch] = {
                "bundle": None, "inflight": 0, "engine": engine,
            }
            self._current_epoch = epoch
            self.engine = engine
        if obs.OBS.enabled:
            obs.record_shard_delta_publish()
        self._sweep_releases()
        self._record_epoch_gauges()
        return epoch

    def set_overrides(self, overrides: Dict[str, Any]) -> None:
        """Replace the query-time config overrides every query carries.

        Each query takes the set current when it starts, and its message
        carries that set to the worker, which answers on a
        :meth:`~SimRankEngine.with_config` view — so a routed answer
        equals the local engine's view under the same overrides, through
        a live tune.  Validated by building the engine view up front.
        """
        merged = dict(overrides)
        self.engine.with_config(**merged)  # raises on a bad field/value
        with self._lock:
            self._overrides = merged

    def query_config(self) -> "SimRankConfig":
        """The effective config queries run under (engine + overrides)."""
        with self._lock:
            overrides = dict(self._overrides)
        return (
            self.engine.config.with_(**overrides) if overrides else self.engine.config
        )

    def _pin(self, epoch: Optional[int]) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            if self._current_epoch is None:
                raise ShardError("pool has no published epoch")
            pinned = self._current_epoch if epoch is None else epoch
            state = self._epochs.get(pinned)
            if state is None:
                raise ShardError(
                    f"epoch {pinned} is no longer resident (current is "
                    f"{self._current_epoch}); the snapshot outlived the "
                    "pool's two-epoch retention window"
                )
            state["inflight"] += 1
            return pinned, state

    def _unpin(self, epoch: int) -> None:
        with self._lock:
            state = self._epochs.get(epoch)
            if state is not None:
                state["inflight"] -= 1
        self._sweep_releases()

    def _sweep_releases(self) -> None:
        """Release every epoch ≥2 generations old with no in-flight pins."""
        to_release: List[int] = []
        with self._lock:
            if self._current_epoch is None:
                return
            for e, state in list(self._epochs.items()):
                if e <= self._current_epoch - 2 and state["inflight"] == 0:
                    to_release.append(e)
        for e in to_release:
            with self._lock:
                state = self._epochs.pop(e, None)
            if state is None:
                continue
            futures = [
                w.request({"op": "release_epoch", "epoch": e})
                for w in self.workers
                if w.alive
            ]
            try:
                self._gather(futures, "release_epoch")
            finally:
                if state["bundle"] is not None:
                    state["bundle"].close()

    # ------------------------------------------------------------------
    # Query plane
    # ------------------------------------------------------------------

    def top_k(
        self,
        u: int,
        k: Optional[int] = None,
        epoch: Optional[int] = None,
        use_l1: bool = True,
        use_l2: bool = True,
        adaptive: bool = True,
        extra_candidates: Optional[Sequence[int]] = None,
        timings_out: Optional[Dict[str, Any]] = None,
    ) -> TopKResult:
        """Route the whole query to one worker, which runs ``engine.top_k``.

        Bit-identical to ``engine.top_k(u, k)`` on the pinned epoch's
        engine (same integer seed), including the stats counters.
        ``timings_out`` receives the wall time and, per worker, its CPU
        busy time: the routed worker's, and 0.0 for the rest.
        """
        start = time.perf_counter()
        with self._lock:
            overrides = dict(self._overrides)
        pinned, state = self._pin(epoch)
        try:
            engine = state["engine"]
            config = engine.config.with_(**overrides) if overrides else engine.config
            k, extra = query_args(engine.graph.n, int(u), k, config, extra_candidates)
            worker, reply = self._call({
                "op": "top_k",
                "epoch": pinned,
                "u": int(u),
                "k": k,
                "use_l1": use_l1,
                "use_l2": use_l2,
                "adaptive": adaptive,
                "extra_candidates": extra,
                "overrides": overrides or None,
            }, "top_k")
        finally:
            self._unpin(pinned)
        result: TopKResult = reply["result"]
        elapsed = time.perf_counter() - start
        result.stats.elapsed_seconds = elapsed
        if timings_out is not None:
            timings_out["wall_seconds"] = elapsed
            timings_out["busy_seconds"] = [
                float(reply["busy_seconds"]) if w is worker else 0.0
                for w in self.workers
            ]
        if obs.OBS.enabled:
            obs.record_query(result.stats)
            obs.record_shard_query(elapsed)
        return result

    def single_pair(self, u: int, v: int, epoch: Optional[int] = None) -> float:
        """Route ``s(u, v)`` to the least-loaded worker."""
        with self._lock:
            overrides = dict(self._overrides)
        pinned, state = self._pin(epoch)
        try:
            n = state["engine"].graph.n
            for vertex in (u, v):
                if not 0 <= int(vertex) < n:
                    raise VertexError(int(vertex), n)
            if int(u) == int(v):
                return 1.0
            _, value = self._call(
                {
                    "op": "pair",
                    "epoch": pinned,
                    "u": int(u),
                    "v": int(v),
                    "overrides": overrides or None,
                },
                "pair",
            )
        finally:
            self._unpin(pinned)
        return float(value)

    def _call(self, msg: Dict[str, Any], what: str) -> Tuple[_Worker, Any]:
        """Send ``msg`` to the worker with the fewest requests in flight
        (the lowest ``shard_id`` on a tie) and wait for its reply."""
        with self._route_lock:
            self._check_alive()
            worker = min(self.workers, key=lambda w: self._in_flight[w.shard_id])
            self._in_flight[worker.shard_id] += 1
            future = worker.request(msg)
        try:
            (reply,) = self._gather([future], what)
        finally:
            with self._route_lock:
                self._in_flight[worker.shard_id] -= 1
        self._check_alive()
        return worker, reply

    def _check_alive(self) -> None:
        """Fail fast once any worker is dead: queries are not rerouted."""
        for w in self.workers:
            if not w.alive:
                raise ShardCrashError(f"shard {w.shard_id} worker is dead")

    # ------------------------------------------------------------------
    # Health / shutdown
    # ------------------------------------------------------------------

    def health(self, timeout: float = 2.0) -> List[Dict[str, Any]]:
        """Liveness + loaded epochs per shard (never raises for a dead one)."""
        rows: List[Dict[str, Any]] = []
        futures = []
        for w in self.workers:
            futures.append(w.request({"op": "health"}) if w.alive else None)
        for w, future in zip(self.workers, futures):
            row: Dict[str, Any] = {"shard": w.shard_id, "alive": False, "epoch": None}
            if future is not None:
                try:
                    info = future.result(timeout=timeout)
                    epochs = info.get("epochs", [])
                    row["alive"] = True
                    row["epoch"] = max(epochs) if epochs else None
                except Exception:
                    pass
            rows.append(row)
        self._record_epoch_gauges(rows)
        return rows

    def _record_epoch_gauges(
        self, rows: Optional[List[Dict[str, Any]]] = None
    ) -> None:
        if not obs.OBS.enabled:
            return
        with self._lock:
            current = self._current_epoch
        if current is None:
            return
        if rows is None:
            # Cheap local view: a live worker is always at the current
            # epoch once publish() returned (publish blocks on acks).
            worker_epochs = [current for w in self.workers if w.alive]
        else:
            worker_epochs = [
                int(r["epoch"]) for r in rows if r["alive"] and r["epoch"] is not None
            ]
        floor = min(worker_epochs) if worker_epochs else current
        obs.set_shard_epochs(current=current, workers_min=floor)

    def close(self) -> None:
        """Stop every worker and unlink every segment (idempotent)."""
        if self._closing:
            return
        self._closing = True
        stop_futures = [
            w.request({"op": "stop"}) for w in self.workers if w.alive
        ]
        for future in stop_futures:
            try:
                future.result(timeout=5.0)
            except Exception:
                pass
        for w in self.workers:
            w.process.join(timeout=5.0)
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=5.0)
            try:
                w.conn.close()
            except OSError:
                pass
        with self._lock:
            states = list(self._epochs.values())
            self._epochs.clear()
        for state in states:
            if state["bundle"] is not None:
                state["bundle"].close()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ShardPool(n_shards={self.n_shards}, "
                f"epoch={self._current_epoch}, closed={self._closing})"
            )

    # ------------------------------------------------------------------

    def _gather(self, futures: Sequence[Future], what: str) -> List[Any]:
        """Wait for all futures under one deadline; first error wins."""
        deadline = time.monotonic() + self.gather_timeout
        results: List[Any] = []
        for future in futures:
            remaining = deadline - time.monotonic()
            try:
                results.append(future.result(timeout=max(0.0, remaining)))
            except (_FutureTimeoutError, TimeoutError):
                raise ShardTimeoutError(
                    f"{what} did not complete within {self.gather_timeout:.1f}s"
                ) from None
        return results
