"""Serve integration: epoch-pinned engines and the sharded handle.

:class:`ShardedEngine` is the duck-typed engine a serve snapshot holds
when the backend is sharded: it pins one pool epoch forever, so the
snapshot-isolation contract of :mod:`repro.serve.lifecycle` carries
over unchanged — a micro-batch captured on epoch E keeps answering
from epoch E even while a flush publishes E+1 (workers retain two
epochs; see :class:`~repro.shard.pool.ShardPool`).

:class:`ShardHandle` subclasses :class:`EngineHandle`; the only change
is that making a snapshot *publishes* the engine to the pool first and
wraps a :class:`ShardedEngine` instead of the local engine.  Everything
else — swap-on-flush, the cache-per-snapshot rule, the lock — is
inherited, which is what lets the PR-2 acceptance tests run against
this backend unmodified.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.dynamic import FlushStats
from repro.core.engine import SimRankEngine
from repro.core.query import TopKResult
from repro.serve.lifecycle import EngineHandle, EngineSnapshot
from repro.shard.pool import ShardPool
from repro.workloads import CachedSimRankEngine


__all__ = ["ShardedEngine", "ShardHandle"]


class ShardedEngine:
    """An engine façade pinned to one `(pool, epoch)` pair.

    Quacks like :class:`SimRankEngine` for everything the serve layer
    touches (``top_k``, ``single_pair``, ``graph``, ``config``,
    ``seed``); answers are bit-identical to the local engine's.
    """

    def __init__(self, pool: ShardPool, epoch: int, local: SimRankEngine) -> None:
        self._pool = pool
        self._epoch = epoch
        self._local = local
        self.graph = local.graph
        self.config = local.config
        self.diagonal = local.diagonal

    @property
    def seed(self) -> Any:
        return self._local.seed

    @property
    def pool_epoch(self) -> int:
        """The pool epoch this engine is pinned to."""
        return self._epoch

    @property
    def is_preprocessed(self) -> bool:
        return True

    def top_k(self, u: int, k: Optional[int] = None, **kwargs: Any) -> TopKResult:
        return self._pool.top_k(u, k=k, epoch=self._epoch, **kwargs)

    def single_pair(self, u: int, v: int) -> float:
        return self._pool.single_pair(u, v, epoch=self._epoch)

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(n={self.graph.n}, epoch={self._epoch}, "
            f"shards={self._pool.n_shards})"
        )


class ShardHandle(EngineHandle):
    """An :class:`EngineHandle` whose snapshots answer from a shard pool.

    ``swap`` (and therefore every dynamic-engine flush) publishes the
    new engine to all workers *before* the snapshot pointer moves, so a
    request admitted one instant after the swap is already routed to the
    new epoch while in-flight batches drain on the old one — the same
    zero-downtime story as single-process, extended across processes.
    """

    def __init__(
        self,
        engine: SimRankEngine,
        n_shards: int,
        cache_capacity: Optional[int] = 1024,
        gather_timeout: float = 60.0,
        delta_fraction: float = 0.25,
    ) -> None:
        if not engine.is_preprocessed:
            engine.preprocess()
        # The pool publishes epoch 0 in its constructor; the base
        # EngineHandle.__init__ then builds the epoch-0 snapshot around
        # it via our _make_snapshot override.
        self._pool = ShardPool(
            engine,
            n_shards,
            gather_timeout=gather_timeout,
            delta_fraction=delta_fraction,
        )
        # Stashed by _swap_from_flush for the duration of one swap; the
        # swap lock serialises it with _make_snapshot (same thread).
        self._pending_delta: Optional[FlushStats] = None
        super().__init__(engine, cache_capacity=cache_capacity)

    def _swap_from_flush(self, engine: SimRankEngine, stats: FlushStats) -> None:
        """Roll the pool forward with the flush's row-level delta.

        ``swap`` → ``_make_snapshot`` runs on the flusher thread that
        invoked the listener, so stashing the stats on the handle for
        that window is safe; cleared in ``finally`` so a failed publish
        can never leak a stale delta into a later full swap.
        """
        self._pending_delta = stats
        try:
            self.swap(engine)
        finally:
            self._pending_delta = None

    def _make_snapshot(self, engine: SimRankEngine, epoch: int) -> EngineSnapshot:
        if epoch != self._pool.epoch:
            delta = self._pending_delta
            published = (
                self._pool.publish_delta(engine, delta, epoch=epoch)
                if delta is not None
                else None
            )
            if published is None:
                self._pool.publish(engine, epoch=epoch)
        sharded = ShardedEngine(self._pool, epoch, engine)
        cache = (
            CachedSimRankEngine(sharded, capacity=self._cache_capacity)  # type: ignore[arg-type]
            if self._cache_capacity
            else None
        )
        return EngineSnapshot(sharded, cache, epoch)  # type: ignore[arg-type]

    @property
    def pool(self) -> ShardPool:
        return self._pool

    def apply_engine_overrides(self, **overrides: Any) -> EngineSnapshot:
        """Apply live query-time overrides and broadcast them to the pool.

        The base class republishes the local snapshot (validating the
        override names/values in the process); the pool then carries
        the merged set inside every routed query, so the worker answers
        under the settings current when the query started, even while
        the change propagates (see :meth:`ShardPool.top_k`).
        """
        snapshot = super().apply_engine_overrides(**overrides)
        self._pool.set_overrides(self.engine_overrides())
        return snapshot

    def shard_status(self) -> Optional[List[Dict[str, Any]]]:
        """Per-shard liveness and epoch (the /healthz payload rows)."""
        return self._pool.health()

    def close(self) -> None:
        """Detach from any dynamic engine and stop the worker pool."""
        self.detach()
        self._pool.close()
