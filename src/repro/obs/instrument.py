"""Instrumentation glue between the pipeline and the metrics registry.

The whole subsystem hangs off one module-level switch, ``OBS.enabled``
(default ``False``).  Every hook site in the hot paths is written as::

    from repro.obs import instrument as obs
    ...
    if obs.OBS.enabled:
        obs.record_query(stats)

so the *disabled* cost is a single attribute check — no function call,
no allocation — which is what keeps the tier-1 benchmark numbers
untouched when metrics are off.

**Scoped registries** (:func:`collecting`) exist for the parallel
sweep: each worker chunk collects into a private registry, ships its
snapshot back, and the parent merges — giving one registry whose
counter totals are identical to a sequential run's, regardless of how
vertices were chunked.  The same mechanism isolates per-benchmark
sidecars without disturbing a surrounding session registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, ContextManager, Iterator, List, Optional

from repro.obs import catalog
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    Snapshot,
)
from repro.obs.tracing import Tracer

if TYPE_CHECKING:  # core imports this module; keep the reverse edge type-only
    from repro.core.index import CandidateIndex
    from repro.core.query import QueryStats

__all__ = [
    "Observability",
    "OBS",
    "enable",
    "disable",
    "enabled",
    "reset",
    "get_registry",
    "snapshot",
    "trace",
    "collecting",
    "session",
    "record_query",
    "record_preprocess",
    "record_index",
    "record_walk_bundle",
    "record_walk_batch",
    "record_cache",
    "merge_worker_snapshot",
    "push_registry",
    "pop_registry",
    "record_serve_request",
    "record_serve_shed",
    "record_serve_deadline_expired",
    "record_serve_error",
    "record_serve_batch",
    "record_serve_swap",
    "set_serve_queue_depth",
    "record_shard_query",
    "record_shard_crash",
    "record_shard_delta_publish",
    "set_shard_epochs",
    "record_control_tick",
    "record_control_step",
    "record_control_rollback",
    "record_control_guard_trip",
    "set_control_knob",
    "record_flush",
    "set_flush_queue_depth",
    "set_dynamic_snapshot_age",
]


class Observability:
    """Process-wide observability state (one instance: :data:`OBS`)."""

    __slots__ = ("enabled", "registry", "tracer", "_stack")

    def __init__(self) -> None:
        self.enabled: bool = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self._stack: List[MetricsRegistry] = []


OBS = Observability()


# ---------------------------------------------------------------------------
# Switches
# ---------------------------------------------------------------------------

def enable(tracing: bool = False) -> None:
    """Turn metric collection on (and optionally span tracing)."""
    OBS.enabled = True
    if tracing:
        OBS.tracer.enable()


def disable() -> None:
    """Turn collection off; recorded metrics are kept until :func:`reset`."""
    OBS.enabled = False
    OBS.tracer.disable()


def enabled() -> bool:
    return OBS.enabled


def reset() -> None:
    """Drop all recorded metrics and spans (the on/off switches are kept)."""
    OBS.registry.reset()
    OBS.tracer.clear()


def get_registry() -> MetricsRegistry:
    """The registry currently collecting (scoped one if inside :func:`collecting`)."""
    return OBS._stack[-1] if OBS._stack else OBS.registry


def snapshot() -> Snapshot:
    """Snapshot of the active registry."""
    return get_registry().snapshot()


def trace(name: str, **attrs: object) -> ContextManager[None]:
    """Span context manager on the global tracer (no-op when disabled)."""
    return OBS.tracer.trace(name, **attrs)


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Route all recording to a private registry inside the block.

    Used by parallel worker chunks and benchmark sidecars.  Nestable;
    the previous target is restored on exit.
    """
    target = registry if registry is not None else MetricsRegistry()
    OBS._stack.append(target)
    try:
        yield target
    finally:
        OBS._stack.pop()


@contextmanager
def session(tracing: bool = False) -> Iterator[MetricsRegistry]:
    """Enable collection for the block, restoring the prior switch after.

    Convenience for tests and notebooks::

        with obs.session() as registry:
            engine.top_k(5)
        print(registry.counter_value("query", "queries_total"))
    """
    was_enabled = OBS.enabled
    enable(tracing=tracing)
    try:
        with collecting() as registry:
            yield registry
    finally:
        if not was_enabled:
            disable()


# ---------------------------------------------------------------------------
# Recording hooks (callers gate on OBS.enabled first)
# ---------------------------------------------------------------------------

def record_query(stats: "QueryStats") -> None:
    """Fold one query's :class:`~repro.core.query.QueryStats` into the registry."""
    registry = get_registry()
    registry.counter(*catalog.QUERY_COUNT).inc()
    registry.counter(*catalog.QUERY_CANDIDATES).inc(stats.candidates)
    registry.counter(*catalog.QUERY_PRUNED_BY_BOUND).inc(stats.pruned_by_bound)
    registry.counter(*catalog.QUERY_SKIPPED_BY_TERMINATION).inc(
        stats.skipped_by_termination
    )
    registry.counter(*catalog.QUERY_SCREENED).inc(stats.screened)
    registry.counter(*catalog.QUERY_REFINED).inc(stats.refined)
    registry.counter(*catalog.QUERY_SAMPLES).inc(stats.walks_simulated)
    if stats.fallback_used:
        registry.counter(*catalog.QUERY_FALLBACK).inc()
    registry.histogram(*catalog.QUERY_LATENCY).observe(stats.elapsed_seconds)


def record_preprocess(
    vertices: int,
    seconds: float,
    signature_seconds: float = 0.0,
    gamma_seconds: float = 0.0,
    invert_seconds: float = 0.0,
) -> None:
    """One full index build (Algorithm 4 + Algorithm 3 + candidate graph H)."""
    registry = get_registry()
    registry.counter(*catalog.PREPROCESS_BUILDS).inc()
    registry.counter(*catalog.PREPROCESS_VERTICES).inc(vertices)
    registry.gauge(*catalog.PREPROCESS_SECONDS).set(seconds)
    registry.gauge(*catalog.PREPROCESS_SIGNATURE_SECONDS).set(signature_seconds)
    registry.gauge(*catalog.PREPROCESS_GAMMA_SECONDS).set(gamma_seconds)
    registry.gauge(*catalog.PREPROCESS_INVERT_SECONDS).set(invert_seconds)


def record_index(index: "CandidateIndex") -> None:
    """Shape of a freshly built/loaded :class:`~repro.core.index.CandidateIndex`."""
    registry = get_registry()
    registry.gauge(*catalog.INDEX_BYTES).set(index.nbytes())
    registry.gauge(*catalog.INDEX_SIGNATURE_MEAN).set(
        index.signature_size_stats()["mean"]
    )
    postings = registry.histogram(
        *catalog.INDEX_POSTINGS_LENGTH, buckets=DEFAULT_SIZE_BUCKETS
    )
    lengths = index.H.in_degrees
    for length in lengths[lengths > 0].tolist():
        postings.observe(length)


def record_walk_bundle(walks: int, steps: int, meetings: int = 0) -> None:
    """One Monte-Carlo bundle: ``walks`` reverse walks of ``steps`` total steps."""
    registry = get_registry()
    registry.counter(*catalog.WALKS_BUNDLES).inc()
    registry.counter(*catalog.WALKS_WALKS).inc(walks)
    registry.counter(*catalog.WALKS_STEPS).inc(steps)
    if meetings:
        registry.counter(*catalog.WALKS_MEETINGS).inc(meetings)


def record_walk_batch(size: int) -> None:
    """One fused ``estimate_batch`` call scoring ``size`` candidates."""
    get_registry().histogram(
        *catalog.WALKS_BATCH_SIZE, buckets=DEFAULT_SIZE_BUCKETS
    ).observe(size)


def record_cache(event: str, amount: int = 1) -> None:
    """Cache event: ``"hit"``, ``"miss"``, ``"eviction"``, or ``"invalidation"``."""
    key = {
        "hit": catalog.CACHE_HITS,
        "miss": catalog.CACHE_MISSES,
        "eviction": catalog.CACHE_EVICTIONS,
        "invalidation": catalog.CACHE_INVALIDATIONS,
    }[event]
    get_registry().counter(*key).inc(amount)


def merge_worker_snapshot(worker_snapshot: Snapshot) -> None:
    """Fold a worker chunk's registry snapshot into the active registry."""
    registry = get_registry()
    registry.counter(*catalog.PARALLEL_CHUNKS).inc()
    registry.merge(worker_snapshot)


# ---------------------------------------------------------------------------
# Serving-layer hooks (repro.serve)
# ---------------------------------------------------------------------------

def push_registry(registry: MetricsRegistry) -> None:
    """Route all subsequent recording into ``registry`` until popped.

    The long-lived counterpart of :func:`collecting` for components that
    cannot hold a ``with`` block open across their lifetime — the query
    server installs its own registry on startup so ``/metrics`` exposes
    exactly what happened while it was serving.
    """
    OBS._stack.append(registry)


def pop_registry(registry: MetricsRegistry) -> None:
    """Undo :func:`push_registry`; tolerates an already-removed registry."""
    try:
        OBS._stack.remove(registry)
    except ValueError:
        pass


def record_serve_request(seconds: float) -> None:
    """One request answered (queue wait + execution), any outcome but shed."""
    registry = get_registry()
    registry.counter(*catalog.SERVE_REQUESTS).inc()
    registry.histogram(*catalog.SERVE_REQUEST_LATENCY).observe(seconds)


def record_serve_shed(amount: int = 1) -> None:
    """Requests rejected by the bounded admission queue."""
    get_registry().counter(*catalog.SERVE_SHED).inc(amount)


def record_serve_deadline_expired() -> None:
    """A queued request's deadline passed before execution."""
    get_registry().counter(*catalog.SERVE_DEADLINE_EXPIRED).inc()


def record_serve_error() -> None:
    """A request failed with a server-side error."""
    get_registry().counter(*catalog.SERVE_ERRORS).inc()


def record_serve_batch(size: int) -> None:
    """One micro-batch dispatched to the thread pool."""
    get_registry().histogram(
        *catalog.SERVE_BATCH_SIZE, buckets=DEFAULT_SIZE_BUCKETS
    ).observe(size)


def record_serve_swap() -> None:
    """One zero-downtime engine snapshot swap published."""
    get_registry().counter(*catalog.SERVE_SWAPS).inc()


def set_serve_queue_depth(depth: int) -> None:
    """Current admission-queue occupancy."""
    get_registry().gauge(*catalog.SERVE_QUEUE_DEPTH).set(depth)


# ---------------------------------------------------------------------------
# Sharded-backend hooks (repro.shard)
# ---------------------------------------------------------------------------

def record_shard_query(seconds: float) -> None:
    """One routed query: sent to one worker, with its end-to-end latency."""
    registry = get_registry()
    registry.counter(*catalog.SHARD_QUERIES).inc()
    registry.histogram(
        *catalog.SHARD_FANOUT, buckets=DEFAULT_SIZE_BUCKETS
    ).observe(1)
    registry.histogram(*catalog.SHARD_SCATTER_LATENCY).observe(seconds)


def record_shard_crash() -> None:
    """A shard worker process died outside of an orderly shutdown."""
    get_registry().counter(*catalog.SHARD_WORKER_CRASHES).inc()


def record_shard_delta_publish() -> None:
    """An epoch roll shipped as a row-level delta, not a full re-export."""
    get_registry().counter(*catalog.SHARD_DELTA_PUBLISHES).inc()


def set_shard_epochs(current: int, workers_min: int) -> None:
    """Published pool epoch and the slowest live worker's epoch.

    The exporters derive ``shard_epoch_lag = current - workers_min``
    from these two gauges (see :func:`repro.obs.export.with_derived`).
    """
    registry = get_registry()
    registry.gauge(*catalog.SHARD_EPOCH).set(current)
    registry.gauge(*catalog.SHARD_WORKERS_MIN_EPOCH).set(workers_min)


# ---------------------------------------------------------------------------
# Self-tuning-controller hooks (repro.control)
# ---------------------------------------------------------------------------

def record_control_tick() -> None:
    """One controller evaluation tick completed (decision or no-op)."""
    get_registry().counter(*catalog.CONTROL_TICKS).inc()


def record_control_step(knob: str, value: float) -> None:
    """One bounded knob step applied; also refreshes the knob gauge."""
    get_registry().counter(*catalog.CONTROL_STEPS).inc()
    set_control_knob(knob, value)


def record_control_rollback(knob: str, value: float) -> None:
    """A step was reverted after a guarded SLO regressed behind it."""
    get_registry().counter(*catalog.CONTROL_ROLLBACKS).inc()
    set_control_knob(knob, value)


def record_control_guard_trip(reason: str) -> None:
    """An SLO guard breached this window: ``"p99"``, ``"shed"``, ``"error"``."""
    key = {
        "p99": catalog.CONTROL_GUARD_P99,
        "shed": catalog.CONTROL_GUARD_SHED,
        "error": catalog.CONTROL_GUARD_ERRORS,
    }[reason]
    registry = get_registry()
    registry.counter(*catalog.CONTROL_GUARD_TRIPS).inc()
    registry.counter(*key).inc()


def set_control_knob(knob: str, value: float) -> None:
    """Export the current value of a live tunable as a gauge."""
    key = catalog.CONTROL_KNOB_GAUGES.get(knob)
    if key is not None:
        get_registry().gauge(*key).set(value)


# ---------------------------------------------------------------------------
# Dynamic write-path hooks (repro.core.dynamic)
# ---------------------------------------------------------------------------

def record_flush(
    edits_applied: int,
    vertices_affected: int,
    repair_seconds: float,
    queue_depth: int,
) -> None:
    """One applied dynamic flush: what it absorbed and what it cost."""
    registry = get_registry()
    registry.counter(*catalog.FLUSH_EDITS_APPLIED).inc(edits_applied)
    registry.counter(*catalog.FLUSH_VERTICES_AFFECTED).inc(vertices_affected)
    registry.histogram(*catalog.FLUSH_REPAIR_SECONDS).observe(repair_seconds)
    registry.gauge(*catalog.FLUSH_QUEUE_DEPTH).set(queue_depth)


def set_flush_queue_depth(depth: int) -> None:
    """Staged + inflight edits awaiting a flush (health/export poll)."""
    get_registry().gauge(*catalog.FLUSH_QUEUE_DEPTH).set(depth)


def set_dynamic_snapshot_age(seconds: float) -> None:
    """Seconds since the dynamic engine last published an engine."""
    get_registry().gauge(*catalog.DYNAMIC_SNAPSHOT_AGE).set(seconds)
