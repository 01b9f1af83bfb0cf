"""The metric catalogue: every metric the pipeline emits, in one place.

Instrumentation code registers metrics through these constants rather
than string literals, so the exported names, the docs table
(``docs/observability.md``), and the tests can never drift apart.

Prometheus flat name = ``{subsystem}_{name}`` (e.g. the
``("query", "candidates_total")`` counter exports as
``query_candidates_total``).
"""

from __future__ import annotations

from typing import Dict, Tuple

# ---------------------------------------------------------------------------
# (subsystem, name) keys
# ---------------------------------------------------------------------------

# Query phase (Algorithm 5) — one bump per top-k query.
QUERY_CANDIDATES = ("query", "candidates_total")
QUERY_PRUNED_BY_BOUND = ("query", "pruned_by_bound_total")
QUERY_SKIPPED_BY_TERMINATION = ("query", "skipped_by_termination_total")
QUERY_SCREENED = ("query", "screened_total")
QUERY_REFINED = ("query", "refined_total")
QUERY_SAMPLES = ("query", "samples_total")
QUERY_FALLBACK = ("query", "fallback_total")
QUERY_COUNT = ("query", "queries_total")
QUERY_LATENCY = ("query", "latency_seconds")  # histogram

# Preprocess phase (Algorithms 3 + 4).
PREPROCESS_SECONDS = ("preprocess", "seconds")  # gauge: last build wall clock
PREPROCESS_SIGNATURE_SECONDS = ("preprocess", "signature_seconds")
PREPROCESS_GAMMA_SECONDS = ("preprocess", "gamma_seconds")
PREPROCESS_INVERT_SECONDS = ("preprocess", "invert_seconds")
PREPROCESS_BUILDS = ("preprocess", "builds_total")
PREPROCESS_VERTICES = ("preprocess", "vertices_total")

# Index artefact shape.
INDEX_BYTES = ("index", "bytes")  # gauge
INDEX_POSTINGS_LENGTH = ("index", "postings_length")  # histogram
INDEX_SIGNATURE_MEAN = ("index", "signature_mean")  # gauge

# Monte-Carlo walk engine (Algorithm 1 bundles).
WALKS_BUNDLES = ("walks", "bundles_total")
WALKS_WALKS = ("walks", "walks_total")
WALKS_STEPS = ("walks", "steps_total")
WALKS_MEETINGS = ("walks", "meeting_events_total")
WALKS_BATCH_SIZE = ("walks", "batch_size")  # histogram

# Serving-layer result cache.
CACHE_HITS = ("cache", "hits_total")
CACHE_MISSES = ("cache", "misses_total")
CACHE_EVICTIONS = ("cache", "evictions_total")
CACHE_INVALIDATIONS = ("cache", "invalidations_total")

# Parallel all-vertices sweep.
PARALLEL_CHUNKS = ("parallel", "chunks_total")

# Derived ratio (computed at export time, not recorded by hooks): the
# fraction of enumerated candidates the L1/L2/trivial bounds discarded —
# the signal a future adaptive P/Q tuner reads.
QUERY_PRUNE_RATE = ("query", "prune_rate")

# Query server (repro.serve).
SERVE_REQUESTS = ("serve", "requests_total")
SERVE_SHED = ("serve", "requests_shed_total")
SERVE_DEADLINE_EXPIRED = ("serve", "deadline_expired_total")
SERVE_ERRORS = ("serve", "errors_total")
SERVE_QUEUE_DEPTH = ("serve", "queue_depth")  # gauge
SERVE_BATCH_SIZE = ("serve", "batch_size")  # histogram
SERVE_SWAPS = ("serve", "engine_swaps_total")
SERVE_REQUEST_LATENCY = ("serve", "request_latency_seconds")  # histogram

# Sharded backend (repro.shard).
SHARD_QUERIES = ("shard", "queries_total")
SHARD_FANOUT = ("shard", "fanout")  # histogram: workers sent each query
SHARD_SCATTER_LATENCY = ("shard", "scatter_latency_seconds")  # histogram
SHARD_EPOCH = ("shard", "epoch")  # gauge: pool's current published epoch
SHARD_WORKERS_MIN_EPOCH = ("shard", "workers_min_epoch")  # gauge
SHARD_WORKER_CRASHES = ("shard", "worker_crashes_total")
SHARD_DELTA_PUBLISHES = ("shard", "delta_publishes_total")

# Derived at export time: how far the slowest worker trails the
# published epoch (0 in steady state; >0 flags a stuck/restarting shard).
SHARD_EPOCH_LAG = ("shard", "epoch_lag")

# Self-tuning controller (repro.control) — every decision the control
# loop makes is itself observable, so the loop can be audited with the
# same tooling it consumes.
CONTROL_TICKS = ("control", "ticks_total")
CONTROL_STEPS = ("control", "steps_total")
CONTROL_ROLLBACKS = ("control", "rollbacks_total")
CONTROL_GUARD_TRIPS = ("control", "guard_trips_total")
CONTROL_GUARD_P99 = ("control", "guard_p99_trips_total")
CONTROL_GUARD_SHED = ("control", "guard_shed_trips_total")
CONTROL_GUARD_ERRORS = ("control", "guard_error_trips_total")
CONTROL_KNOB_MAX_BATCH = ("control", "knob_max_batch")  # gauge
CONTROL_KNOB_BATCH_WINDOW = ("control", "knob_batch_window_seconds")  # gauge
CONTROL_KNOB_R_PAIR = ("control", "knob_r_pair")  # gauge
CONTROL_KNOB_SCREEN_SLACK = ("control", "knob_screen_slack")  # gauge
CONTROL_KNOB_FLUSH_MAX_STALENESS = ("control", "knob_flush_max_staleness_seconds")  # gauge
CONTROL_KNOB_FLUSH_MAX_PENDING = ("control", "knob_flush_max_pending")  # gauge

#: knob name -> its current-value gauge key (drives the per-tick export).
CONTROL_KNOB_GAUGES: Dict[str, Tuple[str, str]] = {
    "max_batch": CONTROL_KNOB_MAX_BATCH,
    "batch_window": CONTROL_KNOB_BATCH_WINDOW,
    "r_pair": CONTROL_KNOB_R_PAIR,
    "screen_slack": CONTROL_KNOB_SCREEN_SLACK,
    "flush_max_staleness": CONTROL_KNOB_FLUSH_MAX_STALENESS,
    "flush_max_pending": CONTROL_KNOB_FLUSH_MAX_PENDING,
}

# Dynamic write path (repro.core.dynamic) — the numbers a production
# update stream is judged on: how much each flush repaired, how deep the
# staged backlog runs, and how stale the served snapshot is.
FLUSH_EDITS_APPLIED = ("flush", "edits_applied_total")
FLUSH_VERTICES_AFFECTED = ("flush", "vertices_affected_total")
FLUSH_REPAIR_SECONDS = ("flush", "repair_seconds")  # histogram
FLUSH_QUEUE_DEPTH = ("flush", "queue_depth")  # gauge
DYNAMIC_SNAPSHOT_AGE = ("dynamic", "snapshot_age_seconds")  # gauge

#: key -> (metric kind, one-line meaning); drives docs and sanity tests.
CATALOG: Dict[Tuple[str, str], Tuple[str, str]] = {
    QUERY_CANDIDATES: ("counter", "candidates enumerated across all queries"),
    QUERY_PRUNED_BY_BOUND: ("counter", "candidates dropped by the L1/L2/trivial bounds"),
    QUERY_SKIPPED_BY_TERMINATION: ("counter", "candidates skipped by theta-termination"),
    QUERY_SCREENED: ("counter", "candidates given the cheap R=r_screen estimate"),
    QUERY_REFINED: ("counter", "candidates re-estimated with the full R=r_pair bundle"),
    QUERY_SAMPLES: ("counter", "Monte-Carlo walks simulated by queries"),
    QUERY_FALLBACK: ("counter", "queries that unioned in the distance-ball fallback"),
    QUERY_COUNT: ("counter", "top-k queries answered"),
    QUERY_LATENCY: ("histogram", "end-to-end top-k query latency (seconds)"),
    PREPROCESS_SECONDS: ("gauge", "wall clock of the last full preprocess"),
    PREPROCESS_SIGNATURE_SECONDS: ("gauge", "Algorithm 4 signature-walk phase of the last build"),
    PREPROCESS_GAMMA_SECONDS: ("gauge", "Algorithm 3 gamma-table phase of the last build"),
    PREPROCESS_INVERT_SECONDS: ("gauge", "inverted-list construction phase of the last build"),
    PREPROCESS_BUILDS: ("counter", "full index builds performed"),
    PREPROCESS_VERTICES: ("counter", "vertices whose signatures were (re)built"),
    INDEX_BYTES: ("gauge", "packed payload bytes of the candidate index"),
    INDEX_POSTINGS_LENGTH: ("histogram", "inverted-list posting lengths"),
    INDEX_SIGNATURE_MEAN: ("gauge", "mean signature-set size"),
    WALKS_BUNDLES: ("counter", "reverse-walk bundles simulated"),
    WALKS_WALKS: ("counter", "individual reverse walks simulated"),
    WALKS_STEPS: ("counter", "walk steps requested (walks x T)"),
    WALKS_MEETINGS: ("counter", "series terms with a nonzero collision value"),
    WALKS_BATCH_SIZE: ("histogram", "candidates scored per fused estimate_batch call"),
    CACHE_HITS: ("counter", "result-cache hits"),
    CACHE_MISSES: ("counter", "result-cache misses"),
    CACHE_EVICTIONS: ("counter", "LRU evictions"),
    CACHE_INVALIDATIONS: ("counter", "full-cache invalidations"),
    PARALLEL_CHUNKS: ("counter", "worker chunk registries merged back"),
    QUERY_PRUNE_RATE: ("gauge", "pruned_by_bound / candidates, derived at export time"),
    SERVE_REQUESTS: ("counter", "requests the server finished answering"),
    SERVE_SHED: ("counter", "requests rejected because the admission queue was full"),
    SERVE_DEADLINE_EXPIRED: ("counter", "requests whose deadline passed while queued"),
    SERVE_ERRORS: ("counter", "requests that failed with a server-side error"),
    SERVE_QUEUE_DEPTH: ("gauge", "current admission-queue occupancy"),
    SERVE_BATCH_SIZE: ("histogram", "top-k requests grouped per micro-batch"),
    SERVE_SWAPS: ("counter", "zero-downtime engine snapshot swaps published"),
    SERVE_REQUEST_LATENCY: ("histogram", "queue + execution latency per served request"),
    SHARD_QUERIES: ("counter", "top-k queries the shard pool routed to a worker and answered"),
    SHARD_FANOUT: ("histogram", "shard workers a query is sent to (1: queries are routed whole)"),
    SHARD_SCATTER_LATENCY: ("histogram", "pin + route + worker answer + reply latency per query"),
    SHARD_EPOCH: ("gauge", "current published shard-pool epoch"),
    SHARD_WORKERS_MIN_EPOCH: ("gauge", "lowest epoch any live shard worker is serving"),
    SHARD_WORKER_CRASHES: ("counter", "shard worker processes that died unexpectedly"),
    SHARD_DELTA_PUBLISHES: ("counter", "epoch rolls shipped as row-level deltas instead of full re-exports"),
    SHARD_EPOCH_LAG: ("gauge", "epoch - workers_min_epoch, derived at export time"),
    CONTROL_TICKS: ("counter", "controller evaluation ticks completed"),
    CONTROL_STEPS: ("counter", "bounded knob steps the controller applied"),
    CONTROL_ROLLBACKS: ("counter", "steps reverted after a guarded SLO regressed"),
    CONTROL_GUARD_TRIPS: ("counter", "windows in which any SLO guard was breached"),
    CONTROL_GUARD_P99: ("counter", "guard trips attributed to the p99 latency SLO"),
    CONTROL_GUARD_SHED: ("counter", "guard trips attributed to the shed-rate bound"),
    CONTROL_GUARD_ERRORS: ("counter", "guard trips attributed to the error-rate bound"),
    CONTROL_KNOB_MAX_BATCH: ("gauge", "live value of the micro-batcher max_batch knob"),
    CONTROL_KNOB_BATCH_WINDOW: ("gauge", "live value of the batch linger window (seconds)"),
    CONTROL_KNOB_R_PAIR: ("gauge", "live value of the refine walk budget R knob"),
    CONTROL_KNOB_SCREEN_SLACK: ("gauge", "live value of the screen/refine split knob"),
    CONTROL_KNOB_FLUSH_MAX_STALENESS: ("gauge", "live value of the flush staleness budget (seconds)"),
    CONTROL_KNOB_FLUSH_MAX_PENDING: ("gauge", "live value of the flush backpressure limit"),
    FLUSH_EDITS_APPLIED: ("counter", "edge edits applied by dynamic flushes"),
    FLUSH_VERTICES_AFFECTED: ("counter", "index rows recomputed by dynamic flushes"),
    FLUSH_REPAIR_SECONDS: ("histogram", "signature + gamma repair time per flush"),
    FLUSH_QUEUE_DEPTH: ("gauge", "staged + inflight edits awaiting a flush"),
    DYNAMIC_SNAPSHOT_AGE: ("gauge", "seconds since the dynamic engine last published"),
}


def flat_name(key: Tuple[str, str]) -> str:
    """Prometheus name for a catalogue key: ``{subsystem}_{name}``."""
    return f"{key[0]}_{key[1]}"
