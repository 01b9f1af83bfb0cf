"""Per-layer metrics of one traced step.

Inputs are the traced server's spans (see ``traced_server.py``), the
``/metrics`` counters read before and after the step, and the load
generator's own samples.  A span's self time is its duration minus the
time its child spans cover; children of one span run on its thread and
never overlap.  A layer the workload does not exercise reports 0.  Tails
are p90, as for the end-to-end metrics; a run has a few dozen flushes,
so flush time reports its median and maximum.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence

from loadgen import TAIL, Sample, late_p99_ms, quantile

Span = Dict[str, Any]
Metrics = Dict[str, float]


def _q(values: Sequence[float], percentile: float, scale: float = 1.0) -> float:
    return quantile(values, percentile) * scale if values else 0.0


def _mean(values: Sequence[float], scale: float = 1.0) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _durations(spans: Iterable[Span]) -> List[float]:
    return [s["end"] - s["start"] for s in spans]


def step_spans(spans: Iterable[Span], samples: Sequence[Sample]) -> List[Span]:
    """Spans of the step's requests, plus unattributed spans inside its window."""
    ids = {s.request.get("id") for s in samples}
    start = min(s.due for s in samples)
    end = max(s.done for s in samples)
    return [
        s for s in spans
        if s["id"] in ids or (s["id"] is None and start <= s["start"] and s["end"] <= end)
    ]


def layer_metrics(
    spans: Sequence[Span],
    samples: Sequence[Sample],
    before: Dict[str, float],
    after: Dict[str, float],
    worker_cpu_s: float,
) -> Metrics:
    """Every per-layer metric of one step."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def d(name: str) -> List[float]:
        return _durations(by_name[name])

    def delta(counter: str) -> float:
        return after.get(counter, 0.0) - before.get(counter, 0.0)

    first: Dict[Any, Span] = {}
    for span in by_name["protocol.decode"]:
        first.setdefault(span["id"], span)
    last: Dict[Any, Span] = {span["id"]: span for span in by_name["protocol.encode"]}
    inproc: Dict[Any, float] = {
        rid: last[rid]["end"] - span["start"] for rid, span in first.items() if rid in last
    }
    per_request: Dict[Any, float] = defaultdict(float)
    for name in ("protocol.decode", "admission.wait", "batching.executor_wait",
                 "lifecycle.top_k", "protocol.encode"):
        for span in by_name[name]:
            per_request[span["id"]] += span["end"] - span["start"]
    attributed = [per_request[rid] / t for rid, t in inproc.items() if t > 0]
    conn_wait = [first[s.request["id"]]["start"] - s.due
                 for s in samples if s.request.get("id") in first]

    queries = by_name["query.top_k"]
    self_times = [
        (q["end"] - q["start"]) - sum(c["end"] - c["start"] for c in children[q["sid"]])
        for q in queries
    ]
    shards = by_name["shard.top_k"]
    merges = {m["parent"]: m["end"] - m["start"] for m in by_name["shard.merge"]}
    busy_max = [max(s["busy"]) for s in shards]
    coord = [
        (s["end"] - s["start"]) - merges.get(s["sid"], 0.0) - bmax
        for s, bmax in zip(shards, busy_max)
    ]
    flushes = [s for s in by_name["dynamic.flush"] if s["edits"] > 0]
    takes = by_name["batching.take"]
    engine_queries = delta("query_queries_total")
    lookups = delta("cache_hits_total") + delta("cache_misses_total")

    return {
        "loadgen.late_p99_ms": late_p99_ms(samples),
        "loadgen.conn_wait_ms_p50": _q(conn_wait, 50, 1e3),
        "protocol.decode_us_mean": _mean(d("protocol.decode"), 1e6),
        "protocol.encode_us_mean": _mean(d("protocol.encode"), 1e6),
        "server.inproc_ms_p50": _q(list(inproc.values()), 50, 1e3),
        "server.inproc_ms_p90": _q(list(inproc.values()), TAIL, 1e3),
        "admission.wait_ms_p50": _q(d("admission.wait"), 50, 1e3),
        "admission.wait_ms_p90": _q(d("admission.wait"), TAIL, 1e3),
        "admission.shed": delta("serve_requests_shed_total"),
        "batching.linger_ms_mean": _mean(d("batching.take"), 1e3),
        "batching.batch_size_mean": _mean([t["size"] for t in takes]),
        "batching.executor_wait_ms_p50": _q(d("batching.executor_wait"), 50, 1e3),
        "batching.executor_wait_ms_p90": _q(d("batching.executor_wait"), TAIL, 1e3),
        "cache.hit_rate": _ratio(delta("cache_hits_total"), lookups),
        # A snapshot swap retires the whole cache, like an explicit invalidation.
        "cache.invalidations": delta("cache_invalidations_total")
        + delta("serve_engine_swaps_total"),
        "lifecycle.top_k_ms_p50": _q(d("lifecycle.top_k"), 50, 1e3),
        "lifecycle.top_k_ms_p90": _q(d("lifecycle.top_k"), TAIL, 1e3),
        "query.top_k_ms_p50": _q(d("query.top_k"), 50, 1e3),
        "query.top_k_ms_p90": _q(d("query.top_k"), TAIL, 1e3),
        "query.self_ms_mean": _mean(self_times, 1e3),
        "query.candidates_mean": _ratio(delta("query_candidates_total"), engine_queries),
        "query.prune_rate": _ratio(delta("query_pruned_by_bound_total"),
                                   delta("query_candidates_total")),
        "query.refined_mean": _ratio(delta("query_refined_total"), engine_queries),
        "query.walks_mean": _ratio(delta("query_samples_total"), engine_queries),
        "traversal.bfs_ms_mean": _mean(d("traversal.bfs"), 1e3),
        "traversal.ball_ms_mean": _mean(d("traversal.ball"), 1e3),
        "index.candidates_ms_mean": _mean(d("index.candidates"), 1e3),
        "bounds.alpha_beta_ms_mean": _mean(d("bounds.alpha_beta"), 1e3),
        "bounds.gamma_ms_mean": _mean(d("bounds.gamma"), 1e3),
        "montecarlo.estimate_ms_mean": _mean(d("montecarlo.estimate"), 1e3),
        "montecarlo.calls_per_query": _ratio(len(by_name["montecarlo.estimate"]), len(queries)),
        "montecarlo.batch_mean": _mean([s["size"] for s in by_name["montecarlo.estimate"]]),
        "shard.wall_ms_p50": _q(_durations(shards), 50, 1e3),
        "shard.wall_ms_p90": _q(_durations(shards), TAIL, 1e3),
        "shard.busy_max_ms_mean": _mean(busy_max, 1e3),
        "shard.busy_sum_ms_mean": _mean([sum(s["busy"]) for s in shards], 1e3),
        "shard.merge_ms_mean": _mean(list(merges.values()), 1e3),
        "shard.coord_ms_mean": _mean(coord, 1e3),
        "shard.worker_cpu_s": worker_cpu_s,
        "dynamic.flushes": float(len(flushes)),
        "dynamic.flush_ms_p50": _q(_durations(flushes), 50, 1e3),
        "dynamic.flush_ms_max": max(_durations(flushes), default=0.0) * 1e3,
        "dynamic.edits_per_flush": _mean([s["edits"] for s in flushes]),
        "dynamic.affected_per_flush": _mean([s["affected"] for s in flushes]),
        "dynamic.stage_us_mean": _mean(d("dynamic.stage"), 1e6),
        "dynamic.throttle_ms_sum": sum(d("dynamic.throttle")) * 1e3,
        "serve.swaps": delta("serve_engine_swaps_total"),
        "trace.attributed_pct": _q(attributed, 50, 100.0),
    }
