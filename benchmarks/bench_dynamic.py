"""Dynamic-write throughput: the off-path flush pipeline vs. the seed path.

The seed's write path was synchronous and global: every flush held the
state lock while it re-sorted the *entire* edge set, rebuilt the CSR
from scratch (``CSRGraph.from_edges``), deep-cloned the whole candidate
index, and expanded one blast-radius ball **per edit** — O(m + index)
work per batch regardless of how small the batch was, with queries
blocked behind it.  The current path scales with the delta instead:
:meth:`~repro.graph.csr.CSRGraph.apply_delta` splices only touched
adjacency rows, :meth:`~repro.core.index.CandidateIndex.with_rows`
splices only the affected index rows the same way, edited-edge targets are deduplicated before ball
expansion, and a :class:`~repro.core.dynamic.FlushPipeline` runs the
whole thing on a dedicated thread while queries serve the last
published snapshot.

``SeedSyncWriter`` below replicates the seed costs faithfully (global
sorted edge set + ``from_edges`` + a copy of every index row + per-edit
balls + the same row recomputation) so the headline ratio isolates exactly what this
layer changed.  Both paths apply the identical edit stream.

Gates (relaxed under ``REPRO_BENCH_QUICK=1``):

- sustained update throughput >= 5x the seed-synchronous path;
- query p99 *under churn* bounded by the seed's mean per-batch flush
  cost — queries never pay for a rebuild;
- after the final flush the incrementally-maintained engine answers
  top-k **bit-identically** to a from-scratch preprocess of the final
  graph.

Writes ``BENCH_dynamic.json`` (schema kind ``dynamic``).
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.bounds import GammaTable, compute_gamma_rows
from repro.core.config import SimRankConfig
from repro.core.dynamic import DynamicSimRankEngine, FlushPipeline
from repro.core.engine import SimRankEngine
from repro.core.index import CandidateIndex, build_signatures
from repro.graph.csr import CSRGraph
from repro.graph.generators import copying_web_graph
from repro.graph.traversal import distance_ball
from repro.utils.bench import write_sidecar
from repro.utils.rng import derive_seed
from repro.workloads import ChurnEvent, churn_workload

SIDECAR_PATH = Path(__file__).resolve().parent.parent / "BENCH_dynamic.json"

#: Small-T config: blast radii stay local, so the incremental path is
#: exercised (not the full-rebuild crossover) at bench-sized graphs.
DYN_CONFIG = SimRankConfig(
    T=4, r_pair=60, r_screen=8, r_alphabeta=150, r_gamma=40,
    index_walks=5, index_checks=4, k=10, theta=0.005,
)
BATCH = 24
SEED = 7


class SeedSyncWriter:
    """The seed's synchronous write path, cost-for-cost.

    Per batch: update the global edge set, rebuild the CSR from the
    sorted whole (O(m log m)), expand one out-ball per edit (no target
    dedup), recompute the affected rows the same way the live path
    does, then rebuild the candidate graph H from every row and copy
    the whole γ table (the seed's deep index clone, O(index)) — so the
    comparison isolates the delta merge, row splicing, dedup, and
    off-path coalescing.
    """

    def __init__(self, graph: CSRGraph, config: SimRankConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self.edges: Set[Tuple[int, int]] = {
            (int(u), int(v)) for u, v in graph.edge_array().tolist()
        }
        self.n = graph.n
        self.engine = SimRankEngine(graph, config, seed=seed).preprocess()

    def apply_batch(
        self, adds: List[Tuple[int, int]], removes: List[Tuple[int, int]]
    ) -> int:
        applied = 0
        for edge in adds:
            if edge not in self.edges:
                self.edges.add(edge)
                self.n = max(self.n, edge[0] + 1, edge[1] + 1)
                applied += 1
        for edge in removes:
            if edge in self.edges:
                self.edges.remove(edge)
                applied += 1
        if not applied:
            return 0
        old_graph = self.engine.graph
        new_graph = CSRGraph.from_edges(self.n, sorted(self.edges))
        radius = self.config.T - 1
        affected: Set[int] = set()
        for _, b in adds:  # one ball per edit, duplicates and all
            if b < new_graph.n:
                affected.update(distance_ball(new_graph, b, radius, direction="out"))
        for _, b in removes:
            if b < old_graph.n:
                affected.update(distance_ball(old_graph, b, radius, direction="out"))
        if new_graph.n > old_graph.n:
            affected.update(range(old_graph.n, new_graph.n))
        if len(affected) > 0.5 * new_graph.n:
            self.engine = SimRankEngine(
                new_graph, self.config, seed=self.seed
            ).preprocess()
            return applied
        ordered = sorted(affected)
        preprocess_seed = derive_seed(self.seed, 7)
        signatures = build_signatures(
            new_graph, self.config, seed=derive_seed(preprocess_seed, 1),
            vertices=ordered,
        )
        gamma_rows = compute_gamma_rows(
            new_graph, ordered, self.config, seed=derive_seed(preprocess_seed, 2)
        )
        old_index = self.engine.index
        kept = old_index.H.edge_array()
        kept = kept[~np.isin(kept[:, 0], ordered)]
        fresh = np.array(
            [(u, w) for u, row in zip(ordered, signatures) for w in row], dtype=np.int64
        ).reshape(-1, 2)
        H = CSRGraph.from_edges(new_graph.n, np.concatenate([kept, fresh]))
        values = np.zeros((new_graph.n, old_index.gamma.T))
        values[: old_graph.n] = old_index.gamma.values
        if ordered:
            values[np.asarray(ordered, dtype=np.int64)] = gamma_rows
        index = CandidateIndex(
            config=self.config,
            H=H,
            gamma=GammaTable(c=self.config.c, values=values),
            build_seconds=old_index.build_seconds,
        )
        engine = SimRankEngine(new_graph, self.config, seed=self.seed)
        engine._index = index  # noqa: SLF001 - same surgery the seed did
        self.engine = engine
        return applied


def _write_batches(
    events: List[ChurnEvent], batch: int
) -> List[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]:
    batches = []
    adds: List[Tuple[int, int]] = []
    removes: List[Tuple[int, int]] = []
    for event in events:
        if event.op == "add":
            adds.append((event.u, event.v))
        elif event.op == "remove":
            removes.append((event.u, event.v))
        if len(adds) + len(removes) >= batch:
            batches.append((adds, removes))
            adds, removes = [], []
    if adds or removes:
        batches.append((adds, removes))
    return batches


class TestDynamicWriteThroughput:
    def test_sustained_writes_queries_and_sidecar(self):
        quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
        n = 1000 if quick else 6000
        graph = copying_web_graph(n, out_degree=4, seed=31)
        hot_targets = 4 if quick else 6

        # ---- phase A: pure-write throughput --------------------------
        writes = churn_workload(
            graph,
            240 if quick else 1200,
            write_fraction=1.0,
            grow_fraction=0.02,
            hot_targets=hot_targets,
            seed=11,
        )
        batches = _write_batches(writes, BATCH)

        baseline = SeedSyncWriter(graph, DYN_CONFIG, SEED)
        base_applied = 0
        base_start = time.perf_counter()
        for adds, removes in batches:
            base_applied += baseline.apply_batch(adds, removes)
        base_seconds = time.perf_counter() - base_start
        base_eps = base_applied / base_seconds
        base_batch_ms = 1000.0 * base_seconds / len(batches)

        # Production backpressure setting: several batches may coalesce
        # into one flush (that coalescing — repairing a shared blast
        # radius once instead of per batch — is half the design win).
        dynamic = DynamicSimRankEngine(graph, DYN_CONFIG, seed=SEED)
        pipeline = FlushPipeline(dynamic, max_staleness=0.05, max_pending=4 * BATCH)
        pipeline.start()
        new_applied = 0
        new_start = time.perf_counter()
        try:
            for adds, removes in batches:
                for u, v in adds:
                    new_applied += bool(dynamic.add_edge(u, v))
                for u, v in removes:
                    new_applied += bool(dynamic.remove_edge(u, v))
                pipeline.throttle(timeout=60.0)
        finally:
            pipeline.stop(flush=True)  # drain: the clock covers all repair
        new_seconds = time.perf_counter() - new_start
        new_eps = new_applied / new_seconds
        flushes = pipeline.flush_count + (1 if dynamic.last_flush.edits_applied else 0)
        speedup = new_eps / base_eps

        # Both paths saw the same stream; the same edits must stick.
        assert new_applied == base_applied
        assert dynamic.graph.m == baseline.engine.graph.m

        # ---- phase B: query latency under churn ----------------------
        churn = churn_workload(
            graph,
            150 if quick else 600,
            write_fraction=0.3,
            grow_fraction=0.02,
            hot_targets=hot_targets,
            seed=13,
        )
        serving = DynamicSimRankEngine(graph, DYN_CONFIG, seed=SEED)
        churn_pipeline = FlushPipeline(serving, max_staleness=0.05, max_pending=BATCH)
        churn_pipeline.start()
        write_events = [e for e in churn if e.op != "query"]
        query_events = [e for e in churn if e.op == "query"]
        max_age = 0.0

        def writer() -> None:
            for event in write_events:
                if event.op == "add":
                    serving.add_edge(event.u, event.v)
                else:
                    serving.remove_edge(event.u, event.v)
                time.sleep(0.0005)

        latencies: List[float] = []
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        try:
            for event in query_events:
                t0 = time.perf_counter()
                serving.top_k(event.u)
                latencies.append(time.perf_counter() - t0)
                max_age = max(max_age, serving.snapshot_age_seconds)
        finally:
            writer_thread.join()
            churn_pipeline.stop(flush=True)
        p50_ms = 1000.0 * float(np.percentile(latencies, 50))
        p99_ms = 1000.0 * float(np.percentile(latencies, 99))

        # ---- bit-identity: incremental == from-scratch ---------------
        final_graph = serving.graph
        fresh = SimRankEngine(final_graph, DYN_CONFIG, seed=SEED).preprocess()
        rng = np.random.default_rng(0)
        sample = rng.choice(final_graph.n, size=min(30, final_graph.n), replace=False)
        for u in sample:
            assert serving.engine.top_k(int(u)).items == fresh.top_k(int(u)).items

        sidecar: Dict[str, object] = {
            "graph": {"n": graph.n, "m": graph.m},
            "parameters": {
                "T": DYN_CONFIG.T,
                "theta": DYN_CONFIG.theta,
                "k": DYN_CONFIG.k,
                "batch": BATCH,
                "quick": quick,
            },
            "writes": {
                "edits": base_applied,
                "seed_sync": {
                    "seconds": base_seconds,
                    "edits_per_s": base_eps,
                    "mean_batch_ms": base_batch_ms,
                },
                "pipeline": {
                    "seconds": new_seconds,
                    "edits_per_s": new_eps,
                    "flushes": flushes,
                    "edits_per_flush": base_applied / max(1, flushes),
                },
                "speedup": speedup,
            },
            "queries_under_churn": {
                "count": len(latencies),
                "p50_ms": p50_ms,
                "p99_ms": p99_ms,
                "max_snapshot_age_seconds": max_age,
                "final_flush_epoch": serving.flush_epoch,
            },
            "accuracy": {
                "vertices_checked": int(sample.size),
                "exact_topk_match": True,  # asserted above
            },
        }
        write_sidecar(SIDECAR_PATH, "dynamic", sidecar)

        assert speedup >= (2.0 if quick else 5.0), sidecar["writes"]
        assert p99_ms <= max(1.5 * base_batch_ms, 25.0), sidecar
