"""Scatter-gather cost: ``ShardPool`` at 1/2/4 shards.

The workload is the one sharding exists for: *hub* queries — vertices
whose θ-floor candidate sets are largest, i.e. the most expensive
single-source queries the serving tier sees.  Each query is scattered
through a real multi-process :class:`~repro.shard.pool.ShardPool`
(spawn workers, shared-memory attach, merge), so wall time includes the
true coordination overhead: planning, pickling, pipe transfer, and the
coordinator's merge scan.

Accounting.  Per shard count the sidecar records measured wall time
and CPU time: the coordinator's planning CPU (``plan_seconds``) plus
every worker's busy CPU (``busy_seconds``).  Each query runs several
rounds and keeps its cheapest, which filters out bursts of load from
other processes on the host.  The wall-clock speedup over one shard is
recorded only when the host has at least as many cores as shards;
otherwise workers time-slice the cores and the speedup is recorded as
unmeasurable (``null``).

The regression gate asserts bit-identity against the single-process
engine on every query, and that sharding does not multiply work: the
CPU time at 4 shards stays within 10% of the CPU time at 1 shard (25%
in ``REPRO_BENCH_QUICK=1`` smoke runs, which measure fewer queries and
rounds and are therefore noisier).  CPU time measures work only while
the workers do not slow each other down: where concurrently running
processes share physical cores or a busy hypervisor, each one burns
more CPU time for the same work, and that shows up here as growth.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.engine import SimRankEngine
from repro.graph.generators import copying_web_graph
from repro.shard.pool import ShardPool
from repro.utils.bench import write_sidecar

SIDECAR_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"

#: Shard counts compared; 1 is the scatter-gather baseline (one worker
#: owning every vertex), so coordination overhead is paid on both sides.
SHARD_COUNTS = (1, 2, 4)

#: Allowed growth of planning + worker CPU from 1 to 4 shards.
CPU_GROWTH_LIMIT = 1.10
QUICK_CPU_GROWTH_LIMIT = 1.25

#: Measurement rounds per shard count (full mode).
ROUNDS = 5


def _hub_vertices(engine: SimRankEngine, n_hubs: int, sample_n: int) -> List[int]:
    """The ``n_hubs`` sampled vertices with the largest candidate sets."""
    rng = np.random.default_rng(0)
    sample = rng.choice(engine.graph.n, size=sample_n, replace=False)
    ranked = sorted(
        ((engine.top_k(int(u)).stats.candidates, int(u)) for u in sample),
        reverse=True,
    )
    return [u for _, u in ranked[:n_hubs]]


class TestShardThroughput:
    def test_scatter_gather_cost_and_sidecar(self, bench_config):
        quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
        # Hub serving workload: a low θ keeps the θ-floor wide, so the
        # shards divide a large screening and refinement budget.
        config = bench_config.with_(theta=0.0005)
        graph = copying_web_graph(6000, out_degree=6, seed=31)
        engine = SimRankEngine(graph, config, seed=7).preprocess()
        hubs = _hub_vertices(
            engine, n_hubs=6 if quick else 16, sample_n=40 if quick else 80
        )
        expected = {u: engine.top_k(u).items for u in hubs}

        cpu_count = os.cpu_count() or 1
        # Per (shard count, query): (cpu, wall, plan, busy) of each round.
        samples: Dict[int, Dict[int, List[Tuple[float, ...]]]] = {
            s: {u: [] for u in hubs} for s in SHARD_COUNTS
        }
        with ExitStack() as stack:
            pools = {s: stack.enter_context(ShardPool(engine, s)) for s in SHARD_COUNTS}
            for pool in pools.values():
                pool.top_k(hubs[0])  # warm every worker's query path
            # Rounds alternate the pools, so slow spells of the host hit
            # all shard counts alike; each query keeps its cheapest round.
            for _ in range(2 if quick else ROUNDS):
                for n_shards, pool in pools.items():
                    for u in hubs:
                        timings: Dict[str, Any] = {}
                        result = pool.top_k(u, timings_out=timings)
                        assert result.items == expected[u]
                        plan = float(timings["plan_seconds"])
                        busy = sum(float(b) for b in timings["busy_seconds"])
                        samples[n_shards][u].append(
                            (plan + busy, float(timings["wall_seconds"]), plan, busy)
                        )
        runs: Dict[str, Dict[str, float]] = {}
        for n_shards, per_query in samples.items():
            cheapest = [min(rounds) for rounds in per_query.values()]
            runs[str(n_shards)] = {
                key: sum(sample[i] for sample in cheapest)
                for i, key in enumerate(
                    ("cpu_seconds", "wall_seconds", "plan_seconds", "busy_seconds")
                )
            }

        baseline = runs[str(SHARD_COUNTS[0])]
        speedups = {
            str(s): (
                baseline["wall_seconds"] / runs[str(s)]["wall_seconds"]
                if cpu_count >= s
                else None
            )
            for s in SHARD_COUNTS
        }
        cpu_growth = {
            str(s): runs[str(s)]["cpu_seconds"] / baseline["cpu_seconds"]
            for s in SHARD_COUNTS
        }

        sidecar = {
            "graph": {"n": graph.n, "m": graph.m},
            "parameters": {
                "T": config.T,
                "theta": config.theta,
                "k": config.k,
                "queries": len(hubs),
                "quick": quick,
            },
            "host": {"cpu_count": cpu_count},
            "runs_seconds": runs,
            "wall_speedups": speedups,
            "cpu_growth": cpu_growth,
        }
        write_sidecar(SIDECAR_PATH, "shard", sidecar)

        limit = QUICK_CPU_GROWTH_LIMIT if quick else CPU_GROWTH_LIMIT
        assert cpu_growth["4"] <= limit, cpu_growth
