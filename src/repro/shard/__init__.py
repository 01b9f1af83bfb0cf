"""`repro.shard` — multi-process sharded serving of the top-k engine.

The single-process serve path (:mod:`repro.serve`) batches every query
onto one thread pool, so the GIL caps it at roughly one core of kernel
work.  This package breaks that ceiling the way the paper's
all-vertices mode does (§2.2): each query's search is independent, so
each worker answers whole queries.  The library's strongest invariant
stays intact: **a sharded answer is bit-identical to the
single-process engine's answer**, including the `QueryStats` counters.

How the pieces fit:

- :class:`~repro.shard.memory.SharedArrayBundle` lays the engine's
  arrays (CSR graph, packed candidate index, γ table, diagonal) into
  one `multiprocessing.shared_memory` segment per epoch; workers attach
  the segment and rebuild a read-only engine over zero-copy views
  (:mod:`repro.shard.codec`);
- :class:`~repro.shard.pool.ShardPool` owns the worker processes and
  the epoch lifecycle (publish / dual-epoch retention / release), and
  routes each query whole to the live worker with the fewest requests
  in flight;
- the worker (:mod:`repro.shard.worker`) plans and scans the query with
  the single-process :meth:`~repro.core.engine.SimRankEngine.top_k` on
  the pinned epoch's engine, which carries the same integer seed —
  which is where bit-identity comes from; see `docs/serving.md`;
- :class:`~repro.shard.lifecycle.ShardHandle` plugs the pool behind
  :class:`repro.serve.lifecycle.EngineHandle`, so snapshot swaps and
  dynamic-engine flushes propagate to every worker with zero downtime.
"""

from repro.shard.lifecycle import ShardedEngine, ShardHandle
from repro.shard.memory import SharedArrayBundle
from repro.shard.pool import ShardPool

__all__ = [
    "SharedArrayBundle",
    "ShardPool",
    "ShardedEngine",
    "ShardHandle",
]
