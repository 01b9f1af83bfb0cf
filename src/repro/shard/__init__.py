"""`repro.shard` — multi-process sharded serving of the top-k engine.

The single-process serve path (:mod:`repro.serve`) batches every query
onto one thread pool, so the GIL caps it at roughly one core of kernel
work.  This package breaks that ceiling while keeping the library's
strongest invariant intact: **a sharded answer is bit-identical to the
single-process engine's answer**, including the `QueryStats` counters.

How the pieces fit:

- :class:`~repro.shard.plan.ShardPlan` assigns every vertex to a shard
  (modulo partitioning);
- :class:`~repro.shard.memory.SharedArrayBundle` lays the engine's
  arrays (CSR graph, packed candidate index, γ table, diagonal) into
  one `multiprocessing.shared_memory` segment per epoch; workers attach
  the segment and rebuild a read-only engine over zero-copy views
  (:mod:`repro.shard.codec`);
- the coordinator plans each query once
  (:func:`~repro.core.query.plan_query`) and sends every worker the
  slice of the plan its shard *owns*; the worker runs the single-process
  scan on that slice at the conservative θ-floor cutoff
  (:func:`~repro.shard.worker.score_shard`), and the coordinator runs
  the same scan over the full plan, reading the gathered estimates
  (:func:`~repro.shard.merge.replay_merge`) — which is where
  bit-identity comes from; see `docs/serving.md`;
- :class:`~repro.shard.pool.ShardPool` owns the worker processes, the
  epoch lifecycle (publish / dual-epoch retention / release), and the
  scatter-gather query path;
- :class:`~repro.shard.lifecycle.ShardHandle` plugs the pool behind
  :class:`repro.serve.lifecycle.EngineHandle`, so snapshot swaps and
  dynamic-engine flushes propagate to every worker with zero downtime.
"""

from repro.shard.lifecycle import ShardedEngine, ShardHandle
from repro.shard.memory import SharedArrayBundle
from repro.shard.merge import replay_merge
from repro.shard.plan import ShardPlan
from repro.shard.pool import ShardPool
from repro.shard.worker import score_shard

__all__ = [
    "ShardPlan",
    "SharedArrayBundle",
    "ShardPool",
    "ShardedEngine",
    "ShardHandle",
    "score_shard",
    "replay_merge",
]
