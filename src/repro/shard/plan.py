"""Shard planning: which worker owns which vertices.

The partition only decides *who scores whom* — every worker holds the
full graph and index via the shared segment, so any assignment is
correct.  Modulo partitioning is the default because candidate sets are
roughly degree-ordered neighborhoods: striding them across shards
balances the per-shell work far better than contiguous ranges, which
would hand whole hub neighborhoods to one worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


__all__ = ["ShardPlan"]

_STRATEGIES = ("modulo",)


@dataclass(frozen=True)
class ShardPlan:
    """Immutable vertex→shard assignment for ``n`` vertices.

    ``shard_of(v) = v mod n_shards`` under the (only) ``modulo``
    strategy.  Only the coordinator consults it: it sends each worker
    the slice of a query plan that worker owns.
    """

    n: int
    n_shards: int
    strategy: str = "modulo"

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigError(f"vertex count must be nonnegative, got {self.n}")
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.strategy not in _STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {self.strategy!r}; known: {_STRATEGIES}"
            )

    def shard_of(self, vertex: int) -> int:
        """The shard that owns (scores) ``vertex``."""
        return int(vertex) % self.n_shards

    def owned(self, shard_id: int) -> np.ndarray:
        """All vertices owned by ``shard_id``, ascending (int64)."""
        if not 0 <= shard_id < self.n_shards:
            raise ConfigError(
                f"shard_id {shard_id} out of range for {self.n_shards} shards"
            )
        return np.arange(shard_id, self.n, self.n_shards, dtype=np.int64)

    def owned_mask(self, vertices: np.ndarray, shard_id: int) -> np.ndarray:
        """Boolean mask of which ``vertices`` belong to ``shard_id``."""
        return np.asarray(vertices, dtype=np.int64) % self.n_shards == shard_id
