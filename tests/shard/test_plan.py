"""ShardPlan: the deterministic vertex -> shard assignment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.shard.plan import ShardPlan


class TestShardPlan:
    def test_every_vertex_owned_exactly_once(self):
        plan = ShardPlan(n=97, n_shards=4)
        owned = np.concatenate([plan.owned(s) for s in range(plan.n_shards)])
        assert sorted(owned.tolist()) == list(range(97))

    def test_shard_of_agrees_with_owned(self):
        plan = ShardPlan(n=50, n_shards=3)
        for shard_id in range(3):
            for v in plan.owned(shard_id).tolist():
                assert plan.shard_of(v) == shard_id

    def test_owned_mask(self):
        plan = ShardPlan(n=30, n_shards=2)
        vertices = np.arange(0, 30, 3)
        mask = plan.owned_mask(vertices, 0)
        np.testing.assert_array_equal(mask, vertices % 2 == 0)

    def test_single_shard_owns_everything(self):
        plan = ShardPlan(n=12, n_shards=1)
        np.testing.assert_array_equal(plan.owned(0), np.arange(12))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": -1, "n_shards": 2},
            {"n": 10, "n_shards": 0},
            {"n": 10, "n_shards": 2, "strategy": "round-robin"},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ShardPlan(**kwargs)
