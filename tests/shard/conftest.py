"""Fixtures for the sharded-backend tests.

The multiprocess pool is expensive to boot (spawned workers re-import
the package), so the pool fixtures are module-scoped; the bit-identity
tests of ``test_replay.py`` run the worker loop on threads, entirely
in-process.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import copying_web_graph, preferential_attachment


@pytest.fixture(scope="module")
def shard_graph() -> CSRGraph:
    return preferential_attachment(120, out_degree=3, seed=8)


@pytest.fixture(scope="module")
def shard_config() -> SimRankConfig:
    return SimRankConfig(
        T=5, r_pair=40, r_screen=10, r_alphabeta=80, r_gamma=30,
        index_walks=4, index_checks=3, k=5,
    )


@pytest.fixture(scope="module")
def shard_engine(shard_graph, shard_config) -> SimRankEngine:
    return SimRankEngine(shard_graph, shard_config, seed=4).preprocess()


@pytest.fixture(scope="module")
def web_engine(shard_config) -> SimRankEngine:
    graph = copying_web_graph(250, out_degree=4, seed=17)
    return SimRankEngine(graph, shard_config, seed=9).preprocess()
