"""Zero-copy buffer transport of graph / index artefacts.

``to_buffers()`` / ``from_buffers()`` are the shared-memory transport
contract of :mod:`repro.shard`: an exporter packs the payload into flat
arrays, a worker rebuilds a queryable object over attached views.  The
tests here pin down both halves of that contract — the rebuilt objects
answer **identically** to the originals, and the round trip aliases the
given arrays instead of copying them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.core.index import CandidateIndex
from repro.errors import GraphFormatError, SerializationError
from repro.graph.csr import CSRGraph


@pytest.fixture(scope="module")
def indexed_engine(module_web_graph) -> SimRankEngine:
    config = SimRankConfig(
        T=5, r_pair=40, r_screen=10, r_alphabeta=80, r_gamma=30,
        index_walks=4, index_checks=3, k=5,
    )
    return SimRankEngine(module_web_graph, config, seed=7).preprocess()


@pytest.fixture(scope="module")
def module_web_graph() -> CSRGraph:
    from repro.graph.generators import copying_web_graph

    return copying_web_graph(90, out_degree=4, seed=13)


class TestGraphBuffers:
    def test_round_trip_is_zero_copy(self, module_web_graph):
        buffers = module_web_graph.to_buffers()
        rebuilt = CSRGraph.from_buffers(module_web_graph.n, buffers)
        assert rebuilt.n == module_web_graph.n
        assert rebuilt.m == module_web_graph.m
        for key, array in rebuilt.to_buffers().items():
            assert np.shares_memory(array, buffers[key]), key

    def test_rebuilt_adjacency_identical(self, module_web_graph):
        rebuilt = CSRGraph.from_buffers(
            module_web_graph.n, module_web_graph.to_buffers()
        )
        for u in range(0, module_web_graph.n, 7):
            np.testing.assert_array_equal(
                rebuilt.in_neighbors(u), module_web_graph.in_neighbors(u)
            )
            np.testing.assert_array_equal(
                rebuilt.out_neighbors(u), module_web_graph.out_neighbors(u)
            )

    def test_missing_array_is_format_error(self, module_web_graph):
        buffers = module_web_graph.to_buffers()
        del buffers["in_indices"]
        with pytest.raises(GraphFormatError):
            CSRGraph.from_buffers(module_web_graph.n, buffers)


class TestIndexBuffers:
    def test_from_buffers_aliases_arrays(self, indexed_engine):
        index = indexed_engine.index
        buffers = index.to_buffers()
        rebuilt = CandidateIndex.from_buffers(index.config, index.n, buffers)
        for key, array in rebuilt.to_buffers().items():
            assert np.shares_memory(array, buffers[key]), key
        # The gamma table is exported live, not copied.
        assert np.shares_memory(buffers["gamma"], index.gamma.values)

    def test_candidates_identical(self, indexed_engine):
        index = indexed_engine.index
        rebuilt = CandidateIndex.from_buffers(
            index.config, index.n, index.to_buffers()
        )
        for u in range(index.n):
            np.testing.assert_array_equal(
                rebuilt.candidates(u), np.asarray(index.candidates(u))
            )
            np.testing.assert_array_equal(
                rebuilt.candidates(u, include_self=True),
                np.asarray(index.candidates(u, include_self=True)),
            )

    def test_top_k_through_rebuilt_index_is_bit_identical(self, indexed_engine):
        index = indexed_engine.index
        rebuilt_index = CandidateIndex.from_buffers(
            index.config, index.n, index.to_buffers()
        )
        twin = SimRankEngine(
            indexed_engine.graph,
            indexed_engine.config,
            diagonal=indexed_engine.diagonal,
            seed=indexed_engine.seed,
        )
        twin._index = rebuilt_index
        for u in (0, 17, 44, 89):
            assert twin.top_k(u).items == indexed_engine.top_k(u).items

    def test_buffer_backed_index_is_read_only(self, indexed_engine):
        index = indexed_engine.index
        rebuilt = CandidateIndex.from_buffers(
            index.config, index.n, index.to_buffers()
        )
        for array in rebuilt.to_buffers().values():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert rebuilt.H == index.H

    def test_stats_and_nbytes_consistent(self, indexed_engine):
        index = indexed_engine.index
        rebuilt = CandidateIndex.from_buffers(
            index.config, index.n, index.to_buffers()
        )
        assert rebuilt.signature_size_stats() == index.signature_size_stats()
        assert rebuilt.nbytes() == index.nbytes()

    def test_missing_array_is_serialization_error(self, indexed_engine):
        index = indexed_engine.index
        buffers = index.to_buffers()
        del buffers["in_indices"]
        with pytest.raises(SerializationError):
            CandidateIndex.from_buffers(index.config, index.n, buffers)

