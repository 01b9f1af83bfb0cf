"""The request streams: a fixed vertex mix per phase, ordered by the seed."""

from collections import Counter

import pytest

import run
from repro.graph.generators import copying_web_graph

GRAPH = copying_web_graph(300, out_degree=4, seed=1)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_the_seed_orders_a_fixed_mix(name):
    workload = run.WORKLOADS[name]
    counts = run.plan(workload, 8, traced=False)
    first = run.make_streams(workload, GRAPH, counts, seed=1)
    assert first == run.make_streams(workload, GRAPH, counts, seed=1)
    second = run.make_streams(workload, GRAPH, counts, seed=2)
    assert first != second
    for phase in run.PHASES:
        assert len(first[phase]) == counts[phase]
        mixes = [Counter(r["vertex"] for r in streams[phase] if r["op"] == "top_k")
                 for streams in (first, second)]
        assert mixes[0] == mixes[1]
    ids = [r["id"] for phase in run.PHASES for r in first[phase]]
    assert ids == list(range(len(ids)))


def test_every_fifth_churn_event_is_a_one_edge_write():
    workload = run.WORKLOADS["churn"]
    streams = run.make_streams(workload, GRAPH, run.plan(workload, 8, traced=False), seed=3)
    for stream in streams.values():
        for i, request in enumerate(stream):
            is_write = i % run.WRITE_EVERY == run.WRITE_EVERY - 1
            assert (request["op"] == "update") == is_write
            if is_write:
                assert len(request.get("add") or request["remove"]) == 1
