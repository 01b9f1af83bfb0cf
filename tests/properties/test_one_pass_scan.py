"""Property-based tests for the one-pass scan of Algorithm 5 (hypothesis).

:func:`~repro.core.query.scan` takes every estimate of a query in at
most two calls of its score source — the θ-floor set at ``r_screen``,
then the candidates that clear θ·``screen_slack`` at ``r_pair`` — and
replays the shell loop over the stored values.  These properties check
it against the scan that scores shell by shell
(:func:`tests.plan_oracle.reference_scan`), on random graphs, configs
and k:

- the items and every decision count are the same;
- every estimate the per-shell scan asks for, the one pass takes too;
- ``walks_simulated`` counts exactly the walks the score source drew.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimRankConfig
from repro.core.index import build_index
from repro.core.query import estimator_scores, plan_query, scan
from repro.graph.generators import copying_web_graph
from tests.plan_oracle import reference_scan
from tests.properties.test_graph_properties import graphs


class CountingScores:
    """A score source that records its calls and the walks behind them."""

    def __init__(self, scores):
        self.scores = scores
        self.calls = 0
        self.walks = 0
        self.asked = set()  # (vertex, R) of every estimate

    def __call__(self, vertices: np.ndarray, R: int) -> np.ndarray:
        self.calls += 1
        self.walks += R * int(vertices.size)
        self.asked.update((v, R) for v in vertices.tolist())
        return self.scores(vertices, R)


def compare(graph, index, u, k, config, seed, use_l1, adaptive):
    """Scan one plan both ways; return the one-pass result and both counters."""
    plan = plan_query(graph, index, u, k=k, config=config, seed=seed,
                      use_l1=use_l1, adaptive=adaptive)
    one_pass = CountingScores(estimator_scores(graph, plan))
    per_shell = CountingScores(estimator_scores(graph, plan))
    got = scan(plan, k, one_pass)
    want = reference_scan(plan, k, per_shell)
    assert got.items == want.items
    for name in ("screened", "refined", "pruned_by_bound", "skipped_by_termination",
                 "stopped_early_at_distance", "candidates", "fallback_used"):
        assert getattr(got.stats, name) == getattr(want.stats, name), name
    assert got.stats.walks_simulated == plan.walks + one_pass.walks
    assert want.stats.walks_simulated == plan.walks + per_shell.walks
    assert one_pass.calls <= 2
    assert per_shell.asked <= one_pass.asked
    return got, one_pass, per_shell


@st.composite
def scan_cases(draw):
    graph = draw(graphs(max_n=16, max_m=60))
    config = SimRankConfig(
        T=draw(st.integers(min_value=2, max_value=7)),
        d_max=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=8))),
        theta=draw(st.sampled_from([0.0, 0.005, 0.02, 0.1])),
        screen_slack=draw(st.sampled_from([0.0, 0.3, 1.0])),
        fallback_ball_radius=draw(st.integers(min_value=1, max_value=3)),
        r_alphabeta=30,
        r_pair=20,
        r_screen=5,
        r_gamma=20,
    )
    return dict(
        graph=graph,
        u=draw(st.integers(min_value=0, max_value=graph.n - 1)),
        k=draw(st.sampled_from([1, 2, 5, 20, None])),
        config=config,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        use_l1=draw(st.booleans()),
        adaptive=draw(st.booleans()),
        indexed=draw(st.booleans()),
    )


class TestOnePassScan:
    @given(scan_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_shell_scan(self, case):
        index = build_index(case["graph"], case["config"], seed=1) if case["indexed"] else None
        compare(case["graph"], index, case["u"], case["k"], case["config"], case["seed"],
                case["use_l1"], case["adaptive"])

    @pytest.mark.parametrize("theta", [0.0, 0.01])
    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("use_l1", [True, False])
    def test_matches_when_the_heap_fills(self, theta, adaptive, use_l1):
        """At k = 1 the heap fills in the first shells, so later cutoffs
        rise above θ and the one pass draws walks for candidates the
        per-shell scan skips; the answers and counts still agree."""
        graph = copying_web_graph(150, out_degree=4, seed=3)
        config = SimRankConfig.fast().with_(theta=theta, d_max=6)
        index = build_index(graph, config, seed=1)
        filled = extra = 0
        for u in range(0, graph.n, 10):
            got, one_pass, per_shell = compare(graph, index, u, 1, config, u,
                                               use_l1, adaptive)
            filled += len(got.items) == 1
            extra += one_pass.walks > per_shell.walks
        assert filled and extra
