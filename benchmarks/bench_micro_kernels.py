"""Micro-benchmarks of the computational kernels.

These time the building blocks the paper's complexity table reasons
about: a single walk step, a full walk bundle, the Monte-Carlo
single-pair estimate (Algorithm 1, claimed size-independent), the
deterministic O(Tm) series, the Fogaras-Racz coupled query, and one
exact all-pairs iteration (the O(n^2)-memory competitor).

The ``TestKernelComparison`` block times the array-native kernels of
``src/`` against the dict-based equivalence oracle of
``tests/kernel_oracle.py`` ("reference") on the sanity-size graph and
writes a machine-readable ``BENCH_kernels.json`` sidecar at the repo
root recording the speedups.  CI runs it in quick mode
(``REPRO_BENCH_QUICK=1``) and fails when the array kernels are slower
than the oracle.  Run it with ``python -m pytest`` from the repo root,
which puts ``tests`` on the import path.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.fogaras_racz import FingerprintIndex
from repro.core.exact import exact_simrank
from repro.core.index import build_signatures
from repro.core.linear import resolve_diagonal, single_pair_series, single_source_series
from repro.core.montecarlo import (
    SingleSourceEstimator,
    _membership_filter,
    single_pair_simrank,
)
from repro.core.walks import STEP_SHIFT, FlatSketch, WalkEngine, tagged_collisions
from repro.utils.bench import write_sidecar
from tests.kernel_oracle import PositionSketch, reference_scores, reference_signatures


@pytest.fixture(scope="module")
def fr_index(web_graph_medium, bench_config):
    return FingerprintIndex(
        web_graph_medium, num_fingerprints=50, T=bench_config.T, c=bench_config.c, seed=0
    )


def test_walk_step(benchmark, web_graph_medium):
    engine = WalkEngine(web_graph_medium, seed=0)
    positions = np.arange(web_graph_medium.n, dtype=np.int64)
    benchmark(lambda: engine.step(positions))


def test_walk_bundle(benchmark, web_graph_medium, bench_config):
    engine = WalkEngine(web_graph_medium, seed=0)
    benchmark(lambda: engine.walk_matrix(10, R=bench_config.r_pair, T=bench_config.T))


def test_single_pair_montecarlo(benchmark, web_graph_medium, bench_config):
    benchmark(
        lambda: single_pair_simrank(web_graph_medium, 10, 20, bench_config, seed=0)
    )


def test_single_pair_deterministic(benchmark, web_graph_medium, bench_config):
    P = web_graph_medium.transition_matrix()
    benchmark(
        lambda: single_pair_series(
            web_graph_medium, 10, 20, c=bench_config.c, T=bench_config.T, transition=P
        )
    )


def test_single_source_deterministic(benchmark, web_graph_medium, bench_config):
    P = web_graph_medium.transition_matrix()
    benchmark(
        lambda: single_source_series(
            web_graph_medium, 10, c=bench_config.c, T=bench_config.T, transition=P
        )
    )


def test_fogaras_racz_single_pair(benchmark, fr_index):
    benchmark(lambda: fr_index.single_pair(10, 20))


def test_fogaras_racz_single_source(benchmark, fr_index):
    benchmark(lambda: fr_index.single_source(10))


def test_exact_all_pairs_small(benchmark, grqc_graph):
    benchmark.pedantic(
        lambda: exact_simrank(grqc_graph, c=0.6, iterations=10), rounds=1, iterations=1
    )


def test_montecarlo_is_size_independent(web_graph_medium, bench_config):
    """Algorithm 1's headline: cost does not grow with the graph."""
    import time

    from repro.graph.generators import copying_web_graph

    small = copying_web_graph(300, seed=1)
    big = web_graph_medium  # 5x the vertices

    def time_pairs(graph):
        start = time.perf_counter()
        for seed in range(8):
            single_pair_simrank(graph, 3, 7, bench_config, seed=seed)
        return time.perf_counter() - start

    time_pairs(small)  # warm-up
    t_small = time_pairs(small)
    t_big = time_pairs(big)
    assert t_big < 3.0 * t_small  # flat up to constant-factor noise


def test_li_iterative_single_pair(benchmark, grqc_graph):
    """Li et al. [21] — Table 1's iterative single-pair baseline."""
    from repro.baselines.li_single_pair import li_single_pair

    benchmark.pedantic(
        lambda: li_single_pair(grqc_graph, 3, 7, c=0.6, iterations=5),
        rounds=1,
        iterations=2,
    )


def test_weighted_single_pair_mc(benchmark, web_graph_medium, bench_config):
    """SimRank++-style weighted Monte-Carlo estimate."""
    from repro.graph.weighted import WeightedGraph, weighted_single_pair_mc

    wgraph = WeightedGraph.uniform(web_graph_medium)
    benchmark.pedantic(
        lambda: weighted_single_pair_mc(
            wgraph, 10, 20, c=bench_config.c, T=bench_config.T,
            R=bench_config.r_pair, seed=0,
        ),
        rounds=1,
        iterations=3,
    )


def test_single_pair_with_ci(benchmark, web_graph_medium, bench_config):
    """Batch-means confidence interval around Algorithm 1."""
    from repro.core.montecarlo import single_pair_with_ci

    benchmark.pedantic(
        lambda: single_pair_with_ci(
            web_graph_medium, 10, 20, bench_config, seed=0, batches=4
        ),
        rounds=1,
        iterations=2,
    )


# ---------------------------------------------------------------------------
# Array kernels vs the dict-based oracle in tests/kernel_oracle.py.
# ---------------------------------------------------------------------------

SIDECAR_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _timed(fn, repeats: int) -> float:
    """Best-of-N wall clock of ``fn`` (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestKernelComparison:
    """Oracle-vs-array timings + the BENCH_kernels.json sidecar.

    Runs at the acceptance point of the kernel rewrite: R=100, T=10 on
    the ~10^4-edge sanity graph.  ``REPRO_BENCH_QUICK=1`` shrinks the
    candidate set and repeat counts for the CI smoke step; the speedup
    floors it asserts are the regression gate (array must never be
    slower than reference, and the fused batch estimator must hold a
    >= 5x margin in full mode).
    """

    def test_kernel_speedups_and_sidecar(self, web_graph_medium, bench_config):
        quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
        config = bench_config.with_(T=10, r_pair=100)
        graph = web_graph_medium
        u = 10
        repeats = 2 if quick else 4
        n_candidates = 24 if quick else 96
        n_signature_vertices = 40 if quick else 200
        candidates = [v for v in range(graph.n) if v != u][:n_candidates]
        sig_vertices = list(range(n_signature_vertices))
        diagonal = resolve_diagonal(graph.n, config.c, None)
        walks = WalkEngine(graph, seed=0).walk_matrix(u, config.r_pair, config.T)

        timings: dict = {}

        # 1. Sketch build: one np.sort+RLE pass vs a dict per step.
        timings["sketch_build"] = {
            "array": _timed(lambda: FlatSketch(walks), repeats),
            "reference": _timed(lambda: PositionSketch(walks), repeats),
        }

        # 2. Batch collision, timed as the served path runs it
        # (SingleSourceEstimator._batch_array): each step's walk
        # positions pass the u-sketch's membership filter, and one
        # searchsorted+bincount (tagged_collisions) sums the survivors'
        # step-tagged keys per (step, candidate) cell.  The reference
        # probes the dict sketch once per walk position and step.  The
        # filter table is built once per source vertex on the served
        # path, so it is built outside the timed region here too.
        flat_u = FlatSketch(walks)
        dict_u = PositionSketch(walks)
        B = len(candidates)
        positions = np.random.default_rng(7).integers(
            0, graph.n, size=B * config.r_pair
        ).astype(np.int64)
        segments = np.repeat(np.arange(B, dtype=np.int64), config.r_pair)
        on_sketch, mask = _membership_filter(flat_u.vertices)

        def array_collisions() -> np.ndarray:
            # The same walk positions at every step, tagged with their
            # step, each in its (step, candidate) cell t·B + segment.
            keys, cells = [], []
            for t in range(config.T):
                hit = on_sketch[positions & mask]
                keys.append(positions[hit] + (t << STEP_SHIFT))
                cells.append(segments[hit] + t * B)
            mass = tagged_collisions(
                np.concatenate(keys), np.concatenate(cells), flat_u.keys,
                flat_u.counts, diagonal, config.T * B,
            )
            return mass.reshape(config.T, B).sum(axis=0)

        def dict_collisions() -> list:
            total = [0.0] * B
            for t in range(config.T):
                row = dict_u.counts[t]
                for i, w in enumerate(positions.tolist()):
                    count = row.get(w)
                    if count:
                        total[i // config.r_pair] += diagonal[w] * count
            return total

        timings["collision"] = {
            "array": _timed(array_collisions, repeats),
            "reference": _timed(dict_collisions, repeats),
        }
        np.testing.assert_allclose(array_collisions(), dict_collisions(), atol=1e-12)

        # 3. Fused batch estimate (live walks only) vs the oracle's
        # per-candidate loop over full-width keyed bundles.
        array_estimator = SingleSourceEstimator(graph, u, config=config, seed=0)
        oracle_scores = reference_scores(graph, u, config, seed=0)
        timings["batch_estimate"] = {
            "array": _timed(
                lambda: array_estimator.estimate_batch(candidates, R=config.r_pair),
                repeats,
            ),
            "reference": _timed(lambda: oracle_scores(candidates, config.r_pair), repeats),
        }
        np.testing.assert_allclose(
            array_estimator.estimate_batch(candidates, R=config.r_pair),
            oracle_scores(candidates, config.r_pair),
            atol=1e-12,
        )

        # 4. Batched Algorithm 4 (live walks scattered into the bundle) vs
        # the oracle's per-vertex full-width signature walks.
        timings["signature_build"] = {
            "array": _timed(
                lambda: build_signatures(graph, config, seed=0, vertices=sig_vertices),
                repeats,
            ),
            "reference": _timed(
                lambda: reference_signatures(graph, config, seed=0, vertices=sig_vertices),
                repeats,
            ),
        }

        speedups = {
            kernel: row["reference"] / row["array"] for kernel, row in timings.items()
        }
        sidecar = {
            "graph": {"n": graph.n, "m": graph.m},
            "parameters": {
                "T": config.T,
                "R": config.r_pair,
                "candidates": len(candidates),
                "signature_vertices": len(sig_vertices),
                "quick": quick,
            },
            "timings_seconds": timings,
            "speedups": speedups,
        }
        write_sidecar(SIDECAR_PATH, "kernels", sidecar)

        # Regression gate: the array path must never lose to the oracle,
        # and the fused estimator carries the PR's >= 5x acceptance bar.
        assert speedups["collision"] >= 1.0
        assert speedups["batch_estimate"] >= (1.0 if quick else 5.0)
        assert speedups["signature_build"] >= 1.0


def test_batch_estimate_array(benchmark, web_graph_medium, bench_config):
    config = bench_config.with_(T=10)
    estimator = SingleSourceEstimator(web_graph_medium, 10, config=config, seed=0)
    candidates = list(range(11, 59))
    benchmark.pedantic(
        lambda: estimator.estimate_batch(candidates, R=config.r_pair),
        rounds=1,
        iterations=3,
    )


def test_batch_estimate_reference(benchmark, web_graph_medium, bench_config):
    config = bench_config.with_(T=10)
    scores = reference_scores(web_graph_medium, 10, config, seed=0)
    candidates = list(range(11, 59))
    benchmark.pedantic(
        lambda: scores(candidates, config.r_pair),
        rounds=1,
        iterations=1,
    )
