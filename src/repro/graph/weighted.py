"""Weighted directed graphs and the weighted SimRank primitives.

SimRank++ [3] (cited by the paper as a successful application) extends
SimRank to weighted graphs: the random surfer steps to an in-neighbor
with probability proportional to the edge weight, i.e. the transition
matrix becomes

    P_w[i, j] = w(i, j) / Σ_{i'∈I(j)} w(i', j).

Everything else — the fixed point ``S = (c P_wᵀ S P_w) ∨ I``, the linear
formulation, the Monte-Carlo estimator — carries over verbatim with the
weighted P.  This module provides the weighted storage layer plus the
weighted evaluation primitives; the unweighted machinery in
:mod:`repro.core` is the special case of unit weights (tested as such).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphFormatError, VertexError
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive_int


class WeightedGraph:
    """A :class:`CSRGraph` plus positive edge weights.

    ``in_weights`` is aligned with the underlying graph's
    ``in_indices`` (the weight of the edge from that in-neighbor).
    """

    def __init__(self, graph: CSRGraph, in_weights: np.ndarray) -> None:
        if in_weights.shape != (graph.m,):
            raise GraphFormatError(
                f"expected {graph.m} in-edge weights, got {in_weights.shape}"
            )
        if graph.m and in_weights.min() <= 0:
            raise GraphFormatError("edge weights must be positive")
        self.graph = graph
        self.in_weights = np.ascontiguousarray(in_weights, dtype=np.float64)
        # Per-vertex cumulative weights for O(log deg) weighted sampling.
        self._cumulative = np.zeros(graph.m)
        totals = np.zeros(graph.n)
        for v in range(graph.n):
            start, end = graph.in_indptr[v], graph.in_indptr[v + 1]
            if end > start:
                cumsum = np.cumsum(self.in_weights[start:end])
                self._cumulative[start:end] = cumsum
                totals[v] = cumsum[-1]
        self._totals = totals

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.graph.m

    @classmethod
    def from_weighted_edges(
        cls, n: int, edges: Sequence[Tuple[int, int, float]]
    ) -> "WeightedGraph":
        """Build from (source, target, weight) triples.

        Parallel edges are merged by summing their weights.
        """
        plain = sorted({(int(u), int(v)) for u, v, _ in edges})
        graph = CSRGraph.from_edges(n, plain)
        # Align weights to the in-CSR layout: group by target, then source.
        weight_of = {}
        for u, v, w in edges:
            key = (int(u), int(v))
            weight_of[key] = weight_of.get(key, 0.0) + float(w)
        in_weights = np.zeros(graph.m)
        cursor = 0
        for v in range(n):
            for u in graph.in_neighbors(v):
                in_weights[cursor] = weight_of[(int(u), v)]
                cursor += 1
        return cls(graph, in_weights)

    @classmethod
    def uniform(cls, graph: CSRGraph) -> "WeightedGraph":
        """Unit weights — the unweighted special case."""
        return cls(graph, np.ones(graph.m))

    def transition_matrix(self) -> sp.csr_matrix:
        """The weighted ``P_w`` (columns sum to 1 where in-edges exist)."""
        data = np.zeros(self.graph.m)
        for v in range(self.n):
            start, end = self.graph.in_indptr[v], self.graph.in_indptr[v + 1]
            if end > start:
                data[start:end] = self.in_weights[start:end] / self._totals[v]
        matrix = sp.csc_matrix(
            (data, self.graph.in_indices, self.graph.in_indptr),
            shape=(self.n, self.n),
        )
        return matrix.tocsr()

    def sample_in_neighbors(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One weighted reverse step per vertex; DEAD (-1) at dead ends."""
        result = np.full(len(vertices), -1, dtype=np.int64)
        for i, v in enumerate(vertices):
            v = int(v)
            if v < 0:
                continue
            start, end = self.graph.in_indptr[v], self.graph.in_indptr[v + 1]
            if end == start:
                continue
            threshold = rng.random() * self._totals[v]
            offset = int(
                np.searchsorted(self._cumulative[start:end], threshold, side="right")
            )
            offset = min(offset, end - start - 1)
            result[i] = self.graph.in_indices[start + offset]
        return result


def weighted_exact_simrank(
    wgraph: WeightedGraph,
    c: float = 0.6,
    iterations: Optional[int] = None,
    tol: float = 1e-7,
) -> np.ndarray:
    """All-pairs weighted SimRank: fixed point of ``(c P_wᵀ S P_w) ∨ I``."""
    from repro.core.exact import iterations_for_tolerance

    check_fraction("c", c)
    k = iterations if iterations is not None else iterations_for_tolerance(c, tol)
    P = wgraph.transition_matrix()
    S = np.eye(wgraph.n)
    for _ in range(k):
        S = c * (P.T @ (P.T @ S.T).T)
        np.fill_diagonal(S, 1.0)
    return S


def weighted_single_source_series(
    wgraph: WeightedGraph,
    u: int,
    c: float = 0.6,
    T: int = 11,
    diagonal: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Deterministic weighted series ``s^(T)(u, ·)`` (the §3.2 method)."""
    from repro.core.linear import resolve_diagonal

    if not 0 <= int(u) < wgraph.n:
        raise VertexError(int(u), wgraph.n)
    d = resolve_diagonal(wgraph.n, c, diagonal)
    P = wgraph.transition_matrix()
    PT = P.T.tocsr()
    forward: List[np.ndarray] = []
    x = np.zeros(wgraph.n)
    x[int(u)] = 1.0
    for _ in range(T):
        forward.append(x)
        x = P @ x
    z = np.zeros(wgraph.n)
    for t in range(T - 1, -1, -1):
        z = d * forward[t] + c * (PT @ z)
    return z


def weighted_single_pair_mc(
    wgraph: WeightedGraph,
    u: int,
    v: int,
    c: float = 0.6,
    T: int = 11,
    R: int = 100,
    seed: SeedLike = None,
    diagonal: Optional[np.ndarray] = None,
) -> float:
    """Algorithm 1 with weighted reverse walks.

    Identical collision estimator; only the step distribution changes.
    """
    from repro.core.linear import resolve_diagonal
    from repro.core.walks import FlatSketch

    check_fraction("c", c)
    check_positive_int("T", T)
    check_positive_int("R", R)
    u, v = int(u), int(v)
    for vertex in (u, v):
        if not 0 <= vertex < wgraph.n:
            raise VertexError(vertex, wgraph.n)
    if u == v:
        return 1.0
    rng = ensure_rng(seed)
    d = resolve_diagonal(wgraph.n, c, diagonal)

    def bundle(start: int) -> np.ndarray:
        walks = np.empty((T, R), dtype=np.int64)
        walks[0] = start
        for t in range(1, T):
            walks[t] = wgraph.sample_in_neighbors(walks[t - 1], rng)
        return walks

    value, _ = FlatSketch(bundle(u)).series(FlatSketch(bundle(v)), c, d)
    return value
