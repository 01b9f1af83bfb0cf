"""Breadth-first traversal primitives.

The query phase of the paper's algorithm reasons about graph distance
``d(u, v)``:  candidates are examined "in the ascending order of distance
from a given vertex u" (Section 2.2) and both upper bounds are functions
of that distance (Section 6).  Because the paper's random walks follow
*in-links*, the distance that matters for the bounds is the BFS distance
in the reversed edge direction; :func:`bfs_distances` supports all three
conventions explicitly so experiments can compare them.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Literal

import numpy as np

from repro.errors import VertexError
from repro.graph.csr import CSRGraph

Direction = Literal["out", "in", "both"]

UNREACHABLE = -1


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """All neighbors of the frontier vertices, concatenated (vectorised)."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # repeat(start - run_offset) + arange reconstructs every slice index.
    run_ends = np.cumsum(counts)
    bases = starts - (run_ends - counts)
    return indices[np.repeat(bases, counts) + np.arange(total, dtype=np.int64)]


def bfs_distances(
    graph: CSRGraph,
    source: int,
    direction: Direction = "in",
    max_distance: int | None = None,
) -> np.ndarray:
    """Hop distances from ``source``; unreachable vertices get ``-1``.

    ``direction="in"`` (the default) follows in-links, matching the
    paper's reverse random walks; ``"out"`` follows out-links; ``"both"``
    treats the graph as undirected.
    ``max_distance`` truncates the search frontier, which is how the
    query phase only explores the local ball around the query vertex.

    Level-synchronous and numpy-vectorised: each BFS level is one
    gather of the frontier's neighbors, one mask of the unlabelled ones,
    and a sort-free dedup (every copy of a vertex writes its slot, and
    the copy whose slot survived joins the next frontier).  Labels do
    not depend on frontier order, so no level is sorted.
    """
    if not 0 <= source < graph.n:
        raise VertexError(source, graph.n)
    if direction not in ("in", "out", "both"):
        raise ValueError(f"unknown direction {direction!r}")
    dist = np.full(graph.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    slot = np.empty(graph.n, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size and (max_distance is None or level < max_distance):
        gathered = []
        if direction in ("in", "both"):
            gathered.append(_gather_neighbors(graph.in_indptr, graph.in_indices, frontier))
        if direction in ("out", "both"):
            gathered.append(
                _gather_neighbors(graph.out_indptr, graph.out_indices, frontier)
            )
        neighbors = np.concatenate(gathered) if len(gathered) > 1 else gathered[0]
        fresh = neighbors[dist[neighbors] == UNREACHABLE]
        if fresh.size == 0:
            break
        level += 1
        dist[fresh] = level
        positions = np.arange(fresh.size, dtype=np.int64)
        slot[fresh] = positions
        frontier = fresh[slot[fresh] == positions]
    return dist


def distance_ball(
    graph: CSRGraph,
    source: int,
    radius: int,
    direction: Direction = "in",
) -> Dict[int, int]:
    """Vertices within ``radius`` hops of ``source`` mapped to their distance.

    This is the "local area" the paper's search explores (Section 2.2,
    ingredient 3): high-SimRank vertices live within distance 2-4.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    dist = bfs_distances(graph, source, direction=direction, max_distance=radius)
    reachable = np.nonzero(dist != UNREACHABLE)[0]
    return {int(v): int(dist[v]) for v in reachable}


def vertices_by_distance(
    graph: CSRGraph,
    source: int,
    radius: int,
    direction: Direction = "in",
) -> List[List[int]]:
    """Vertices grouped by distance: element ``d`` lists vertices at hop ``d``."""
    ball = distance_ball(graph, source, radius, direction=direction)
    shells: List[List[int]] = [[] for _ in range(radius + 1)]
    for vertex, d in sorted(ball.items()):
        shells[d].append(vertex)
    return shells


def weakly_connected_components(graph: CSRGraph) -> List[List[int]]:
    """Weakly connected components, each sorted, largest first."""
    seen = np.zeros(graph.n, dtype=bool)
    components: List[List[int]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        queue: deque[int] = deque([start])
        while queue:
            vertex = queue.popleft()
            for nxt in np.concatenate(
                [graph.out_neighbors(vertex), graph.in_neighbors(vertex)]
            ):
                nxt = int(nxt)
                if not seen[nxt]:
                    seen[nxt] = True
                    component.append(nxt)
                    queue.append(nxt)
        components.append(sorted(component))
    components.sort(key=len, reverse=True)
    return components
