"""Immutable CSR (compressed sparse row) directed-graph storage.

This is the storage layer every algorithm in the library runs on.  It
keeps *both* adjacency directions:

- out-edges, for forward traversal and for the ``P^T`` propagation used
  by the deterministic single-source evaluation of the linear series;
- in-edges, for SimRank's reverse random walks (the paper's walks follow
  in-links) and the ``P`` propagation.

Space is ``O(n + m)`` — the paper's optimality remark in Section 2.2
("O(m) is optimal, because we have to read all edges") is about exactly
this representation.

The transition matrix of the transposed graph, ``P`` (Section 3.1), has

    P[i, j] = 1 / indegree(j)   if i is an in-neighbor of j, else 0,

so ``P @ e_v`` is the distribution of a one-step reverse walk from ``v``
and column ``j`` sums to 1 whenever ``j`` has in-links (dead-end columns
are zero; the corresponding walk terminates, see
:mod:`repro.core.walks`).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphFormatError, VertexError

#: (source, target) pairs: a sequence of tuples or an (m, 2) int array.
EdgeList = Union[Sequence[Tuple[int, int]], np.ndarray]


class CSRGraph:
    """Immutable directed graph in dual-CSR form.

    Use :meth:`from_edges` (or :meth:`DiGraphBuilder.to_csr`) to build
    one.  All neighbor accessors return read-only numpy views.
    """

    __slots__ = (
        "n",
        "m",
        "_out_indptr",
        "_out_indices",
        "_in_indptr",
        "_in_indices",
    )

    def __init__(
        self,
        n: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
    ) -> None:
        self.n = int(n)
        self.m = int(len(out_indices))
        if len(in_indices) != self.m:
            raise GraphFormatError(
                f"in/out edge counts differ: {len(in_indices)} vs {self.m}"
            )
        if len(out_indptr) != self.n + 1 or len(in_indptr) != self.n + 1:
            raise GraphFormatError("indptr arrays must have length n + 1")
        self._out_indptr = np.ascontiguousarray(out_indptr, dtype=np.int64)
        self._out_indices = np.ascontiguousarray(out_indices, dtype=np.int64)
        self._in_indptr = np.ascontiguousarray(in_indptr, dtype=np.int64)
        self._in_indices = np.ascontiguousarray(in_indices, dtype=np.int64)
        for arr in (self._out_indptr, self._out_indices, self._in_indptr, self._in_indices):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: EdgeList) -> "CSRGraph":
        """Build from a vertex count and an iterable of (source, target) pairs.

        Duplicate edges are kept as given (deduplicate in
        :class:`~repro.graph.digraph.DiGraphBuilder` if needed);
        endpoints must lie in ``[0, n)``.  An (m, 2) int64 array is
        used as-is, without a round trip through Python tuples.
        """
        if n < 0:
            raise GraphFormatError(f"vertex count must be nonnegative, got {n}")
        edge_array = _edge_array(edges)
        if edge_array.size:
            bad = (edge_array < 0) | (edge_array >= n)
            if bad.any():
                offender = int(edge_array[bad.any(axis=1)][0].max())
                raise VertexError(offender, n)
        src = edge_array[:, 0]
        dst = edge_array[:, 1]

        out_indptr, out_indices = _build_csr_side(n, src, dst)
        in_indptr, in_indices = _build_csr_side(n, dst, src)
        return cls(n, out_indptr, out_indices, in_indptr, in_indices)

    @classmethod
    def empty(cls, n: int) -> "CSRGraph":
        """Graph with ``n`` vertices and no edges."""
        return cls.from_edges(n, [])

    def apply_delta(
        self,
        adds: EdgeList,
        removes: EdgeList,
        n: int | None = None,
    ) -> "CSRGraph":
        """A new graph with ``adds`` inserted and ``removes`` deleted.

        This is the delta-merge path of the dynamic engine: instead of
        re-sorting all m edges (``from_edges``), only the adjacency rows
        an edit actually touches are rebuilt — every other row is copied
        as one contiguous slab per gap between touched rows, so the cost
        is O(Δ + touched-row degrees + n) rather than O(m log m).

        ``n`` grows the vertex set (it must be ≥ the current count);
        when omitted it is inferred from the added endpoints.  Removing
        an edge that is not present raises :class:`GraphFormatError` —
        the staged-edit bookkeeping upstream guarantees deltas are
        consistent, so a miss here means corruption, not user error.
        The result is bit-identical to ``from_edges`` over the edited
        edge multiset (rows stay sorted; duplicate edges are preserved,
        and a remove drops exactly one occurrence).
        """
        add_array = _edge_array(adds)
        remove_array = _edge_array(removes)
        if n is None:
            n_new = self.n
            if add_array.size:
                n_new = max(n_new, int(add_array.max()) + 1)
        else:
            n_new = int(n)
            if n_new < self.n:
                raise GraphFormatError(
                    f"apply_delta cannot shrink the vertex set ({n_new} < {self.n})"
                )
        for edge_array, limit in ((add_array, n_new), (remove_array, self.n)):
            if edge_array.size:
                bad = (edge_array < 0) | (edge_array >= limit)
                if bad.any():
                    offender = int(edge_array[bad.any(axis=1)][0].max())
                    raise VertexError(offender, limit)
        out_indptr, out_indices = _splice_side(
            self.n, n_new, self._out_indptr, self._out_indices,
            add_array[:, 0], add_array[:, 1],
            remove_array[:, 0], remove_array[:, 1],
        )
        in_indptr, in_indices = _splice_side(
            self.n, n_new, self._in_indptr, self._in_indices,
            add_array[:, 1], add_array[:, 0],
            remove_array[:, 1], remove_array[:, 0],
        )
        return CSRGraph(n_new, out_indptr, out_indices, in_indptr, in_indices)

    # ------------------------------------------------------------------
    # Neighbor access
    # ------------------------------------------------------------------

    def _check_vertex(self, vertex: int) -> int:
        vertex = int(vertex)
        if not 0 <= vertex < self.n:
            raise VertexError(vertex, self.n)
        return vertex

    def out_neighbors(self, vertex: int) -> np.ndarray:
        """Vertices ``w`` with an edge vertex -> w (read-only view, sorted)."""
        vertex = self._check_vertex(vertex)
        return self._out_indices[self._out_indptr[vertex] : self._out_indptr[vertex + 1]]

    def in_neighbors(self, vertex: int) -> np.ndarray:
        """Vertices ``w`` with an edge w -> vertex — the paper's ``delta(vertex)``."""
        vertex = self._check_vertex(vertex)
        return self._in_indices[self._in_indptr[vertex] : self._in_indptr[vertex + 1]]

    def out_degree(self, vertex: int) -> int:
        """Number of out-edges of ``vertex``."""
        vertex = self._check_vertex(vertex)
        return int(self._out_indptr[vertex + 1] - self._out_indptr[vertex])

    def in_degree(self, vertex: int) -> int:
        """Number of in-edges of ``vertex`` (``|delta(vertex)|``)."""
        vertex = self._check_vertex(vertex)
        return int(self._in_indptr[vertex + 1] - self._in_indptr[vertex])

    @property
    def out_degrees(self) -> np.ndarray:
        """All out-degrees as an int64 array of length n."""
        return np.diff(self._out_indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        """All in-degrees as an int64 array of length n."""
        return np.diff(self._in_indptr)

    @property
    def in_indptr(self) -> np.ndarray:
        """Read-only CSR pointer array of the in-adjacency (length n + 1)."""
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        """Read-only concatenated in-neighbor lists (length m)."""
        return self._in_indices

    @property
    def out_indptr(self) -> np.ndarray:
        """Read-only CSR pointer array of the out-adjacency (length n + 1)."""
        return self._out_indptr

    @property
    def out_indices(self) -> np.ndarray:
        """Read-only concatenated out-neighbor lists (length m)."""
        return self._out_indices

    # ------------------------------------------------------------------
    # Whole-graph views
    # ------------------------------------------------------------------

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate (source, target) pairs in source-major sorted order."""
        for u in range(self.n):
            for v in self.out_neighbors(u):
                yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) int64 array, source-major sorted order."""
        sources = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees)
        return np.column_stack([sources, self._out_indices])

    def reverse(self) -> "CSRGraph":
        """The transposed graph (all edges flipped); O(1), shares arrays."""
        return CSRGraph(
            self.n,
            self._in_indptr,
            self._in_indices,
            self._out_indptr,
            self._out_indices,
        )

    def transition_matrix(self) -> sp.csr_matrix:
        """The paper's matrix ``P`` (Section 3.1) as a scipy CSR matrix.

        ``P[i, j] = 1/indegree(j)`` for every in-neighbor ``i`` of ``j``.
        ``P @ x`` pushes a distribution one reverse-walk step; columns of
        dead-end vertices (indegree 0) are zero, so mass on them vanishes
        — exactly the terminating-walk semantics of the Monte-Carlo code.
        """
        indegs = self.in_degrees.astype(np.float64)
        with np.errstate(divide="ignore"):
            inv = np.where(indegs > 0, 1.0 / np.maximum(indegs, 1), 0.0)
        data = np.repeat(inv, self.in_degrees)
        matrix = sp.csc_matrix(
            (data, self._in_indices, self._in_indptr), shape=(self.n, self.n)
        )
        return matrix.tocsr()

    def nbytes(self) -> int:
        """Payload bytes of the adjacency arrays (the O(m) graph storage)."""
        return int(
            self._out_indptr.nbytes
            + self._out_indices.nbytes
            + self._in_indptr.nbytes
            + self._in_indices.nbytes
        )

    # ------------------------------------------------------------------
    # Zero-copy buffer export / attach
    # ------------------------------------------------------------------

    def to_buffers(self) -> Dict[str, np.ndarray]:
        """The four adjacency arrays as read-only views (no copies).

        Together with :meth:`from_buffers` this is the shared-memory
        transport contract of :mod:`repro.shard`: an exporter lays these
        arrays into one segment and a worker reconstructs the graph over
        attached views without duplicating the O(n + m) payload.
        """
        return {
            "out_indptr": self._out_indptr,
            "out_indices": self._out_indices,
            "in_indptr": self._in_indptr,
            "in_indices": self._in_indices,
        }

    @classmethod
    def from_buffers(cls, n: int, buffers: Dict[str, np.ndarray]) -> "CSRGraph":
        """Rebuild a graph over existing arrays without copying them.

        The arrays must be C-contiguous int64 (what :meth:`to_buffers`
        and the shared-memory attach path produce); the constructor's
        ``ascontiguousarray`` then aliases rather than copies, so the
        result shares memory with ``buffers`` — the zero-copy attach.
        """
        try:
            return cls(
                int(n),
                buffers["out_indptr"],
                buffers["out_indices"],
                buffers["in_indptr"],
                buffers["in_indices"],
            )
        except KeyError as exc:
            raise GraphFormatError(f"graph buffer set is missing array {exc}") from exc

    # ------------------------------------------------------------------
    # Binary serialization
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Persist to a compressed .npz (loads ~10x faster than text)."""
        np.savez_compressed(
            path,
            n=np.array([self.n], dtype=np.int64),
            out_indptr=self._out_indptr,
            out_indices=self._out_indices,
            in_indptr=self._in_indptr,
            in_indices=self._in_indices,
        )

    @classmethod
    def load(cls, path) -> "CSRGraph":
        """Load a graph written by :meth:`save`."""
        import zipfile

        try:
            payload = np.load(path)
            return cls(
                int(payload["n"][0]),
                payload["out_indptr"],
                payload["out_indices"],
                payload["in_indptr"],
                payload["in_indices"],
            )
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise GraphFormatError(f"cannot load graph from {path}: {exc}") from exc

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_indices, other._out_indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, self._out_indices.tobytes()[:1024]))

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.m})"


def _build_csr_side(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Build one CSR direction: counts -> prefix sums -> stable scatter."""
    counts = np.bincount(rows, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.lexsort((cols, rows))
    indices = cols[order].astype(np.int64)
    return indptr, indices


def _edge_array(pairs: EdgeList) -> np.ndarray:
    """Normalize an edge list to an (k, 2) int64 array (ndarrays pass as-is)."""
    array = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs),
                       dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GraphFormatError("edges must be (source, target) pairs")
    return array


def _splice_side(
    n_old: int,
    n_new: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    add_rows: np.ndarray,
    add_cols: np.ndarray,
    rem_rows: np.ndarray,
    rem_cols: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Rebuild one CSR direction with only the touched rows re-sorted.

    Untouched rows are copied in contiguous slabs (one numpy slice per
    gap between touched rows); each touched row is re-assembled from its
    old sorted content plus/minus the delta, keeping the per-row sorted
    invariant of ``_build_csr_side``.
    """
    add_map: Dict[int, List[int]] = {}
    for row, col in zip(add_rows.tolist(), add_cols.tolist()):
        add_map.setdefault(row, []).append(col)
    rem_map: Dict[int, List[int]] = {}
    for row, col in zip(rem_rows.tolist(), rem_cols.tolist()):
        rem_map.setdefault(row, []).append(col)
    touched = sorted(set(add_map) | set(rem_map))

    rebuilt: Dict[int, List[int]] = {}
    for row in touched:
        if row < n_old:
            content = indices[indptr[row] : indptr[row + 1]].tolist()
        else:
            content = []
        for col in rem_map.get(row, ()):
            at = bisect.bisect_left(content, col)
            if at >= len(content) or content[at] != col:
                raise GraphFormatError(
                    f"cannot remove absent edge (row {row} has no entry {col})"
                )
            content.pop(at)
        for col in add_map.get(row, ()):
            bisect.insort(content, col)
        rebuilt[row] = content

    counts = np.zeros(n_new, dtype=np.int64)
    counts[:n_old] = np.diff(indptr)
    for row, content in rebuilt.items():
        counts[row] = len(content)
    new_indptr = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])

    total = int(new_indptr[-1])
    new_indices = np.empty(total, dtype=np.int64)
    write = 0
    next_uncopied = 0
    for row in touched:
        slab_stop = min(row, n_old)
        if next_uncopied < slab_stop:
            lo, hi = int(indptr[next_uncopied]), int(indptr[slab_stop])
            new_indices[write : write + hi - lo] = indices[lo:hi]
            write += hi - lo
        content = rebuilt[row]
        new_indices[write : write + len(content)] = content
        write += len(content)
        next_uncopied = row + 1
    if next_uncopied < n_old:
        lo, hi = int(indptr[next_uncopied]), int(indptr[n_old])
        new_indices[write : write + hi - lo] = indices[lo:hi]
        write += hi - lo
    if write != total:
        raise GraphFormatError(
            f"delta splice wrote {write} entries, expected {total}"
        )
    return new_indptr, new_indices
