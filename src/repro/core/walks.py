"""Reverse random-walk engine and the array-native sketch kernels.

Every Monte-Carlo routine in the paper simulates walks that "start from
a vertex and follow its in-links" (Section 4).  This module owns that
primitive, vectorised with numpy over whole walk bundles:

- a walk at a vertex with no in-links *terminates* (the corresponding
  column of P is zero, so its probability mass vanishes); terminated
  walks are marked with :data:`DEAD` and contribute nothing afterwards;
- :class:`WalkEngine` steps arbitrary position arrays, so Algorithm 1
  (pairs of bundles), Algorithm 2/3 (single bundles), and Algorithm 4
  (index walks) all share one code path;
- :class:`FlatSketch` is the per-step occupation-count view of a
  bundle — sorted vertex ids and counts in contiguous arrays, the object
  both sides of eq. (14) reduce to; :meth:`FlatSketch.series` is the one
  evaluation of eq. (14)'s T-term series over two sketches.  The tests
  keep a dict-based sketch as the equivalence oracle of these kernels
  (see ``docs/performance.md``).

**Seeded bundles.**  Every walk loop carries only its live walks
(:meth:`WalkEngine.live_walks`): before each step the walks at a vertex
without in-links end, and the survivors move through the one stepping
kernel, :meth:`WalkEngine.step_live`.  :meth:`WalkEngine.walk_matrix`
draws the survivors' uniforms from the engine's shared stream; the
batch kernels instead give walk r of the bundle from start v value
``t·R + r`` of v's keyed stream, entry ``(t, r)`` of v's
:func:`~repro.utils.rng.keyed_uniforms` block, read at the SplitMix
cursor each walk carries (:func:`~repro.utils.rng.cursor_uniforms`).
A walk's draw is fixed by (key, step, lane), and an ended walk draws
nothing.  That is what makes fusing exact: a key's stream does not
depend on the other keys stepped with it, so a fused batch of bundles
yields bit-identical trajectories to stepping each seeded bundle alone,
and batch results are reproducible from ``(seed, salt, start vertex)``
regardless of batch composition.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.utils.contracts import contract
from repro.utils.rng import (
    SeedLike,
    cursor_stride,
    cursor_uniforms,
    ensure_rng,
    stream_cursors,
    stream_keys,
)


__all__ = [
    "DEAD",
    "STEP_SHIFT",
    "WalkEngine",
    "FlatSketch",
    "sketch_from_walks",
    "run_length_encode",
    "tagged_collisions",
    "segment_self_collisions",
]
#: Marker for a terminated walk (its vertex had no in-links).
DEAD = -1
#: Bit position of the step tag in a step-tagged key ``(t << 32) | vertex``
#: (:attr:`FlatSketch.keys`, :func:`tagged_collisions`).
STEP_SHIFT = 32
_VERTEX_MASK = (1 << STEP_SHIFT) - 1


class WalkEngine:
    """Vectorised stepping of reverse random walks over a CSR graph."""

    def __init__(self, graph: CSRGraph, seed: SeedLike = None) -> None:
        self.graph = graph
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        self._indptr = graph.in_indptr
        self._indices = graph.in_indices
        self._degrees = graph.in_degrees

    @property
    def rng(self) -> np.random.Generator:
        """The engine's shared stream, made from ``seed`` on first use.

        The keyed batch kernels never draw from it, so an engine that
        only runs them never builds a generator; a generator ``seed`` is
        the stream itself, and ``seed=None`` gives fresh entropy.
        """
        if self._rng is None:
            self._rng = ensure_rng(self._seed)
        return self._rng

    @contract(positions="int64", returns="int64")  # no-alloc
    def step(self, positions: np.ndarray) -> np.ndarray:  # hot-path
        """Advance every walk one in-link step; dead walks stay dead.

        ``positions`` is an int64 array of current vertices (or DEAD); a
        fresh array is returned, inputs are never mutated.  Array-likes
        (lists, scalars) are still coerced, but an ndarray of another
        dtype is rejected — it would silently pay a copy per step.

        Uniforms come from the engine's shared stream, one per alive,
        movable walk in slot order, and the walks move through
        :meth:`step_live`.
        """
        positions = np.asarray(positions, dtype=np.int64)
        result = np.full(positions.shape, DEAD, dtype=np.int64)
        movable = positions >= 0
        movable[movable] = self._degrees[positions[movable]] > 0
        if movable.any():
            live = positions[movable]
            result[movable] = self.step_live(live, self.rng.random(live.size))
        return result

    @contract(positions="int64[W]", uniforms="float64[W]", returns="int64[W]")  # no-alloc
    def step_live(self, positions: np.ndarray, uniforms: np.ndarray) -> np.ndarray:  # hot-path
        """Move walk i to in-neighbour ``floor(uniforms[i] · deg)`` of ``positions[i]``.

        Every position must have an in-link: callers drop the walks that
        end here (see :meth:`live_walks`) before they draw, so an ended
        walk costs no draw and no slot.
        """
        if uniforms.shape != positions.shape:
            raise ValueError(
                f"uniforms shape {uniforms.shape} does not match "
                f"positions shape {positions.shape}"
            )
        offsets = (uniforms * self._degrees[positions]).astype(np.int64)
        offsets += self._indptr[positions]
        return self._indices[offsets]

    def live_walks(
        self,
        starts: np.ndarray,
        R: int,
        T: int,
        streams: Optional[np.ndarray] = None,
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Step R walks from each start, yielding only the walks alive at each step.

        Yields ``(t, positions, segments, lanes)`` for t = 0, 1, … while
        any walk is alive (at most T times): walk i is lane
        ``lanes[i]`` of the bundle from ``starts[segments[i]]`` and sits
        at ``positions[i]``, in the slot order ``segments·R + lanes`` of
        a full-width ``(T, len(starts)·R)`` matrix.  Before each step
        the walks at a vertex without in-links end; each survivor then
        draws value ``t·R + lane`` of its start's stream
        (``streams[segment]``, from :func:`~repro.utils.rng.stream_keys`)
        — entry ``(t, segment·R + lane)`` of the matching
        :func:`~repro.utils.rng.keyed_uniforms` block — so the walks
        are the full-width positional ones, and an ended walk draws
        nothing.  Each walk carries its SplitMix cursor
        (:func:`~repro.utils.rng.stream_cursors`), which moves ``R``
        values per step.  With ``streams=None`` the survivors draw from
        the engine's shared stream in slot order instead.
        """
        starts = np.asarray(starts, dtype=np.int64)
        positions = np.repeat(starts, R)
        segments, lanes = np.divmod(np.arange(starts.size * R, dtype=np.int64), R)
        cursors = None if streams is None else stream_cursors(np.repeat(streams, R), lanes)
        stride = cursor_stride(R)
        for t in range(T):
            yield t, positions, segments, lanes
            if t + 1 == T:
                return
            keep = self._degrees[positions] > 0
            if not keep.all():
                positions, segments, lanes = positions[keep], segments[keep], lanes[keep]
                if cursors is not None:
                    cursors = cursors[keep]
                if positions.size == 0:
                    return
            if cursors is None:
                uniforms = self.rng.random(positions.size)
            else:
                uniforms = cursor_uniforms(cursors)
                cursors += stride
            positions = self.step_live(positions, uniforms)

    def sketch(self, start: int, R: int, T: int) -> "FlatSketch":
        """The :class:`FlatSketch` of :meth:`walk_matrix`'s bundle, same draws.

        It is built from the step-tagged keys of the live walks, with no
        ``(T, R)`` matrix in between.
        """
        self._check_bundle(start, R, T)
        keys = [
            positions + (t << STEP_SHIFT)
            for t, positions, _, _ in self.live_walks(np.array([start]), R, T)
        ]
        return FlatSketch.from_keys(np.concatenate(keys), T, R)

    @contract(returns="int64[2d]")
    def walk_matrix(self, start: int, R: int, T: int) -> np.ndarray:
        """R independent walks of T steps from ``start`` as a (T, R) array.

        Row t holds the positions u^(t) of all R walks; row 0 is the
        start vertex itself (the paper's walks include position 0).
        The walks draw from the engine's shared stream, one uniform per
        live walk per step.
        """
        return self._bundle(start, R, T, None)

    @contract(returns="int64[2d]")
    def walk_matrix_seeded(
        self, start: int, R: int, T: int, seed: int, salt: int
    ) -> np.ndarray:
        """Like :meth:`walk_matrix`, driven by ``start``'s keyed stream.

        Walk r's step t → t+1 draws value ``t·R + r`` of
        ``stream_keys(seed, salt, [start])``, entry ``(t, r)`` of
        ``keyed_uniforms(seed, salt, [start], T - 1, R)``.  A batch
        kernel that runs many starts through :meth:`live_walks` reaches
        bit-identical trajectories — the determinism contract of the
        batch estimators, Algorithm 3 and the batched Algorithm 4.
        """
        return self._bundle(start, R, T, stream_keys(seed, salt, [start]))

    def _bundle(
        self, start: int, R: int, T: int, streams: Optional[np.ndarray]
    ) -> np.ndarray:
        """One start's (T, R) walk matrix, DEAD where a walk has ended."""
        self._check_bundle(start, R, T)
        out = np.full((T, R), DEAD, dtype=np.int64)
        for t, positions, _, lanes in self.live_walks(np.array([start]), R, T, streams):
            out[t, lanes] = positions
        return out

    def _check_bundle(self, start: int, R: int, T: int) -> None:
        if not 0 <= start < self.graph.n:
            raise VertexError(start, self.graph.n)
        if R < 1 or T < 1:
            raise ValueError(f"R and T must be >= 1, got R={R}, T={T}")


def run_length_encode(sorted_values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:  # hot-path
    """Distinct values and run lengths of an already-sorted int64 array.

    Returns ``(values, counts)`` with ``counts`` as float64 — every
    consumer immediately multiplies counts into a float expression, so
    encoding them as float64 here avoids a cast per collision.
    """
    if sorted_values.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    boundaries = np.empty(sorted_values.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    # Run lengths as consecutive-start differences, written straight into
    # the float64 result (``np.append`` here used to build and discard an
    # intermediate on the hottest kernel path — R15 caught it).
    counts = np.empty(starts.size, dtype=np.float64)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = sorted_values.size - starts[-1]
    return sorted_values[starts], counts


class FlatSketch:
    """Array-native per-step occupation counts of one walk bundle.

    For a bundle of R walks from u, step t is stored as a slice of two
    contiguous arrays — sorted distinct vertex ids (int64) and their
    occupation counts (float64).  Dividing counts by R gives the
    empirical estimate of ``P^t e_u`` used on both sides of eq. (14);
    collision values are computed by a ``searchsorted`` merge of two
    sorted id arrays.  ``keys`` tags every entry with its step,
    ``(t << 32) | vertex`` (vertex ids are below 2^32, so the tag never
    overlaps them); the keys are sorted across the whole sketch, so
    :meth:`series` matches all T steps in one merge.  The sketch is
    built from its keys: one ``np.sort`` of the alive walks' step-tagged
    positions, one run-length encode, and the step offsets read off the
    sorted keys.  :meth:`from_keys` builds the same sketch from the
    keys alone, as :meth:`WalkEngine.sketch` yields them.
    """

    __slots__ = ("T", "R", "vertices", "counts", "offsets", "keys")

    def __init__(self, walk_matrix: np.ndarray, R: Optional[int] = None) -> None:  # hot-path
        walk_matrix = np.asarray(walk_matrix, dtype=np.int64)
        T = int(walk_matrix.shape[0])
        step_tags = np.arange(T, dtype=np.int64) << STEP_SHIFT
        tagged = walk_matrix + step_tags[:, None]
        self._encode(
            np.sort(tagged[walk_matrix >= 0]), T,
            int(R) if R is not None else int(walk_matrix.shape[1]),
        )

    @classmethod
    def from_keys(cls, keys: np.ndarray, T: int, R: int) -> "FlatSketch":
        """The sketch of a T-step bundle of R walks whose alive walks sit
        at the step-tagged ``keys`` (``(t << 32) | vertex``, any order)."""
        sketch = cls.__new__(cls)
        sketch._encode(np.sort(keys), T, R)
        return sketch

    def _encode(self, sorted_keys: np.ndarray, T: int, R: int) -> None:
        self.T, self.R = T, R
        self.keys, self.counts = run_length_encode(sorted_keys)
        self.vertices = self.keys & _VERTEX_MASK
        self.offsets = np.searchsorted(
            self.keys, np.arange(T + 1, dtype=np.int64) << STEP_SHIFT
        )

    def row(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(vertices, counts)`` views for step t (sorted, distinct)."""
        lo, hi = int(self.offsets[t]), int(self.offsets[t + 1])
        return self.vertices[lo:hi], self.counts[lo:hi]

    def alive_fraction(self, t: int) -> float:
        """Fraction of the bundle still alive at step t."""
        lo, hi = int(self.offsets[t]), int(self.offsets[t + 1])
        return float(self.counts[lo:hi].sum()) / self.R

    def collision_value(self, other: "FlatSketch", t: int, diagonal: np.ndarray) -> float:
        """Estimate of ``(P^t e_u)^T D (P^t e_v)`` — the inner sum of eq. (14).

        Merges the smaller sorted id array into the larger with one
        ``searchsorted``; O(min support · log(max support)) per step and
        zero Python-level iteration.
        """
        mine_v, mine_c = self.row(t)
        other_v, other_c = other.row(t)
        if other_v.size < mine_v.size:
            mine_v, mine_c, other_v, other_c = other_v, other_c, mine_v, mine_c
        if mine_v.size == 0 or other_v.size == 0:
            return 0.0
        loc = np.minimum(np.searchsorted(other_v, mine_v), other_v.size - 1)
        matched = other_v[loc] == mine_v
        if not matched.any():
            return 0.0
        hits = mine_v[matched]
        total = float((diagonal[hits] * mine_c[matched] * other_c[loc[matched]]).sum())
        return total / (self.R * other.R)

    def series(
        self, other: "FlatSketch", c: float, diagonal: np.ndarray
    ) -> Tuple[float, int]:
        """Eq. (14)'s series ``Σ_t c^t (P^t e_u)^T D (P^t e_v)`` over both sketches.

        One ``searchsorted`` of the smaller key array into the larger
        matches every step at once; one ``bincount`` splits the matched
        mass into per-step terms.  Returns the sum of the
        ``min(T, other.T)`` terms and the number of them that are
        positive (the steps at which the two bundles met).
        """
        mine, theirs = (self, other) if self.keys.size <= other.keys.size else (other, self)
        if mine.keys.size == 0:
            return 0.0, 0
        loc = np.minimum(np.searchsorted(theirs.keys, mine.keys), theirs.keys.size - 1)
        matched = theirs.keys[loc] == mine.keys
        if not matched.any():
            return 0.0, 0
        hits = mine.keys[matched]
        mass = diagonal[hits & _VERTEX_MASK] * mine.counts[matched] * theirs.counts[loc[matched]]
        steps = min(self.T, other.T)
        terms = np.bincount(hits >> STEP_SHIFT, weights=mass, minlength=steps)
        terms *= c ** np.arange(steps) / (self.R * other.R)
        return float(terms.sum()), int(np.count_nonzero(terms > 0.0))

    def self_collision_value(self, t: int, diagonal: np.ndarray) -> float:
        """Estimate of ``||sqrt(D) P^t e_u||^2`` from one bundle (Algorithm 3)."""
        vertices, counts = self.row(t)
        if vertices.size == 0:
            return 0.0
        return float((diagonal[vertices] * (counts / self.R) ** 2).sum())


@contract(keys="int64[W]", cells="int64[W]", sketch_keys="int64[K]",
          sketch_counts="float64[K]", diagonal="float64", returns="float64[1d]")  # no-alloc
def tagged_collisions(  # hot-path
    keys: np.ndarray,
    cells: np.ndarray,
    sketch_keys: np.ndarray,
    sketch_counts: np.ndarray,
    diagonal: np.ndarray,
    n_cells: int,
) -> np.ndarray:
    """Per-cell collision mass of a whole walk loop against a sketch.

    ``keys[i]`` is the step-tagged position ``(t << 32) | w`` of a live
    walk at step t, and ``cells[i]`` names the (bundle, step) cell it
    adds to; ``sketch_keys``/``sketch_counts`` are a
    :class:`FlatSketch`'s :attr:`~FlatSketch.keys` and
    :attr:`~FlatSketch.counts`.  Returns, per cell, ``Σ diagonal[w] ·
    sketch_count`` over the cell's walks that sit on a sketch vertex of
    their own step — dividing by ``R · sketch.R`` gives eq. (14)'s inner
    sum for every bundle and step in one ``searchsorted`` and one
    ``np.bincount`` (the fused screen/refine reduction of Algorithm 5).
    A cell's walks add in the order they appear in ``keys``.
    """
    if cells.shape != keys.shape:
        raise ValueError(
            f"cells shape {cells.shape} does not match keys shape {keys.shape}"
        )
    if sketch_keys.size == 0:
        return np.zeros(n_cells)
    loc = np.minimum(np.searchsorted(sketch_keys, keys), sketch_keys.size - 1)
    matched = sketch_keys[loc] == keys
    if not matched.any():  # np.bincount of no weights would be int64
        return np.zeros(n_cells)
    contributions = diagonal[keys[matched] & _VERTEX_MASK] * sketch_counts[loc[matched]]
    return np.bincount(cells[matched], weights=contributions, minlength=n_cells)


@contract(positions="int64[W]", segments="int64[W]", diagonal="float64",
          returns="float64[1d]")  # no-alloc
def segment_self_collisions(  # hot-path
    positions: np.ndarray,
    segments: np.ndarray,
    diagonal: np.ndarray,
    R: int,
    n_segments: int,
) -> np.ndarray:
    """Per-segment ``Σ_w diagonal[w] · (count_w / R)²`` — the γ² reduction.

    ``positions`` are live walks (no DEAD), ``segments[i]`` names the
    bundle that walk i belongs to, and all bundles share the sample
    count R.  One sort + run-length encode over packed (segment,
    vertex) keys replaces a dict per bundle — the same kernel family as
    :class:`FlatSketch`, applied to Algorithm 3's whole-graph batch
    (:func:`repro.core.bounds.compute_gamma_all`).
    """
    if positions.size == 0:
        return np.zeros(n_segments)
    stride = np.int64(diagonal.shape[0] + 1)
    keys = segments * stride + positions
    packed, counts = run_length_encode(np.sort(keys))
    vertices = packed % stride
    contributions = diagonal[vertices] * (counts / R) ** 2
    return np.bincount(packed // stride, weights=contributions, minlength=n_segments)


def sketch_from_walks(
    graph: CSRGraph, start: int, R: int, T: int, seed: SeedLike = None
) -> FlatSketch:
    """Convenience: run a bundle and sketch it in one call."""
    return WalkEngine(graph, seed).sketch(start, R, T)
