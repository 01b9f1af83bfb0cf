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

**Seeded bundles.**  :meth:`WalkEngine.walk_matrix` consumes the
engine's shared stream and draws one uniform per *alive, movable* walk
per step.  The batch kernels instead use :meth:`WalkEngine.step_given`
with a pre-drawn ``(T - 1, R)`` block per bundle from
:func:`~repro.utils.rng.keyed_uniforms`, consumed *positionally* (a dead
slot burns its draw).  Positional consumption is what makes fusing
exact: a keyed block does not depend on the other keys drawn with it,
so stepping the fused ``(T, B·R)`` matrix yields bit-identical
trajectories to stepping each seeded bundle alone, and batch results
are reproducible from ``(seed, salt, start vertex)`` regardless of
batch composition.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.utils.contracts import contract
from repro.utils.rng import SeedLike, ensure_rng, keyed_uniforms


__all__ = [
    "DEAD",
    "WalkEngine",
    "FlatSketch",
    "sketch_from_walks",
    "run_length_encode",
    "segment_collisions",
    "segment_self_collisions",
]
#: Marker for a terminated walk (its vertex had no in-links).
DEAD = -1


class WalkEngine:
    """Vectorised stepping of reverse random walks over a CSR graph."""

    def __init__(self, graph: CSRGraph, seed: SeedLike = None) -> None:
        self.graph = graph
        self.rng = ensure_rng(seed)
        self._indptr = graph.in_indptr
        self._indices = graph.in_indices
        self._degrees = graph.in_degrees

    @contract(positions="int64", returns="int64")  # no-alloc
    def step(self, positions: np.ndarray) -> np.ndarray:  # hot-path
        """Advance every walk one in-link step; dead walks stay dead.

        ``positions`` is an int64 array of current vertices (or DEAD); a
        fresh array is returned, inputs are never mutated.  Array-likes
        (lists, scalars) are still coerced, but an ndarray of another
        dtype is rejected — it would silently pay a copy per step.

        Uniforms come from the engine's shared stream and are drawn only
        for alive, movable walks; use :meth:`step_given` when the draws
        must be positionally reproducible.
        """
        positions = np.asarray(positions, dtype=np.int64)
        result = np.full(positions.shape, DEAD, dtype=np.int64)
        alive = positions >= 0
        if not alive.any():
            return result
        current = positions[alive]
        degrees = self._degrees[current]
        movable = degrees > 0
        if movable.any():
            sources = current[movable]
            offsets = (self.rng.random(len(sources)) * degrees[movable]).astype(np.int64)
            landed = self._indices[self._indptr[sources] + offsets]
            alive_idx = np.nonzero(alive)[0]
            result[alive_idx[movable]] = landed
        return result

    @contract(positions="int64", uniforms="float64", returns="int64")  # no-alloc
    def step_given(
        self, positions: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:  # hot-path
        """Advance walks using caller-supplied uniforms, one per slot.

        Unlike :meth:`step`, every walk slot owns exactly one uniform in
        ``uniforms`` whether or not it is alive — dead slots burn their
        draw.  This positionally fixed consumption is what lets a fused
        ``(T, B·R)`` batch reproduce independently seeded per-candidate
        bundles exactly (see the module docstring).
        """
        positions = np.asarray(positions, dtype=np.int64)
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != positions.shape:
            raise ValueError(
                f"uniforms shape {uniforms.shape} does not match "
                f"positions shape {positions.shape}"
            )
        result = np.full(positions.shape, DEAD, dtype=np.int64)
        alive = positions >= 0
        if not alive.any():
            return result
        current = positions[alive]
        degrees = self._degrees[current]
        movable = degrees > 0
        if movable.any():
            alive_idx = np.nonzero(alive)[0]
            slots = alive_idx[movable]
            sources = current[movable]
            offsets = (uniforms[slots] * degrees[movable]).astype(np.int64)
            result[slots] = self._indices[self._indptr[sources] + offsets]
        return result

    @contract(returns="int64[2d]")
    def walk_matrix(self, start: int, R: int, T: int) -> np.ndarray:
        """R independent walks of T steps from ``start`` as a (T, R) array.

        Row t holds the positions u^(t) of all R walks; row 0 is the
        start vertex itself (the paper's walks include position 0).
        """
        if not 0 <= start < self.graph.n:
            raise VertexError(start, self.graph.n)
        if R < 1 or T < 1:
            raise ValueError(f"R and T must be >= 1, got R={R}, T={T}")
        out = np.empty((T, R), dtype=np.int64)
        out[0] = start
        for t in range(1, T):
            out[t] = self.step(out[t - 1])
        return out

    @contract(returns="int64[2d]")
    def walk_matrix_seeded(
        self, start: int, R: int, T: int, seed: int, salt: int
    ) -> np.ndarray:
        """Like :meth:`walk_matrix`, driven by ``start``'s keyed uniforms.

        The whole uniform block is ``keyed_uniforms(seed, salt, [start],
        T - 1, R)``, consumed positionally via :meth:`step_given`.  A
        batch kernel that draws many keys in one call and steps them
        fused side by side therefore reaches bit-identical trajectories
        — the determinism contract of the batch estimators, Algorithm 3
        and the batched Algorithm 4.
        """
        if not 0 <= start < self.graph.n:
            raise VertexError(start, self.graph.n)
        if R < 1 or T < 1:
            raise ValueError(f"R and T must be >= 1, got R={R}, T={T}")
        uniforms = keyed_uniforms(seed, salt, [start], T - 1, R)
        out = np.empty((T, R), dtype=np.int64)
        out[0] = start
        for t in range(1, T):
            out[t] = self.step_given(out[t - 1], uniforms[t - 1])
        return out

    @contract(returns="int64[2d]")
    def walk_matrix_multi(self, starts: Sequence[int], T: int) -> np.ndarray:
        """One walk per start vertex, as a (T, len(starts)) array.

        Used by the batched γ computation and the Fogaras–Rácz baseline's
        whole-graph sweeps.
        """
        starts_arr = np.asarray(list(starts), dtype=np.int64)
        if starts_arr.size and (starts_arr.min() < 0 or starts_arr.max() >= self.graph.n):
            offender = int(starts_arr[(starts_arr < 0) | (starts_arr >= self.graph.n)][0])
            raise VertexError(offender, self.graph.n)
        out = np.empty((T, len(starts_arr)), dtype=np.int64)
        out[0] = starts_arr
        for t in range(1, T):
            out[t] = self.step(out[t - 1])
        return out


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


#: Bit position of the step tag in a :attr:`FlatSketch.keys` entry.
_STEP_SHIFT = 32
_VERTEX_MASK = (1 << _STEP_SHIFT) - 1


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
    sorted keys.
    """

    __slots__ = ("T", "R", "vertices", "counts", "offsets", "keys")

    def __init__(self, walk_matrix: np.ndarray, R: Optional[int] = None) -> None:  # hot-path
        walk_matrix = np.asarray(walk_matrix, dtype=np.int64)
        self.T = int(walk_matrix.shape[0])
        bundle = int(walk_matrix.shape[1])
        self.R = int(R) if R is not None else bundle
        step_tags = np.arange(self.T + 1, dtype=np.int64) << _STEP_SHIFT
        tagged = walk_matrix + step_tags[:-1, None]
        self.keys, self.counts = run_length_encode(np.sort(tagged[walk_matrix >= 0]))
        self.vertices = self.keys & _VERTEX_MASK
        self.offsets = np.searchsorted(self.keys, step_tags)

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
        terms = np.bincount(hits >> _STEP_SHIFT, weights=mass, minlength=steps)
        terms *= c ** np.arange(steps) / (self.R * other.R)
        return float(terms.sum()), int(np.count_nonzero(terms > 0.0))

    def self_collision_value(self, t: int, diagonal: np.ndarray) -> float:
        """Estimate of ``||sqrt(D) P^t e_u||^2`` from one bundle (Algorithm 3)."""
        vertices, counts = self.row(t)
        if vertices.size == 0:
            return 0.0
        return float((diagonal[vertices] * (counts / self.R) ** 2).sum())


@contract(positions="int64", sketch_vertices="int64", sketch_counts="float64",
          diagonal="float64", returns="float64[1d]")  # no-alloc
def segment_collisions(  # hot-path
    positions: np.ndarray,
    sketch_vertices: np.ndarray,
    sketch_counts: np.ndarray,
    diagonal: np.ndarray,
    segment_size: int,
    n_segments: int,
) -> np.ndarray:
    """Per-segment collision mass of one fused position row against a sketch row.

    ``positions`` is the step-t row of a fused bundle laid out as
    ``n_segments`` consecutive blocks of ``segment_size`` walks;
    ``sketch_vertices``/``sketch_counts`` are one :meth:`FlatSketch.row`.
    Returns, per segment, ``Σ diagonal[w] · sketch_count[w]`` over the
    segment's walks that landed on a sketch vertex w — dividing by
    ``segment_size · sketch.R`` gives eq. (14)'s inner sum for every
    segment in one pass (the fused screen/refine reduction of
    Algorithm 5).
    """
    if positions.size != segment_size * n_segments:
        raise ValueError(
            f"positions has {positions.size} slots, expected "
            f"{segment_size} x {n_segments}"
        )
    if sketch_vertices.size == 0:
        return np.zeros(n_segments)
    alive = np.flatnonzero(positions >= 0)
    if alive.size == 0:
        return np.zeros(n_segments)
    landed = positions[alive]
    loc = np.minimum(np.searchsorted(sketch_vertices, landed), sketch_vertices.size - 1)
    matched = sketch_vertices[loc] == landed
    if not matched.any():
        return np.zeros(n_segments)
    hits = landed[matched]
    contributions = diagonal[hits] * sketch_counts[loc[matched]]
    segments = alive[matched] // segment_size
    return np.bincount(segments, weights=contributions, minlength=n_segments)


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

    ``segments[i]`` names the bundle that walk slot i belongs to; all
    bundles share the sample count R.  One sort + run-length encode over
    packed (segment, vertex) keys replaces a dict per bundle — the same
    kernel family as :class:`FlatSketch`, applied to Algorithm 3's
    whole-graph batch (:func:`repro.core.bounds.compute_gamma_all`).
    """
    alive = positions >= 0
    if not alive.any():
        return np.zeros(n_segments)
    stride = np.int64(diagonal.shape[0] + 1)
    keys = segments[alive] * stride + positions[alive]
    packed, counts = run_length_encode(np.sort(keys))
    vertices = packed % stride
    contributions = diagonal[vertices] * (counts / R) ** 2
    return np.bincount(packed // stride, weights=contributions, minlength=n_segments)


def sketch_from_walks(
    graph: CSRGraph, start: int, R: int, T: int, seed: SeedLike = None
) -> FlatSketch:
    """Convenience: run a bundle and sketch it in one call."""
    engine = WalkEngine(graph, seed)
    return FlatSketch(engine.walk_matrix(start, R, T))
