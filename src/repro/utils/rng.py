"""Random-number-generator plumbing.

Every randomized routine in this library accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an integer, or an existing
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps the
Monte-Carlo code deterministic under test while staying convenient for
interactive use.

Per-vertex walk bundles draw from a counter-based source (SplitMix64,
in the spirit of Salmon et al., "Parallel Random Numbers: As Easy as 1,
2, 3", SC'11): :func:`stream_keys` gives each key its stream and
:func:`stream_uniforms` reads value i of any stream, so the uniforms of
one key are a pure function of ``(seed, salt, key)`` and a whole batch
of per-vertex streams is a few numpy passes instead of one seeded
generator per vertex.  Value i of a stream sits at the SplitMix cursor
``key + (i+1)·G`` (:func:`stream_cursors`); a walk loop carries one
cursor per walk and reads it with :func:`cursor_uniforms`.
:func:`keyed_uniforms` is the full ``(rows, keys·width)`` block of
:func:`stream_keys` and :func:`stream_uniforms`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.utils.sync import sanitizer_active

SeedLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    An existing generator is returned unchanged (so callers can thread a
    single generator through a pipeline); integers and ``None`` construct a
    fresh PCG64 generator.  Under ``REPRO_SANITIZE=1`` the constructed
    generator is a consumption-accounting shadow over the *same* bit
    generator — identical stream, recorded draws (see
    :mod:`repro.analysis.sanitizer.rng`).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if sanitizer_active():
        from repro.analysis.sanitizer.rng import shadow_rng

        return shadow_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed.

    Used when an experiment fans out over workers or repeated trials and
    each trial must be reproducible in isolation.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    root = np.random.SeedSequence(seed if isinstance(seed, int) else None)
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the generator's own stream.
        children = np.random.SeedSequence(int(seed.integers(2**63))).spawn(count)
    else:
        children = root.spawn(count)
    return [np.random.default_rng(child) for child in children]


def derive_seed(seed: SeedLike, *salt: int) -> Optional[int]:
    """Derive a child integer seed from ``seed`` and integer salt values.

    Deterministic for integer seeds: the same (seed, salt) pair always maps
    to the same child seed.  Returns ``None`` for ``None`` input so fresh
    entropy stays fresh.
    """
    if seed is None:
        return None
    if isinstance(seed, np.random.Generator):
        child = int(seed.integers(2**63))
    else:
        mixed = np.random.SeedSequence(entropy=seed, spawn_key=tuple(salt))
        child = int(mixed.generate_state(1, dtype=np.uint64)[0])
    if sanitizer_active():
        from repro.analysis.sanitizer.rng import note_derived_seed

        note_derived_seed(child)
    return child


#: SplitMix64's constants as 0-d uint64 arrays (cheaper ufunc operands
#: than numpy scalars): the increment G (the 64-bit golden ratio) and
#: the finalizer's two (right shift, multiplier) rounds and last shift.
_GOLDEN = np.array(0x9E3779B97F4A7C15, dtype=np.uint64)
_ONE = np.array(1, dtype=np.uint64)
_MASK64 = (1 << 64) - 1
_MIX_ROUNDS = (
    (np.array(30, dtype=np.uint64), np.array(0xBF58476D1CE4E5B9, dtype=np.uint64)),
    (np.array(27, dtype=np.uint64), np.array(0x94D049BB133111EB, dtype=np.uint64)),
)
_MIX_LAST = np.array(31, dtype=np.uint64)
#: 64 - 53: keep the top 53 bits, the precision of a float64 in [0, 1).
_FRACTION_SHIFT = np.array(11, dtype=np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array (wraps mod 2^64)."""
    scratch = np.empty_like(z)
    for shift, mult in _MIX_ROUNDS:
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, _MIX_LAST, out=scratch)
    z ^= scratch
    return z


def root_seed(seed: SeedLike) -> int:
    """The int root of a family of :func:`stream_keys` streams.

    An int is its own root; a generator yields one draw, as
    :func:`derive_seed` takes it.  ``None`` draws a fresh root, so a
    caller that resolves its root once gets fresh entropy per call, not
    per key.
    """
    if seed is None:
        seed = np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(2**63))
    return int(seed)


def stream_keys(seed: int, salt: int, keys: "Sequence[int] | np.ndarray") -> np.ndarray:
    """The uint64 stream key of every key: ``mix(mix(seed + salt·G) ^ mix(key + G))``.

    Key b's stream is a pure function of ``(seed, salt, keys[b])``;
    :func:`stream_uniforms` reads values off it.
    """
    keys_u64 = np.asarray(keys).astype(np.uint64).reshape(-1)
    root = np.array([(seed + salt * int(_GOLDEN)) & _MASK64], dtype=np.uint64)
    with np.errstate(over="ignore"):
        streams = _mix(keys_u64 + _GOLDEN)
        streams ^= _mix(root)
        return _mix(streams)


def stream_cursors(streams: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The SplitMix cursor ``key + (counter+1)·G`` of value ``counters[i]`` of
    stream ``streams[i]`` (uint64, modulo 2^64; the two broadcast).

    Value i + j of a stream sits at its cursor for i plus ``j·G``, so a
    walk loop that draws value ``t·R + lane`` at step t carries one
    cursor per walk and adds ``R·G`` per step
    (:meth:`~repro.core.walks.WalkEngine.live_walks`).
    """
    with np.errstate(over="ignore"):
        cursors = np.asarray(counters).astype(np.uint64)
        cursors += _ONE
        cursors *= _GOLDEN
        return cursors + streams


def cursor_stride(width: int) -> np.ndarray:
    """``width·G`` as a 0-d uint64: the cursor step of ``width`` values."""
    return np.array((width * int(_GOLDEN)) & _MASK64, dtype=np.uint64)


def cursor_uniforms(cursors: np.ndarray) -> np.ndarray:
    """The float64 in [0, 1) at each SplitMix cursor: ``mix(cursor) >> 11``
    scaled by 2^-53.  ``cursors`` is left as it is."""
    return _unit_floats(np.array(cursors, dtype=np.uint64))


def stream_uniforms(streams: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Value ``counters[i]`` of stream ``streams[i]``, a float64 in [0, 1).

    Value i of a stream with key ``key`` is ``mix(key + (i+1)·G) >> 11``
    scaled by 2^-53 (modulo 2^64): :func:`cursor_uniforms` at
    :func:`stream_cursors`.  ``streams`` (uint64, from
    :func:`stream_keys`) and ``counters`` (non-negative ints) broadcast.
    """
    with np.errstate(over="ignore"):  # numpy scalar streams warn on wrap
        return _unit_floats(stream_cursors(streams, counters))


def _unit_floats(cursors: np.ndarray) -> np.ndarray:
    """SplitMix64's output at ``cursors`` as floats in [0, 1); mixes in place.

    uint64 array arithmetic wraps modulo 2^64 without a warning, so the
    per-step draw of a walk loop needs no ``np.errstate``.
    """
    values = _mix(cursors)
    values >>= _FRACTION_SHIFT
    uniforms = values.view(np.int64).astype(np.float64)
    uniforms *= 2.0**-53
    return uniforms


def keyed_uniforms(
    seed: int, salt: int, keys: "Sequence[int] | np.ndarray", rows: int, width: int
) -> np.ndarray:
    """Uniforms in [0, 1) for every key, shape ``(rows, len(keys) * width)``.

    Column block b (``width`` columns) belongs to ``keys[b]`` and is a pure
    function of ``(seed, salt, keys[b])``, whatever else is in ``keys``.
    Key b's stream key is ``mix(mix(seed + salt·G) ^ mix(keys[b] + G))``;
    its i-th value (row-major over the ``(rows, width)`` block) is
    ``mix(key + (i+1)·G) >> 11`` scaled by 2^-53, with ``G`` SplitMix64's
    increment and ``mix`` its finalizer, all modulo 2^64.  It is
    :func:`stream_uniforms` over :func:`stream_keys` at counters
    ``t·width + r``.
    """
    streams = stream_keys(seed, salt, keys)
    counters = np.arange(rows * width, dtype=np.uint64).reshape(rows, 1, width)
    values = stream_uniforms(streams.reshape(1, -1, 1), counters)
    return values.reshape(rows, streams.size * width)
