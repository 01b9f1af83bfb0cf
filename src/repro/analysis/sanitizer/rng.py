"""Consumption-accounting shadows for seeded generators.

The batch-estimate guarantee of ``docs/performance.md`` — scores are a
deterministic function of ``(seed, v, R)``, independent of batch
composition — rests on two runtime facts the type system cannot state:

1. **one stream, one thread** — a :class:`numpy.random.Generator` is
   stateful; two threads drawing from the same instance interleave
   nondeterministically, silently breaking replay;
2. **positional uniform consumption** — every generator materialised
   from a *derived* child seed (:func:`repro.utils.rng.derive_seed`)
   must consume the same draw sequence wherever it is materialised.
   If the fused array kernel and the tests' per-bundle oracle (or two
   call sites that accidentally alias a child seed) disagree about a
   child stream's draw prefix, their results are not comparable and the
   bit-identical guarantees are fiction.

When sanitizing, :func:`repro.utils.rng.ensure_rng` returns a
:class:`ShadowGenerator` — a real ``numpy.random.Generator`` subclass
sharing the same bit generator (so the produced numbers are identical)
that records every draw into the process-global :class:`RngShadowRegistry`
before delegating.  :func:`repro.utils.rng.derive_seed` notes each child
seed it mints, which is how the registry distinguishes derived streams
(replay-checked positionally) from root seeds (reused freely across
independent components).

Violations raise :class:`SanitizerError` with the first and the
conflicting consumption stacks.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.sanitizer.errors import SanitizerError
from repro.analysis.sanitizer.locks import _capture_stack

__all__ = [
    "DrawRecord",
    "RngShadowRegistry",
    "SHADOW_REGISTRY",
    "ShadowGenerator",
    "note_derived_seed",
    "shadow_rng",
]


def _size_elements(size: object) -> int:
    """Number of scalar draws a ``size`` argument denotes."""
    if size is None:
        return 1
    if isinstance(size, (int, np.integer)):
        return int(size)
    try:
        total = 1
        for dim in size:  # type: ignore[union-attr]
            total *= int(dim)
        return total
    except TypeError:
        return 1


class DrawRecord:
    """One recorded draw: method, element count, and the drawing thread."""

    __slots__ = ("method", "elements", "thread_id", "stack")

    def __init__(self, method: str, elements: int, thread_id: int, stack: str) -> None:
        self.method = method
        self.elements = elements
        self.thread_id = thread_id
        self.stack = stack

    def signature(self) -> Tuple[str, int]:
        return (self.method, self.elements)

    def __repr__(self) -> str:
        return f"DrawRecord({self.method}, n={self.elements})"


class RngShadowRegistry:
    """Process-global accounting of shadowed generator consumption.

    Two invariants, with different strictness:

    - cross-thread draws on one generator instance are **always** a
      violation (no legal program does that with a seeded stream);
    - positional replay (two materialisations of the same derived child
      seed must make the identical draw sequence) is checked only inside
      a :meth:`strict_replay` scope.  Outside one it would false-positive
      on legal reuse: a full rebuild after graph edits deliberately
      replays the same derived seeds against a *different* graph, so
      draw sizes differ by design.  Inside a scope — e.g. scoring the
      same candidates through the fused kernel and the oracle, or the
      same batch in two compositions — divergence is exactly the
      stream-aliasing bug the batch-independence guarantee forbids.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        #: child seeds minted by derive_seed while sanitizing.
        self._derived: Dict[int, str] = {}
        #: derived seed -> reference draw sequence (first materialisation).
        self._reference: Dict[int, List[DrawRecord]] = {}
        #: draws per generator key (derived seeds only), across instances.
        self._consumed: Dict[int, int] = {}
        self._strict = False

    # -- derive_seed hook ----------------------------------------------

    def note_derived(self, child: int) -> None:
        """Record that ``child`` is a derived stream seed."""
        with self._mu:
            if child not in self._derived:
                self._derived[child] = _capture_stack()

    def is_derived(self, seed: int) -> bool:
        with self._mu:
            return seed in self._derived

    # -- draw recording -------------------------------------------------

    def record(self, shadow: "ShadowGenerator", method: str, size: object) -> None:
        record = DrawRecord(
            method, _size_elements(size), threading.get_ident(), _capture_stack()
        )
        shadow._check_thread(record)
        key = shadow._seed_key
        if key is None:
            return
        with self._mu:
            if key not in self._derived:
                return
            self._consumed[key] = self._consumed.get(key, 0) + record.elements
            reference = self._reference.setdefault(key, [])
            position = shadow._advance_position()
            if position < len(reference):
                expected = reference[position]
                if self._strict and expected.signature() != record.signature():
                    raise SanitizerError(
                        "derived RNG stream consumed divergently: child seed "
                        f"{key} draw #{position} was "
                        f"{expected.method}(n={expected.elements}) on first "
                        f"materialisation but {record.method}(n={record.elements}) "
                        "now — two consumers are aliasing one derived stream, "
                        "so positional-uniform consumption (and batch-score "
                        "replay) is broken",
                        first_stack=expected.stack,
                        second_stack=record.stack,
                    )
            else:
                reference.append(record)

    # -- strict replay scope --------------------------------------------

    @contextmanager
    def strict_replay(self) -> Iterator[None]:
        """Within this scope, divergent consumption of one derived child
        seed raises.  Entering clears recorded reference sequences so the
        scope compares only materialisations it witnessed itself."""
        with self._mu:
            self._reference.clear()
            self._strict = True
        try:
            yield
        finally:
            with self._mu:
                self._strict = False

    # -- accounting surface for tests -----------------------------------

    def consumption(self, seed: int) -> int:
        """Total scalar draws recorded against derived seed ``seed``."""
        with self._mu:
            return self._consumed.get(seed, 0)

    def draw_log(self, seed: int) -> List[Tuple[str, int]]:
        """The reference draw sequence of derived seed ``seed``."""
        with self._mu:
            return [r.signature() for r in self._reference.get(seed, [])]

    def derived_seeds(self) -> List[int]:
        with self._mu:
            return sorted(self._derived)

    def reset(self) -> None:
        with self._mu:
            self._derived.clear()
            self._reference.clear()
            self._consumed.clear()


#: The process-global registry :func:`shadow_rng` reports to.
SHADOW_REGISTRY = RngShadowRegistry()


class ShadowGenerator(np.random.Generator):
    """A recording ``numpy.random.Generator`` (same stream, same numbers).

    Subclasses the real Generator around the same bit generator, so
    ``isinstance`` checks and the produced values are identical to the
    unshadowed path; draw methods record into the registry first.
    """

    def __init__(
        self,
        bit_generator: np.random.BitGenerator,
        seed_key: Optional[int],
        registry: Optional[RngShadowRegistry] = None,
    ) -> None:
        super().__init__(bit_generator)
        self._seed_key = seed_key
        self._registry = registry or SHADOW_REGISTRY
        self._position = 0
        self._thread_id: Optional[int] = None
        self._first_draw: Optional[DrawRecord] = None

    # -- invariant helpers ---------------------------------------------

    def _advance_position(self) -> int:
        position = self._position
        self._position += 1
        return position

    def _check_thread(self, record: DrawRecord) -> None:
        if self._thread_id is None:
            self._thread_id = record.thread_id
            self._first_draw = record
        elif record.thread_id != self._thread_id:
            first = self._first_draw
            raise SanitizerError(
                "seeded Generator shared across threads: instance with seed "
                f"key {self._seed_key!r} first drew on thread "
                f"{self._thread_id} and is now drawing on thread "
                f"{record.thread_id} — interleaved draws break seeded replay; "
                "derive one child seed per worker instead "
                "(repro.utils.rng.derive_seed)",
                first_stack=first.stack if first else "",
                second_stack=record.stack,
            )

    def _record(self, method: str, size: object) -> None:
        self._registry.record(self, method, size)

    # -- recorded draw methods -----------------------------------------
    # Only the sampling surface this codebase uses; anything else still
    # works (inherited) but goes unrecorded.

    def random(self, size=None, *args, **kwargs):  # type: ignore[no-untyped-def]
        self._record("random", size)
        return super().random(size, *args, **kwargs)

    def integers(self, low, high=None, size=None, *args, **kwargs):  # type: ignore[no-untyped-def]
        self._record("integers", size)
        return super().integers(low, high, size, *args, **kwargs)

    def uniform(self, low=0.0, high=1.0, size=None):  # type: ignore[no-untyped-def]
        self._record("uniform", size)
        return super().uniform(low, high, size)

    def standard_normal(self, size=None, *args, **kwargs):  # type: ignore[no-untyped-def]
        self._record("standard_normal", size)
        return super().standard_normal(size, *args, **kwargs)

    def normal(self, loc=0.0, scale=1.0, size=None):  # type: ignore[no-untyped-def]
        self._record("normal", size)
        return super().normal(loc, scale, size)

    def choice(self, a, size=None, *args, **kwargs):  # type: ignore[no-untyped-def]
        self._record("choice", size)
        return super().choice(a, size, *args, **kwargs)

    def permutation(self, x, *args, **kwargs):  # type: ignore[no-untyped-def]
        self._record("permutation", None)
        return super().permutation(x, *args, **kwargs)

    def shuffle(self, x, *args, **kwargs):  # type: ignore[no-untyped-def]
        self._record("shuffle", None)
        return super().shuffle(x, *args, **kwargs)


def shadow_rng(seed: Union[None, int]) -> np.random.Generator:
    """A shadowed generator for ``seed`` (int or None), same stream as
    ``np.random.default_rng(seed)``."""
    plain = np.random.default_rng(seed)
    key = int(seed) if isinstance(seed, (int, np.integer)) else None
    return ShadowGenerator(plain.bit_generator, key)


def note_derived_seed(child: int) -> None:
    """Hook for :func:`repro.utils.rng.derive_seed` while sanitizing."""
    SHADOW_REGISTRY.note_derived(int(child))
