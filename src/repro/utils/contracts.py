"""Lightweight dtype/shape contracts for public numpy kernels.

The walk engine and the bound tables pass raw ``np.ndarray`` payloads
across module boundaries; a wrong dtype does not crash, it silently
degrades (a float64 position array makes fancy-indexing copies; an
int32 one overflows on the key-packing trick in ``compute_gamma_all``).
The :func:`contract` decorator makes the expectation explicit, checks
it at runtime for a few hundred nanoseconds per call, and — because the
declaration is a literal in the decorator — lets ``repro lint`` (rules
R13–R16) cross-validate declarations and call sites statically.

Usage::

    @contract(positions="int64", returns="int64")
    def step(self, positions: np.ndarray) -> np.ndarray: ...

    @contract(returns="float64[1d]")
    def compute_gamma(...) -> np.ndarray: ...

    @contract(positions="int64[W]", segments="int64[W]")
    def segment_self_collisions(positions, segments, ...) -> np.ndarray: ...

A spec is ``"<dtype>"`` (any shape), ``"<dtype>[<n>d]"`` (exact ndim),
or ``"<dtype>[D1, D2, ...]"`` where each ``D`` is an integer extent or
a named shape symbol.  Symbolic dims fix the rank always; under the
runtime sanitizer (``REPRO_SANITIZE=1`` / ``pytest --sanitize``) each
named symbol must additionally bind to one consistent value across all
parameters and the return value of a single call — ``[W]`` on two
parameters means "same length", checked per invocation.

Checks apply only to values that already *are* ndarrays: array-likes
(lists, scalars) pass through untouched, so contracts never tighten a
kernel's accepted input types — they catch the case where an actual
array of the wrong dtype/rank/shape would be consumed silently.

Kernels whose header carries a ``# no-alloc`` comment additionally run
under the sanitizer's array-allocation accounting
(:mod:`repro.analysis.sanitizer.arrays`): after a warm-up call, any
call that invokes a redundant-copy allocator (``np.concatenate``,
``np.append``, ``np.copy``, ...) raises — the dynamic witness of the
static hot-path rule R15.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar, Union

import numpy as np

from repro.errors import ContractViolationError
from repro.utils.sync import sanitizer_active

__all__ = ["ArraySpec", "contract", "parse_spec"]

_SPEC_RE = re.compile(r"^(?P<dtype>[a-z0-9_]+)(?:\[(?P<shape>[^\[\]]+)\])?$")
_NDIM_RE = re.compile(r"^(?P<ndim>\d+)d$")
_DIM_RE = re.compile(r"^(?:[A-Za-z_][A-Za-z0-9_]*|\d+)$")

#: exact-match comment marking a kernel for zero-alloc accounting.
_NO_ALLOC_RE = re.compile(r"(?:^|\s)#\s*no-alloc\s*$")

#: dtype names a spec may use (numpy canonical names).
KNOWN_DTYPES = frozenset(
    {
        "bool",
        "int8", "int16", "int32", "int64",
        "uint8", "uint16", "uint32", "uint64",
        "float16", "float32", "float64",
        "complex64", "complex128",
    }
)

#: The canonical descriptor of each known dtype.  numpy reuses these
#: objects for every native-order array, so an identity test settles
#: almost every check without computing ``dtype.name``.
_CANONICAL = {name: np.dtype(name) for name in KNOWN_DTYPES}

F = TypeVar("F", bound=Callable[..., Any])

#: one dimension of a shape spec: a concrete extent or a named symbol.
Dim = Union[int, str]


@dataclass(frozen=True)
class ArraySpec:
    """One parsed contract entry: required dtype, optional ndim/shape.

    ``dims`` is set only for the named-shape form; ``ndim`` is always
    set whenever the rank is constrained (derived from ``dims`` when
    present), so rank checks never need to consult both fields.
    """

    dtype: str
    ndim: Optional[int] = None
    dims: Optional[Tuple[Dim, ...]] = None

    def describe(self) -> str:
        if self.dims is not None:
            return f"{self.dtype}[{', '.join(str(d) for d in self.dims)}]"
        return self.dtype if self.ndim is None else f"{self.dtype}[{self.ndim}d]"

    def symbols(self) -> Tuple[str, ...]:
        """The named shape symbols this spec binds (may be empty)."""
        if self.dims is None:
            return ()
        return tuple(d for d in self.dims if isinstance(d, str))


def parse_spec(name: str, spec: str) -> ArraySpec:
    """Parse ``"int64"`` / ``"float64[2d]"`` / ``"int64[T, R]"``.

    Raises :class:`ContractViolationError` on nonsense specs so a typo
    can never ship as a silently unchecked contract.
    """
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ContractViolationError(
            f"contract spec for {name!r} is malformed: {spec!r} "
            "(expected '<dtype>', '<dtype>[<n>d]' or '<dtype>[D1, D2, ...]')"
        )
    dtype = match.group("dtype")
    if dtype not in KNOWN_DTYPES:
        raise ContractViolationError(
            f"contract spec for {name!r} names unknown dtype {dtype!r}"
        )
    shape = match.group("shape")
    if shape is None:
        return ArraySpec(dtype=dtype)
    ndim_match = _NDIM_RE.match(shape.strip())
    if ndim_match is not None:
        return ArraySpec(dtype=dtype, ndim=int(ndim_match.group("ndim")))
    dims: List[Dim] = []
    for token in shape.split(","):
        token = token.strip()
        if not token or _DIM_RE.match(token) is None:
            raise ContractViolationError(
                f"contract spec for {name!r} has a malformed dimension "
                f"{token!r} in {spec!r} (each dim is an integer or a "
                "shape-symbol identifier)"
            )
        dims.append(int(token) if token.isdigit() else token)
    return ArraySpec(dtype=dtype, ndim=len(dims), dims=tuple(dims))


def _check(
    qualname: str,
    label: str,
    value: object,
    spec: ArraySpec,
    bindings: Optional[Dict[str, int]] = None,
) -> None:
    if not isinstance(value, np.ndarray):
        return
    if value.dtype is not _CANONICAL[spec.dtype] and value.dtype.name != spec.dtype:
        raise ContractViolationError(
            f"{qualname}: {label} must be {spec.describe()}, "
            f"got dtype {value.dtype.name}"
        )
    if spec.ndim is not None and value.ndim != spec.ndim:
        raise ContractViolationError(
            f"{qualname}: {label} must be {spec.describe()}, "
            f"got {value.ndim}-d array"
        )
    if spec.dims is None:
        return
    for axis, dim in enumerate(spec.dims):
        extent = value.shape[axis]
        if isinstance(dim, int):
            if extent != dim:
                raise ContractViolationError(
                    f"{qualname}: {label} must be {spec.describe()}, "
                    f"got extent {extent} on axis {axis}"
                )
        elif bindings is not None:
            bound = bindings.get(dim)
            if bound is None:
                bindings[dim] = extent
            elif bound != extent:
                raise ContractViolationError(
                    f"{qualname}: shape symbol {dim!r} is inconsistent — "
                    f"{label} has extent {extent} on axis {axis} but an "
                    f"earlier value bound {dim!r} to {bound}"
                )


def _marked_no_alloc(fn: Callable[..., Any]) -> bool:
    """Whether the function's header carries a ``# no-alloc`` comment.

    The marker must sit on a decorator line or on the ``def`` signature
    (anywhere before the first body statement) — the same grammar the
    static analyzer reads, so the static and runtime views of which
    kernels are allocation-free never drift apart.
    """
    import ast
    import inspect
    import textwrap

    try:
        lines, _ = inspect.getsourcelines(fn)
    except (OSError, TypeError):  # pragma: no cover - source unavailable
        return False
    try:
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except SyntaxError:  # pragma: no cover - dedent artefacts
        return False
    if not tree.body:
        return False
    node = tree.body[0]
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not node.body:
        return False
    header = lines[: node.body[0].lineno - 1]
    return any(_NO_ALLOC_RE.search(line) for line in header)


def contract(**specs: str) -> Callable[[F], F]:
    """Declare and enforce array dtypes/ranks/shapes on a kernel.

    Keyword names must match the wrapped function's parameters (plus the
    special key ``returns``); mismatched names raise at decoration time
    so a typo can never ship as a silently unchecked contract.  Keyword
    and positional call styles are validated identically: a parameter's
    positional index is used only when it genuinely *is* positional
    (``*args``/keyword-only parameters never borrow a tuple slot).
    """

    def decorate(fn: F) -> F:
        import inspect

        signature = inspect.signature(fn)
        parameters = list(signature.parameters)
        parsed: Dict[str, ArraySpec] = {
            key: parse_spec(key, value) for key, value in specs.items()
        }
        returns = parsed.pop("returns", None)
        for key in parsed:
            if key not in parameters:
                raise ContractViolationError(
                    f"contract on {fn.__qualname__} names unknown parameter {key!r}"
                )
        # Positional lookup table so the per-call path never re-binds
        # the signature: (param name, positional index or None, spec).
        # Only genuinely positional parameters get an index — a
        # keyword-only parameter declared after ``*args`` must never be
        # looked up in the args tuple (it would validate an unrelated
        # positional value against the wrong spec).
        positional_kinds = (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
        position_of: Dict[str, int] = {
            name: index
            for index, (name, param) in enumerate(signature.parameters.items())
            if param.kind in positional_kinds
        }
        checkers: List[Tuple[str, Optional[int], ArraySpec]] = [
            (key, position_of.get(key), spec) for key, spec in parsed.items()
        ]
        all_specs = list(parsed.values()) + ([returns] if returns is not None else [])
        has_symbols = any(spec.symbols() for spec in all_specs)
        no_alloc = _marked_no_alloc(fn)
        qualname = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # Shape-symbol binding is a sanitizer-mode check: one dict
            # per call, each named dim must take one consistent value.
            bindings: Optional[Dict[str, int]] = (
                {} if has_symbols and sanitizer_active() else None
            )
            for key, position, spec in checkers:
                if key in kwargs:
                    value = kwargs[key]
                elif position is not None and position < len(args):
                    value = args[position]
                else:
                    continue
                _check(qualname, f"argument {key!r}", value, spec, bindings)
            if no_alloc and sanitizer_active():
                from repro.analysis.sanitizer.arrays import ALLOC_MONITOR

                with ALLOC_MONITOR.track(qualname):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if returns is not None:
                _check(qualname, "return value", result, returns, bindings)
            return result

        wrapper.__contract__ = {  # type: ignore[attr-defined]
            "params": dict(parsed),
            "returns": returns,
            "no_alloc": no_alloc,
        }
        return wrapper  # type: ignore[return-value]

    return decorate
