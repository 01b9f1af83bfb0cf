"""Abstract interpretation of numpy shapes and dtypes (R13–R16 core).

The array kernels pass raw ``np.ndarray`` payloads across module
boundaries; a wrong dtype or rank does not crash, it silently degrades
(a platform-``int_`` index array truncates on Windows, a broadcast
mismatch zero-pads a bound instead of failing).  This module gives the
flow rules the facts those bugs hide behind: for every function in the
:class:`~repro.analysis.flow.graph.ProjectIndex`, an abstract
interpreter runs the body over a three-point domain per value —

- **dtype** — a canonical numpy dtype name, or unknown;
- **shape** — a tuple of dims, each a concrete ``int``, a *symbol*
  (the spelling of a shape variable or a ``@contract`` shape symbol
  like ``W``), or unknown (``None``); the tuple's length is the rank;
- **origin** — how the value was produced, for the few producers whose
  *defaults* are the hazard: ``"arange-default"`` (``np.arange`` with
  no dtype — platform ``np.int_``, 32-bit on Windows) and
  ``"alloc-default"`` (``np.zeros``/``ones``/``empty`` with no dtype —
  float64, poison as an index).

Facts come from ``@contract`` declarations (read statically and parsed
by the runtime's own :func:`~repro.utils.contracts.parse_spec`), numpy constructor calls, ``.astype``,
shape-preserving transforms, and — interprocedurally — per-function
*return summaries* iterated to fixpoint over the call graph: a call to
a project function whose return fact is known propagates that fact to
the caller, so ``walk_matrix``'s int64 rank-2 result is a fact at every
call site without any annotation there.

Everything is precision-first, the bargain the whole flow package
strikes: a fact is only recorded when it is provable from the source;
join points (branches, loops, multiple returns) degrade disagreeing
components to unknown rather than guess.  The rules built on top (R13
shape conformance, R14 index-dtype discipline, R15 hot-path allocation
hygiene, R16 contract drift) therefore only fire on conflicts between
two *known* facts.

Two header-comment markers are parsed here alongside the facts, on the
decorator/``def`` lines of a function (the same grammar
:func:`repro.utils.contracts.contract` reads at decoration time):

- ``# hot-path`` — the function is a steady-state kernel; R15 flags
  redundant-copy allocations inside its loops;
- ``# no-alloc`` — additionally, the runtime sanitizer asserts the
  kernel performs zero tracked allocations after warm-up.
"""

from __future__ import annotations

import ast
import re
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.flow.graph import FunctionInfo, ProjectIndex, flow_index
from repro.analysis.source import SourceFile, attribute_chain
from repro.errors import ContractViolationError
from repro.utils.contracts import KNOWN_DTYPES, ArraySpec, parse_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.runner import Project

__all__ = [
    "ArrayFact",
    "ArrayFlowIndex",
    "FunctionFacts",
    "StaticContract",
    "arrayflow_index",
    "broadcast_conflict",
    "header_lines",
    "marked_hot_path",
    "parse_contract_decorator",
    "spec_fact",
]

#: one dimension: concrete extent, symbol spelling, or unknown.
Dim = Union[int, str, None]
Shape = Tuple[Dim, ...]

_HOT_PATH_RE = re.compile(r"(?:^|\s)#\s*hot-path\s*$")

#: ``np.<name>`` dtype spellings that are platform-dependent C types.
PLATFORM_INT_NAMES = frozenset({"int_", "intc", "long", "longlong", "short"})

#: constructors whose result fact we model (shape from first arg).
_ALLOC_CTORS = frozenset({"zeros", "ones", "empty"})
#: shape-preserving unary module functions.
_PRESERVING = frozenset({"sort", "copy", "ascontiguousarray", "abs"})
#: rank-1-producing module functions (shape extent unknown).
_RANK1 = frozenset({"flatnonzero", "bincount", "diff", "ravel", "unique"})
#: rng method names that draw float64 arrays shaped by their first arg.
_RNG_METHODS = frozenset({"random", "standard_normal", "uniform"})



class ArrayFact:
    """What the interpreter knows about one array-valued expression."""

    __slots__ = ("dtype", "shape", "origin")

    def __init__(
        self,
        dtype: Optional[str] = None,
        shape: Optional[Shape] = None,
        origin: Optional[str] = None,
    ) -> None:
        self.dtype = dtype
        self.shape = shape
        self.origin = origin

    @property
    def rank(self) -> Optional[int]:
        return None if self.shape is None else len(self.shape)

    def known(self) -> bool:
        return self.dtype is not None or self.shape is not None

    def describe(self) -> str:
        dims = (
            "?" if self.shape is None
            else "(" + ", ".join("?" if d is None else str(d) for d in self.shape) + ")"
        )
        return f"{self.dtype or '?'}{dims if self.shape is not None else ''}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayFact {self.describe()} origin={self.origin}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayFact)
            and self.dtype == other.dtype
            and self.shape == other.shape
            and self.origin == other.origin
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.dtype, self.shape, self.origin))


def _join(a: Optional[ArrayFact], b: Optional[ArrayFact]) -> Optional[ArrayFact]:
    """Least upper bound: components that disagree become unknown."""
    if a is None or b is None:
        return None
    dtype = a.dtype if a.dtype == b.dtype else None
    origin = a.origin if a.origin == b.origin else None
    shape: Optional[Shape] = None
    if a.shape is not None and b.shape is not None and len(a.shape) == len(b.shape):
        shape = tuple(
            da if da == db else None for da, db in zip(a.shape, b.shape)
        )
    fact = ArrayFact(dtype=dtype, shape=shape, origin=origin)
    return fact if fact.known() else None


def broadcast_conflict(
    left: Shape, right: Shape, symbols: Set[str]
) -> Optional[Tuple[int, Dim, Dim]]:
    """First broadcasting conflict between two shapes, or None.

    Axes are aligned from the trailing end, numpy-style.  A conflict is
    two *concrete* extents that differ with neither equal to 1, or two
    distinct ``@contract`` shape symbols (``symbols``) on one axis —
    variable-name symbols are propagation devices, not constraints, so
    two different variable spellings never conflict.  Returns
    ``(axis-from-the-right, left dim, right dim)``.
    """
    for offset in range(1, min(len(left), len(right)) + 1):
        da, db = left[-offset], right[-offset]
        if isinstance(da, int) and isinstance(db, int):
            if da != db and da != 1 and db != 1:
                return (offset, da, db)
        elif (
            isinstance(da, str)
            and isinstance(db, str)
            and da != db
            and da in symbols
            and db in symbols
        ):
            return (offset, da, db)
    return None


# ----------------------------------------------------------------------
# Static @contract view
# ----------------------------------------------------------------------


def spec_fact(spec: ArraySpec) -> ArrayFact:
    """The fact a declared spec guarantees about its value."""
    shape: Optional[Shape] = None
    if spec.dims is not None:
        shape = tuple(spec.dims)
    elif spec.ndim is not None:
        shape = (None,) * spec.ndim
    return ArrayFact(dtype=spec.dtype, shape=shape)


class StaticContract:
    """The ``@contract(...)`` declaration on one function, parsed."""

    __slots__ = ("node", "params", "returns", "problems")

    def __init__(self, node: ast.Call) -> None:
        self.node = node
        self.params: Dict[str, ArraySpec] = {}
        self.returns: Optional[ArraySpec] = None
        #: (node, message) for each entry that cannot be checked: not a
        #: literal, rejected by ``parse_spec``, or an unknown parameter.
        self.problems: List[Tuple[ast.AST, str]] = []

    def symbols(self) -> Set[str]:
        out: Set[str] = set()
        for spec in self.params.values():
            out.update(spec.symbols())
        if self.returns is not None:
            out.update(self.returns.symbols())
        return out


def parse_contract_decorator(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> Optional[StaticContract]:
    """The :class:`StaticContract` of a decorated function, if any.

    Only literal string specs are readable; every entry that is not one,
    that ``parse_spec`` rejects, or that names no parameter of ``node``
    lands in ``problems`` instead of the contract (R16 reports them).
    """
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "contract":
            continue
        contract = StaticContract(decorator)
        args = node.args
        params = [
            a.arg
            for i, a in enumerate([*args.posonlyargs, *args.args, *args.kwonlyargs])
            if not (i == 0 and a.arg in ("self", "cls"))
        ]
        for kw in decorator.keywords:
            if kw.arg is None:
                contract.problems.append(
                    (decorator, "@contract specs must be written inline, not **-unpacked")
                )
                continue
            if not (isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str)):
                contract.problems.append(
                    (
                        kw.value,
                        f"@contract spec for {kw.arg!r} must be a string literal "
                        "so it can be checked statically",
                    )
                )
                continue
            try:
                spec = parse_spec(kw.arg, kw.value.value)
            except ContractViolationError as exc:
                contract.problems.append((kw.value, str(exc)))
                continue
            if kw.arg == "returns":
                contract.returns = spec
            elif kw.arg in params:
                contract.params[kw.arg] = spec
            else:
                contract.problems.append(
                    (
                        kw.value,
                        f"@contract on {node.name}() names unknown parameter "
                        f"{kw.arg!r} (has: {', '.join(params) or 'none'})",
                    )
                )
        return contract
    return None


# ----------------------------------------------------------------------
# Header markers
# ----------------------------------------------------------------------


def header_lines(source: SourceFile, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> List[str]:
    """Source lines of the decorators + signature, before the body."""
    start = min(
        [d.lineno for d in node.decorator_list] + [node.lineno]
    )
    end = node.body[0].lineno - 1 if node.body else node.lineno
    return source.lines[start - 1 : end]


def marked_hot_path(source: SourceFile, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    """Whether the function header carries a ``# hot-path`` comment."""
    return any(_HOT_PATH_RE.search(line) for line in header_lines(source, node))


# ----------------------------------------------------------------------
# Per-function product
# ----------------------------------------------------------------------


class FunctionFacts:
    """Everything the interpreter learned about one function."""

    __slots__ = (
        "info", "contract", "hot_path", "fact_by_node", "return_fact",
        "mask_sources",
    )

    def __init__(self, info: FunctionInfo, contract: Optional[StaticContract], hot_path: bool) -> None:
        self.info = info
        self.contract = contract
        self.hot_path = hot_path
        #: ``id(expr node)`` -> fact, for every expression with a known fact.
        self.fact_by_node: Dict[int, ArrayFact] = {}
        #: joined fact of all ``return`` expressions (None = unknown).
        self.return_fact: Optional[ArrayFact] = None
        #: local mask name -> parameter name it was compared from
        #: (``alive = positions >= 0``), for R16's parallel-array check.
        self.mask_sources: Dict[str, str] = {}

    def fact(self, node: ast.AST) -> Optional[ArrayFact]:
        return self.fact_by_node.get(id(node))


class _Evaluator:
    """One forward pass over one function body."""

    def __init__(
        self,
        facts: FunctionFacts,
        source: SourceFile,
        index: ProjectIndex,
        summaries: Dict[str, Optional[ArrayFact]],
    ) -> None:
        self.facts = facts
        self.info = facts.info
        self.source = source
        self.index = index
        self.summaries = summaries
        self.env: Dict[str, Optional[ArrayFact]] = {}
        self.return_fact: Optional[ArrayFact] = None
        self.saw_return = False
        self.np_aliases = set(source.aliases.module_alias_for("numpy"))
        if facts.contract is not None:
            for name, spec in facts.contract.params.items():
                self.env[name] = spec_fact(spec)

    # -- statements ----------------------------------------------------

    def run(self) -> None:
        for stmt in self.info.node.body:
            self._exec(stmt)
        self.facts.return_fact = self.return_fact if self.saw_return else None

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            fact = self._eval(stmt.value)
            self._record_mask(stmt, fact)
            for target in stmt.targets:
                self._assign(target, fact)
        elif isinstance(stmt, ast.AnnAssign):
            fact = self._eval(stmt.value) if stmt.value is not None else None
            self._assign(stmt.target, fact)
        elif isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value)
            self._assign(stmt.target, None)
        elif isinstance(stmt, ast.Return):
            fact = self._eval(stmt.value) if stmt.value is not None else None
            if self.saw_return:
                self.return_fact = _join(self.return_fact, fact)
            else:
                self.return_fact = fact
                self.saw_return = True
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_branches([stmt.body, stmt.orelse])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter)
            self._assign(stmt.target, None)
            self._exec_branches([stmt.body + stmt.orelse, []])
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_branches([stmt.body + stmt.orelse, []])
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, None)
            for child in stmt.body:
                self._exec(child)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                for child in block:
                    self._exec(child)
            for handler in stmt.handlers:
                for child in handler.body:
                    self._exec(child)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested scopes are opaque — different namespace, no facts
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
                elif isinstance(child, ast.stmt):
                    self._exec(child)

    def _exec_branches(self, branches: Sequence[List[ast.stmt]]) -> None:
        """Execute alternative suites from one entry env and join results."""
        entry = dict(self.env)
        exits: List[Dict[str, Optional[ArrayFact]]] = []
        for body in branches:
            self.env = dict(entry)
            for child in body:
                self._exec(child)
            exits.append(self.env)
        merged: Dict[str, Optional[ArrayFact]] = {}
        for name in set().union(*exits):
            fact = exits[0].get(name)
            for other in exits[1:]:
                fact = _join(fact, other.get(name))
            merged[name] = fact
        self.env = merged

    def _assign(self, target: ast.expr, fact: Optional[ArrayFact]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = fact
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, None)
        elif isinstance(target, ast.Subscript):
            self._eval(target.value)
            self._eval(target.slice)
        # attribute stores are out of the local domain

    def _record_mask(self, stmt: ast.Assign, fact: Optional[ArrayFact]) -> None:
        """``alive = positions >= 0`` — remember which param fed the mask."""
        del fact
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        value = stmt.value
        if not (isinstance(value, ast.Compare) and isinstance(value.left, ast.Name)):
            return
        contract = self.facts.contract
        if contract is not None and value.left.id in contract.params:
            self.facts.mask_sources[stmt.targets[0].id] = value.left.id

    # -- expressions ---------------------------------------------------

    def _eval(self, node: Optional[ast.expr]) -> Optional[ArrayFact]:
        if node is None:
            return None
        fact = self._eval_inner(node)
        if fact is not None and fact.known():
            self.facts.fact_by_node[id(node)] = fact
            return fact
        return None

    def _eval_children(self, node: ast.expr) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)

    def _eval_inner(self, node: ast.expr) -> Optional[ArrayFact]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.UnaryOp):
            inner = self._eval(node.operand)
            if inner is not None and isinstance(node.op, (ast.USub, ast.UAdd, ast.Invert)):
                return ArrayFact(inner.dtype, inner.shape)
            return None
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return _join(self._eval(node.body), self._eval(node.orelse))
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value)
            return None
        self._eval_children(node)
        return None

    # -- call modelling ------------------------------------------------

    def _np_func(self, func: ast.expr) -> Optional[str]:
        """``np.<name>`` / bare imported numpy function name, or None."""
        chain = attribute_chain(func)
        if chain is not None and len(chain) == 2 and chain[0] in self.np_aliases:
            return chain[1]
        if isinstance(func, ast.Name):
            qualified = self.source.aliases.qualified(func.id)
            if qualified is not None and qualified.startswith("numpy."):
                return qualified.split(".", 1)[1]
        return None

    def _dtype_of_expr(self, node: ast.expr) -> Optional[str]:
        """Canonical dtype named by a dtype argument, if literal."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value if node.value in KNOWN_DTYPES else None
        chain = attribute_chain(node)
        if chain is not None and chain[-1] in KNOWN_DTYPES:
            return chain[-1]
        return None

    def _shape_of_arg(self, node: ast.expr) -> Optional[Shape]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return (node.value,)
        if isinstance(node, ast.Name) and node.id not in self.env:
            return (node.id,)
        if isinstance(node, ast.Tuple):
            dims: List[Dim] = []
            for elt in node.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, int):
                    dims.append(elt.value)
                elif isinstance(elt, ast.Name) and elt.id not in self.env:
                    dims.append(elt.id)
                else:
                    self._eval(elt)
                    dims.append(None)
            return tuple(dims)
        self._eval(node)
        return None

    def _dtype_kw(self, node: ast.Call) -> Tuple[Optional[str], bool]:
        """(dtype name, dtype keyword present) of a constructor call."""
        for kw in node.keywords:
            if kw.arg == "dtype":
                return self._dtype_of_expr(kw.value), True
        return None, False

    def _eval_call(self, node: ast.Call) -> Optional[ArrayFact]:
        for arg in node.args:
            self._eval(arg)
        for kw in node.keywords:
            self._eval(kw.value)
        func = node.func
        name = self._np_func(func)
        if name is not None:
            return self._eval_np_call(node, name)
        if isinstance(func, ast.Attribute):
            result = self._eval_method(node, func)
            if result is not None:
                return result
        callee = self.index.resolve_call(node, self.info)
        if callee is not None:
            return self.summaries.get(callee)
        return None

    def _eval_np_call(self, node: ast.Call, name: str) -> Optional[ArrayFact]:
        dtype, has_dtype = self._dtype_kw(node)
        first = node.args[0] if node.args else None
        if name in _ALLOC_CTORS:
            shape = self._shape_of_arg(first) if first is not None else None
            if not has_dtype:
                return ArrayFact("float64", shape, origin="alloc-default")
            return ArrayFact(dtype, shape)
        if name == "full":
            shape = self._shape_of_arg(first) if first is not None else None
            return ArrayFact(dtype, shape)
        if name == "arange":
            shape = None
            if len(node.args) == 1 and first is not None:
                if isinstance(first, ast.Constant) and isinstance(first.value, int):
                    shape = (first.value,)
                elif isinstance(first, ast.Name) and first.id not in self.env:
                    shape = (first.id,)
                else:
                    shape = (None,)
            elif node.args:
                shape = (None,)
            if not has_dtype:
                return ArrayFact(None, shape, origin="arange-default")
            return ArrayFact(dtype, shape)
        if name in ("asarray", "array", "ascontiguousarray"):
            inner = self.facts.fact(first) if first is not None else None
            if has_dtype:
                shape = inner.shape if inner is not None else None
                return ArrayFact(dtype, shape)
            return inner
        if name in _PRESERVING:
            inner = self.facts.fact(first) if first is not None else None
            if inner is not None:
                return ArrayFact(inner.dtype, inner.shape)
            return None
        if name in _RANK1:
            inner = self.facts.fact(first) if first is not None else None
            dtype_out = None
            if name in ("diff", "unique", "ravel") and inner is not None:
                dtype_out = inner.dtype
            return ArrayFact(dtype_out, (None,))
        if name == "repeat":
            inner = self.facts.fact(first) if first is not None else None
            if any(kw.arg == "axis" for kw in node.keywords):
                return None
            return ArrayFact(inner.dtype if inner else None, (None,))
        if name == "concatenate" and first is not None:
            return self._eval_concatenate(first)
        if name in ("minimum", "maximum") and len(node.args) >= 2:
            return self._broadcast_facts(
                self.facts.fact(node.args[0]), self.facts.fact(node.args[1])
            )
        if name == "searchsorted":
            return ArrayFact(None, (None,))
        if name == "where":
            return None
        return None

    def _eval_concatenate(self, seq: ast.expr) -> Optional[ArrayFact]:
        if not isinstance(seq, (ast.List, ast.Tuple)):
            return ArrayFact(None, None)
        facts = [self.facts.fact(elt) for elt in seq.elts]
        if not facts or any(f is None or f.shape is None for f in facts):
            return None
        ranks = {len(f.shape) for f in facts}  # type: ignore[arg-type]
        if len(ranks) != 1:
            return None
        rank = ranks.pop()
        dtypes = {f.dtype for f in facts}  # type: ignore[union-attr]
        dtype = dtypes.pop() if len(dtypes) == 1 else None
        trailing: List[Dim] = []
        for axis in range(1, rank):
            dims = {f.shape[axis] for f in facts}  # type: ignore[index]
            trailing.append(dims.pop() if len(dims) == 1 else None)
        return ArrayFact(dtype, (None, *trailing))

    def _eval_method(self, node: ast.Call, func: ast.Attribute) -> Optional[ArrayFact]:
        receiver = self._eval(func.value)
        method = func.attr
        if method == "astype":
            target = None
            if node.args:
                target = self._dtype_of_expr(node.args[0])
            else:
                for kw in node.keywords:
                    if kw.arg == "dtype":
                        target = self._dtype_of_expr(kw.value)
            shape = receiver.shape if receiver is not None else None
            if target is not None:
                return ArrayFact(target, shape)
            return None
        if method == "copy" and receiver is not None:
            return ArrayFact(receiver.dtype, receiver.shape)
        if method == "reshape":
            args = node.args
            if len(args) == 1 and isinstance(args[0], ast.Tuple):
                args = args[0].elts
            dims: List[Dim] = []
            for arg in args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                    dims.append(arg.value if arg.value >= 0 else None)
                elif isinstance(arg, ast.Name) and arg.id not in self.env:
                    dims.append(arg.id)
                else:
                    dims.append(None)
            dtype = receiver.dtype if receiver is not None else None
            return ArrayFact(dtype, tuple(dims) if dims else None)
        if method in _RNG_METHODS:
            shape = (
                self._shape_of_arg(node.args[0]) if node.args else None
            )
            return ArrayFact("float64", shape)
        return None

    # -- operators -----------------------------------------------------

    def _broadcast_facts(
        self, a: Optional[ArrayFact], b: Optional[ArrayFact]
    ) -> Optional[ArrayFact]:
        if a is None and b is None:
            return None
        if a is None or b is None:
            known = a or b
            assert known is not None
            return ArrayFact(None, known.shape)
        dtype: Optional[str] = None
        if a.dtype == b.dtype:
            dtype = a.dtype
        elif "float64" in (a.dtype, b.dtype):
            dtype = "float64"
        elif a.dtype == "bool":
            dtype = b.dtype
        elif b.dtype == "bool":
            dtype = a.dtype
        shape: Optional[Shape] = None
        if a.shape is not None and b.shape is not None:
            rank = max(len(a.shape), len(b.shape))
            left = (None,) * (rank - len(a.shape)) + a.shape
            right = (None,) * (rank - len(b.shape)) + b.shape
            dims: List[Dim] = []
            for da, db in zip(left, right):
                if da == db:
                    dims.append(da)
                elif da == 1:
                    dims.append(db)
                elif db == 1:
                    dims.append(da)
                else:
                    dims.append(None)
            shape = tuple(dims)
        elif a.shape is not None or b.shape is not None:
            shape = None
        return ArrayFact(dtype, shape)

    def _eval_binop(self, node: ast.BinOp) -> Optional[ArrayFact]:
        left = self._eval(node.left)
        right = self._eval(node.right)
        if left is None and right is None:
            return None
        if left is not None and right is not None:
            fact = self._broadcast_facts(left, right)
        else:
            known = left or right
            assert known is not None
            fact = ArrayFact(known.dtype, known.shape)
        if fact is not None and isinstance(node.op, ast.Div):
            fact = ArrayFact("float64", fact.shape)
        return fact

    def _eval_compare(self, node: ast.Compare) -> Optional[ArrayFact]:
        left = self._eval(node.left)
        rights = [self._eval(c) for c in node.comparators]
        right = rights[0] if rights else None
        if left is None and right is None:
            return None
        merged = self._broadcast_facts(left, right) if left and right else (left or right)
        shape = merged.shape if merged is not None else None
        return ArrayFact("bool", shape)

    def _eval_subscript(self, node: ast.Subscript) -> Optional[ArrayFact]:
        value = self._eval(node.value)
        index = self._eval(node.slice)
        if value is None:
            return None
        if isinstance(node.slice, ast.Slice):
            self._eval(node.slice.lower)
            self._eval(node.slice.upper)
            self._eval(node.slice.step)
            if value.shape is not None:
                return ArrayFact(value.dtype, (None, *value.shape[1:]))
            return ArrayFact(value.dtype, None)
        if index is not None and index.shape is not None:
            # Advanced indexing with one array index: boolean masks
            # compact to rank 1; integer indices graft their shape in
            # place of the first axis.
            if index.dtype == "bool":
                return ArrayFact(value.dtype, (None,))
            if value.shape is not None and len(index.shape) == 1:
                return ArrayFact(value.dtype, (index.shape[0], *value.shape[1:]))
            return ArrayFact(value.dtype, None)
        if isinstance(node.slice, ast.Tuple):
            return ArrayFact(value.dtype, None)
        # Scalar index: drops the leading axis.
        if index is None and value.shape is not None and len(value.shape) >= 1:
            if not isinstance(node.slice, (ast.Slice, ast.Tuple)):
                rest = value.shape[1:]
                if rest:
                    return ArrayFact(value.dtype, rest)
                return None  # 0-d result — scalar, not an array fact
        return ArrayFact(value.dtype, None) if value.dtype else None


# ----------------------------------------------------------------------
# Whole-program driver
# ----------------------------------------------------------------------

_MAX_PASSES = 5


class ArrayFlowIndex:
    """Array facts for every function of one lint invocation."""

    def __init__(self, project: "Project") -> None:
        self.index: ProjectIndex = flow_index(project)
        self.functions: Dict[str, FunctionFacts] = {}
        self._summaries: Dict[str, Optional[ArrayFact]] = {}
        self._build()

    def _build(self) -> None:
        shells: Dict[str, FunctionFacts] = {}
        for info in self.index.iter_functions():
            source = self.index.source_by_rel.get(info.rel)
            if source is None:
                continue
            contract = parse_contract_decorator(info.node)
            hot = marked_hot_path(source, info.node)
            shells[info.qual] = FunctionFacts(info, contract, hot)
            # Seed summaries with declared returns: the runtime enforces
            # them, so they are facts at call sites from pass one.
            if contract is not None and contract.returns is not None:
                self._summaries[info.qual] = spec_fact(contract.returns)
            else:
                self._summaries[info.qual] = None

        for _ in range(_MAX_PASSES):
            changed = False
            for qual, shell in shells.items():
                source = self.index.source_by_rel[shell.info.rel]
                facts = FunctionFacts(shell.info, shell.contract, shell.hot_path)
                evaluator = _Evaluator(facts, source, self.index, self._summaries)
                evaluator.run()
                self.functions[qual] = facts
                if shell.contract is None or shell.contract.returns is None:
                    if self._summaries.get(qual) != facts.return_fact:
                        self._summaries[qual] = facts.return_fact
                        changed = True
            if not changed:
                break

    def facts_for(self, qual: str) -> Optional[FunctionFacts]:
        return self.functions.get(qual)

    def in_file(self, rel: str) -> Iterable[FunctionFacts]:
        for facts in self.functions.values():
            if facts.info.rel == rel:
                yield facts


def arrayflow_index(project: "Project") -> ArrayFlowIndex:
    """The (memoised) :class:`ArrayFlowIndex` of ``project``."""
    cached = getattr(project, "_arrayflow_index", None)
    if cached is None:
        cached = ArrayFlowIndex(project)
        project._arrayflow_index = cached  # type: ignore[attr-defined]
    return cached
