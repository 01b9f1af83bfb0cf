"""The whole-program view behind the flow rules (R6–R16).

Where the per-file rules (R1, R3, R4) each walk one AST, the flow rules
need facts that only exist across files: who calls whom, which attribute
is a lock, what a function does to its parameters.  :class:`ProjectIndex`
computes those once per lint run (memoised on the
:class:`~repro.analysis.runner.Project`) and the flow rules read it.

Everything here is *name-based and precision-first*: an edge or
resolution is only recorded when the name is unambiguous (``self.m()``
inside the defining class, a module alias from the import table, a
method name defined by exactly one class project-wide).  Ambiguity means silence, never a guess — a
whole-program rule that cries wolf is deleted within a month.

Vocabulary:

- **function** — module-level ``def`` or a method; nested ``def``s and
  lambdas are scanned as part of their enclosing function but with an
  empty held-lock context (they typically outlive the critical section
  that created them — same rule R1 applies lexically).
- **lock id** — ``Class.attr`` for instance locks created in a class
  (``self._lock = threading.Lock()`` / ``make_lock(...)``),
  ``module.py::NAME`` for module-level locks.
- **qual** — a function's stable key, ``rel::Class.method`` or
  ``rel::function``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.source import SourceFile, attribute_chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.runner import Project

__all__ = [
    "Acquisition",
    "AwaitSite",
    "CallSite",
    "FunctionInfo",
    "LockDef",
    "ProjectIndex",
    "flow_index",
]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Constructor names that create a lock object.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "make_lock", "make_rlock", "allocate_lock"})

#: Module roots whose lock factories yield *event-loop* locks — held
#: across awaits by design, invisible to threads, and therefore exempt
#: from the sync-lock rules (R9's await-under-lock check in particular).
_ASYNC_LOCK_ROOTS = frozenset({"asyncio", "anyio", "trio", "curio"})

#: Method names too generic to resolve by project-wide uniqueness.
_GENERIC_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault", "sort", "reverse", "get", "items", "keys",
        "values", "copy", "add", "discard", "join", "split", "strip",
        "format", "render", "close", "open", "read", "write", "run",
        "start", "result", "done", "put", "take", "acquire", "release",
    }
)


def _dotted_module(rel: str) -> str:
    """Best-effort dotted module path of a repo-relative file path."""
    path = rel.replace("\\", "/")
    if path.endswith(".py"):
        path = path[: -len(".py")]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    parts = [p for p in path.split("/") if p not in ("src", ".")]
    return ".".join(parts)


def _annotation_names(annotation: Optional[ast.expr]) -> Set[str]:
    """Every identifier mentioned in an annotation (handles string forms)."""
    names: Set[str] = set()
    if annotation is None:
        return names
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for token in node.value.replace("[", " ").replace("]", " ").replace(
                ",", " "
            ).replace(".", " ").split():
                if token.isidentifier():
                    names.add(token)
    return names


class FunctionInfo:
    """One function/method definition and its local annotation facts."""

    __slots__ = (
        "qual", "rel", "module", "cls", "name", "node", "params",
        "param_classes", "is_async",
    )

    def __init__(
        self,
        rel: str,
        module: str,
        cls: Optional[str],
        node: _FunctionNode,
    ) -> None:
        self.rel = rel
        self.module = module
        self.cls = cls
        self.name = node.name
        self.qual = f"{rel}::{cls + '.' if cls else ''}{node.name}"
        self.node = node
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        args = node.args
        ordered = [*args.posonlyargs, *args.args]
        self.params: List[str] = [a.arg for a in ordered]
        #: param name -> class names its annotation mentions.
        self.param_classes: Dict[str, Set[str]] = {
            a.arg: _annotation_names(a.annotation)
            for a in [*ordered, *args.kwonlyargs]
            if a.annotation is not None
        }

    def __repr__(self) -> str:
        return f"<FunctionInfo {self.qual}>"


class LockDef:
    """One lock-valued attribute or module global."""

    __slots__ = ("lock_id", "cls", "attr", "rel", "line", "is_async")

    def __init__(
        self,
        lock_id: str,
        cls: Optional[str],
        attr: str,
        rel: str,
        line: int,
        is_async: bool = False,
    ) -> None:
        self.lock_id = lock_id
        self.cls = cls
        self.attr = attr
        self.rel = rel
        self.line = line
        #: created by an asyncio/anyio factory — an event-loop lock, not
        #: a thread mutex (R9 never flags awaits under one of these).
        self.is_async = is_async


class Acquisition:
    """A ``with <lock>:`` entry inside one function."""

    __slots__ = ("lock_id", "line", "held")

    def __init__(self, lock_id: str, line: int, held: Tuple[str, ...]) -> None:
        self.lock_id = lock_id
        self.line = line
        #: lock ids lexically held when this acquisition happens.
        self.held = held


class CallSite:
    """One call expression inside a function, with its lock context."""

    __slots__ = ("callee", "node", "held")

    def __init__(self, callee: Optional[str], node: ast.Call, held: Tuple[str, ...]) -> None:
        #: qual of the resolved callee, or None when ambiguous/external.
        self.callee = callee
        self.node = node
        self.held = held


class AwaitSite:
    """One ``await`` expression inside a function, with its lock context."""

    __slots__ = ("node", "held")

    def __init__(self, node: ast.Await, held: Tuple[str, ...]) -> None:
        self.node = node
        #: lock ids lexically held when control yields to the loop.
        self.held = held


class ProjectIndex:
    """Call graph + lock model of one lint invocation."""

    def __init__(self, project: "Project") -> None:
        self.project = project
        self.functions: Dict[str, FunctionInfo] = {}
        self._methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self._functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self._methods_by_class: Dict[Tuple[str, str], FunctionInfo] = {}
        self.class_files: Dict[str, List[str]] = {}
        #: lock attr name -> definitions (usually exactly one class).
        self.lock_attrs: Dict[str, List[LockDef]] = {}
        #: (module rel, NAME) module-level locks.
        self.module_locks: Dict[Tuple[str, str], LockDef] = {}
        #: lock ids created by asyncio-style factories (see LockDef.is_async).
        self.async_locks: Set[str] = set()
        self.acquisitions: Dict[str, List[Acquisition]] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        self.awaits: Dict[str, List[AwaitSite]] = {}
        self.source_by_rel: Dict[str, SourceFile] = {}
        self._collect_definitions()
        self._scan_bodies()

    # ------------------------------------------------------------------
    # Pass 1: definitions
    # ------------------------------------------------------------------

    def _collect_definitions(self) -> None:
        for source in self.project.sources:
            if source.syntax_error is not None:
                continue
            self.source_by_rel[source.rel] = source
            module = _dotted_module(source.rel)
            for stmt in source.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(source.rel, module, None, stmt)
                elif isinstance(stmt, ast.ClassDef):
                    self.class_files.setdefault(stmt.name, []).append(source.rel)
                    for inner in stmt.body:
                        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self._add_function(source.rel, module, stmt.name, inner)
                    self._collect_class_locks(source.rel, stmt)
                elif self._is_lock_assign(stmt):
                    target = stmt.targets[0]  # type: ignore[union-attr]
                    assert isinstance(target, ast.Name)
                    lock_id = f"{source.rel}::{target.id}"
                    is_async = self._is_async_lock_factory(stmt.value)  # type: ignore[union-attr]
                    self.module_locks[(source.rel, target.id)] = LockDef(
                        lock_id, None, target.id, source.rel, stmt.lineno, is_async
                    )
                    if is_async:
                        self.async_locks.add(lock_id)

    def _add_function(
        self, rel: str, module: str, cls: Optional[str], node: _FunctionNode
    ) -> None:
        info = FunctionInfo(rel, module, cls, node)
        self.functions[info.qual] = info
        if cls is None:
            self._functions_by_name.setdefault(info.name, []).append(info)
        else:
            self._methods_by_name.setdefault(info.name, []).append(info)
            self._methods_by_class[(cls, info.name)] = info

    @staticmethod
    def _is_lock_factory(value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _LOCK_FACTORIES

    @staticmethod
    def _is_async_lock_factory(value: ast.expr) -> bool:
        """``asyncio.Lock()``-style factories: event-loop locks."""
        if not isinstance(value, ast.Call):
            return False
        chain = attribute_chain(value.func)
        return chain is not None and len(chain) >= 2 and chain[0] in _ASYNC_LOCK_ROOTS

    def _is_lock_assign(self, stmt: ast.stmt) -> bool:
        return (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and self._is_lock_factory(stmt.value)
        )

    def _collect_class_locks(self, rel: str, cls: ast.ClassDef) -> None:
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and self._is_lock_factory(node.value):
                for target in node.targets:
                    chain = attribute_chain(target)
                    if chain is not None and len(chain) == 2 and chain[0] == "self":
                        attr = chain[1]
                        lock_id = f"{cls.name}.{attr}"
                        is_async = self._is_async_lock_factory(node.value)
                        self.lock_attrs.setdefault(attr, []).append(
                            LockDef(lock_id, cls.name, attr, rel, node.lineno, is_async)
                        )
                        if is_async:
                            self.async_locks.add(lock_id)

    # ------------------------------------------------------------------
    # Pass 2: bodies (acquisitions + call sites, with held-lock context)
    # ------------------------------------------------------------------

    def _scan_bodies(self) -> None:
        for info in self.functions.values():
            scanner = _BodyScanner(self, info)
            for child in info.node.body:
                scanner.visit(child)
            self.acquisitions[info.qual] = scanner.acquisitions
            self.calls[info.qual] = scanner.calls
            self.awaits[info.qual] = scanner.awaits

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve_lock_expr(self, expr: ast.expr, info: FunctionInfo) -> Optional[str]:
        """Lock id of ``expr`` when it names a known lock, else None."""
        chain = attribute_chain(expr)
        if chain is None:
            return None
        if len(chain) == 1:
            lock = self.module_locks.get((info.rel, chain[0]))
            return lock.lock_id if lock is not None else None
        if len(chain) == 2:
            root, attr = chain
            defs = self.lock_attrs.get(attr, ())
            if not defs:
                return None
            if root == "self" and info.cls is not None:
                for lock in defs:
                    if lock.cls == info.cls:
                        return lock.lock_id
            owner_classes = info.param_classes.get(root, set())
            for lock in defs:
                if lock.cls in owner_classes:
                    return lock.lock_id
            if root != "self" and len({lock.lock_id for lock in defs}) == 1:
                return defs[0].lock_id
        return None

    def resolve_call(self, call: ast.Call, info: FunctionInfo) -> Optional[str]:
        """Qual of the called project function, or None when not provable."""
        func = call.func
        source = self.source_by_rel.get(info.rel)
        aliases = source.aliases if source is not None else None
        if isinstance(func, ast.Name):
            name = func.id
            if aliases is not None:
                qualified = aliases.qualified(name)
                if qualified is not None:
                    target = self._by_dotted(qualified)
                    if target is not None:
                        return target.qual
            candidates = [
                f for f in self._functions_by_name.get(name, []) if f.rel == info.rel
            ] or self._functions_by_name.get(name, [])
            if len(candidates) == 1:
                return candidates[0].qual
            init = self._methods_by_class.get((name, "__init__"))
            if init is not None and len(self.class_files.get(name, [])) == 1:
                return init.qual
            return None
        chain = attribute_chain(func)
        if chain is None or len(chain) != 2:
            return None
        root, method = chain
        if root == "self" and info.cls is not None:
            own = self._methods_by_class.get((info.cls, method))
            if own is not None:
                return own.qual
        if aliases is not None and root in aliases.modules:
            target = self._by_dotted(f"{aliases.modules[root]}.{method}")
            if target is not None:
                return target.qual
        for cls_name in info.param_classes.get(root, set()):
            bound = self._methods_by_class.get((cls_name, method))
            if bound is not None:
                return bound.qual
        if method not in _GENERIC_METHODS:
            candidates = self._methods_by_name.get(method, [])
            if len(candidates) == 1 and not self._functions_by_name.get(method):
                return candidates[0].qual
        return None

    def _by_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        """A module-level function addressed as ``pkg.module.func``."""
        module, _, name = dotted.rpartition(".")
        if not module:
            return None
        for candidate in self._functions_by_name.get(name, []):
            if candidate.module == module or candidate.module.endswith("." + module) or (
                module.endswith("." + candidate.module) if candidate.module else False
            ):
                return candidate
        return None

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------

    def transitive_acquisitions(self) -> Dict[str, Set[str]]:
        """For every function: all lock ids it may acquire, transitively."""
        direct: Dict[str, Set[str]] = {
            qual: {a.lock_id for a in acqs} for qual, acqs in self.acquisitions.items()
        }
        result = {qual: set(locks) for qual, locks in direct.items()}
        changed = True
        while changed:
            changed = False
            for qual, sites in self.calls.items():
                bucket = result.setdefault(qual, set())
                for site in sites:
                    if site.callee is None:
                        continue
                    extra = result.get(site.callee)
                    if extra and not extra.issubset(bucket):
                        bucket.update(extra)
                        changed = True
        return result

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions.values())

    def method_params(self, qual: str) -> Sequence[str]:
        info = self.functions.get(qual)
        return info.params if info is not None else ()


class _BodyScanner(ast.NodeVisitor):
    """Collect acquisitions and call sites with lexical held-lock context."""

    def __init__(self, index: ProjectIndex, info: FunctionInfo) -> None:
        self.index = index
        self.info = info
        self.held: List[str] = []
        self.acquisitions: List[Acquisition] = []
        self.calls: List[CallSite] = []
        self.awaits: List[AwaitSite] = []

    def _visit_with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        acquired: List[str] = []
        for item in node.items:
            lock_id = self.index.resolve_lock_expr(item.context_expr, self.info)
            if lock_id is not None:
                self.acquisitions.append(
                    Acquisition(lock_id, node.lineno, tuple(self.held + acquired))
                )
                acquired.append(lock_id)
            else:
                # Non-lock context managers may still contain calls.
                self.visit(item.context_expr)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_nested(self, node: ast.AST) -> None:
        outer = self.held
        self.held = []
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.held = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_nested(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = self.index.resolve_call(node, self.info)
        self.calls.append(CallSite(callee, node, tuple(self.held)))
        self.generic_visit(node)

    def visit_Await(self, node: ast.Await) -> None:
        self.awaits.append(AwaitSite(node, tuple(self.held)))
        self.generic_visit(node)


def flow_index(project: "Project") -> ProjectIndex:
    """The (memoised) :class:`ProjectIndex` of ``project``."""
    cached = getattr(project, "_flow_index", None)
    if cached is None:
        cached = ProjectIndex(project)
        project._flow_index = cached  # type: ignore[attr-defined]
    return cached
