"""R8 — escape analysis for published snapshots.

In-flight queries score against a published snapshot while the writer
builds the next one; a single store into the live one corrupts answers
for every concurrent reader, silently.  Often no single step looks
wrong: a value captured from ``handle.current()`` flows through a few
local names and into a helper that mutates its parameter.

R8 tracks that flow with whole-program taint:

- **sources** — results of ``.current()`` and shared-memory
  ``.attach()`` calls, reads of a ``._snapshot`` attribute, and
  parameters annotated with a snapshot type (``EngineSnapshot``,
  ``CandidateIndex``, ``BufferBackedCandidateIndex``, ``FlatSketch``,
  ``GammaTable``, ``SharedArrayBundle``); attribute projections
  propagate (``snap.engine``, ``snap.index.signatures`` are as
  published as ``snap``, and ``bundle.arrays`` is as shared as the
  segment it maps);
- **blessed copies** — ``.clone()`` results and snapshot-class
  constructor calls are clean (they are the sanctioned write path);
- **sinks** — an attribute or subscript store (plain or augmented)
  into a tainted receiver, passing a tainted value to a project
  function whose parameter is *mutated* (directly or transitively —
  summaries to fixpoint over the call graph), calling a resolved
  method that mutates ``self`` on a tainted receiver, and storing a
  tainted value into a ``global``-declared name.

Findings fire at the escaping store/call site.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.flow.graph import FunctionInfo, ProjectIndex, flow_index
from repro.analysis.flow.taint import LocalTaint, TaintDomain
from repro.analysis.rules import Rule
from repro.analysis.source import SourceFile, attribute_chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.runner import Project

__all__ = ["SnapshotEscapeRule", "SNAPSHOT_CLASSES"]

#: types whose instances are published, immutable serving state.  The
#: shard additions extend the rule across process boundaries: a
#: ``SharedArrayBundle`` (and the buffer-backed index built over one)
#: maps memory owned by another process's epoch, so mutating it — or
#: letting it outlive its epoch — has the same blast radius as writing
#: into a published snapshot.
SNAPSHOT_CLASSES = (
    "EngineSnapshot",
    "CandidateIndex",
    "BufferBackedCandidateIndex",
    "FlatSketch",
    "GammaTable",
    "SharedArrayBundle",
)

#: Container methods that mutate their receiver.
CONTAINER_MUTATORS = (
    "append", "extend", "insert", "remove", "pop", "popitem",
    "clear", "update", "setdefault", "sort", "reverse", "fill",
)


class _SnapshotDomain(TaintDomain):
    source_calls = frozenset({"current", "attach"})
    sanitizer_calls = frozenset({"clone", "cls", *SNAPSHOT_CLASSES})

    def is_source_expr(self, expr: ast.expr) -> bool:
        return isinstance(expr, ast.Attribute) and expr.attr == "_snapshot"

    def owned_names(self, info: FunctionInfo) -> Set[str]:
        """Locals bound from ``.clone()`` or a snapshot constructor."""
        owned: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                from repro.analysis.flow.taint import call_name

                if call_name(node.value) in self.sanitizer_calls:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            owned.add(target.id)
        return owned


def _snapshot_params(info: FunctionInfo) -> Set[str]:
    return {
        param
        for param, classes in info.param_classes.items()
        if classes.intersection(SNAPSHOT_CLASSES)
    }


def _chain_root(expr: ast.expr) -> Optional[str]:
    chain = attribute_chain(expr)
    return chain[0] if chain else None


def _direct_mutations(info: FunctionInfo) -> Set[str]:
    """Parameters (incl. ``self``) this function mutates in place."""
    params = set(info.params)
    mutated: Set[str] = set()
    for node in ast.walk(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                stripped = target
                while isinstance(stripped, ast.Subscript):
                    stripped = stripped.value
                root = _chain_root(stripped)
                if root in params:
                    mutated.add(root)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in CONTAINER_MUTATORS:
                root = _chain_root(node.func.value)
                if root in params:
                    mutated.add(root)
    return mutated


def _mutation_summaries(index: ProjectIndex) -> Dict[str, Set[str]]:
    """param name -> mutated, per function, closed over the call graph."""
    summaries = {
        info.qual: _direct_mutations(info) for info in index.iter_functions()
    }
    changed = True
    while changed:
        changed = False
        for info in index.iter_functions():
            own = summaries[info.qual]
            params = set(info.params)
            for site in index.calls.get(info.qual, ()):
                if site.callee is None:
                    continue
                callee = index.functions.get(site.callee)
                if callee is None:
                    continue
                callee_mutates = summaries.get(site.callee, set())
                # A parameter forwarded into a mutated parameter.
                for param, arg in _map_params(site.node, callee):
                    root = (
                        arg.id if isinstance(arg, ast.Name) else _chain_root(arg)
                    )
                    if (
                        param in callee_mutates
                        and root in params
                        and root not in own
                    ):
                        own.add(root)
                        changed = True
                # A method mutating ``self``, called on a parameter.
                if "self" in callee_mutates and isinstance(
                    site.node.func, ast.Attribute
                ):
                    root = _chain_root(site.node.func.value)
                    if root in params and root not in own:
                        own.add(root)
                        changed = True
    return summaries


def _map_params(call: ast.Call, callee: FunctionInfo):
    from repro.analysis.flow.rngflow import _map_call_args

    return _map_call_args(call, callee)


class SnapshotEscapeRule(Rule):
    id = "R8"
    name = "snapshot-escape"
    summary = (
        "a published snapshot (EngineSnapshot/CandidateIndex/FlatSketch/"
        "GammaTable) or shared-memory attachment (SharedArrayBundle) must "
        "not be stored into or escape into a call that mutates it — patch "
        "a `.clone()` and publish a new snapshot instead"
    )

    def __init__(self) -> None:
        self._findings: Dict[str, List[Finding]] = {}

    def prepare(self, project: "Project") -> None:
        self._findings = {}
        index = flow_index(project)
        domain = _SnapshotDomain()
        summaries = _mutation_summaries(index)

        for info in index.iter_functions():
            taint = LocalTaint(info, domain, _snapshot_params(info))
            if not taint.tainted and not self._any_source(info, domain):
                continue
            for finding in self._escapes(index, info, taint, summaries):
                self._findings.setdefault(info.rel, []).append(finding)

    @staticmethod
    def _any_source(info: FunctionInfo, domain: _SnapshotDomain) -> bool:
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and domain.is_source_call(node):
                return True
            if isinstance(node, ast.Attribute) and domain.is_source_expr(node):
                return True
        return False

    def _escapes(
        self,
        index: ProjectIndex,
        info: FunctionInfo,
        taint: LocalTaint,
        summaries: Dict[str, Set[str]],
    ) -> Iterator[Finding]:
        short = info.qual.split("::", 1)[1]
        for site in index.calls.get(info.qual, ()):
            if site.callee is None:
                continue
            callee = index.functions.get(site.callee)
            if callee is None:
                continue
            callee_mutates = summaries.get(site.callee, set())
            callee_short = site.callee.split("::", 1)[1]
            if "self" in callee_mutates and isinstance(site.node.func, ast.Attribute):
                if taint.expr_tainted(site.node.func.value):
                    yield Finding(
                        rule=self.id,
                        path=info.rel,
                        line=site.node.lineno,
                        col=site.node.col_offset,
                        message=(
                            f"published snapshot escapes in `{short}`: "
                            f"`{callee_short}()` mutates its receiver, but the "
                            "receiver derives from a live snapshot — patch a "
                            "`.clone()` and publish a new snapshot (escape "
                            "analysis)"
                        ),
                    )
                    continue
            for param, arg in _map_params(site.node, callee):
                if param in callee_mutates and taint.expr_tainted(arg):
                    yield Finding(
                        rule=self.id,
                        path=info.rel,
                        line=site.node.lineno,
                        col=site.node.col_offset,
                        message=(
                            f"published snapshot escapes in `{short}`: argument "
                            f"`{param}` of `{callee_short}()` is mutated by the "
                            "callee, but the value derives from a live snapshot "
                            "— pass a `.clone()` instead (escape analysis)"
                        ),
                    )
        # A store into a tainted receiver writes the published object.
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) and taint.expr_tainted(target.value):
                        yield Finding(
                            rule=self.id,
                            path=info.rel,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"store into `{ast.unparse(target)}` in `{short}` "
                                "writes a live snapshot that concurrent readers "
                                "score against — patch a `.clone()` and publish "
                                "a new snapshot instead"
                            ),
                        )
        # Stores into explicitly-global names pin a snapshot beyond its
        # request/batch scope.
        global_names: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
        if global_names:
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in global_names
                            and taint.expr_tainted(node.value)
                        ):
                            yield Finding(
                                rule=self.id,
                                path=info.rel,
                                line=node.lineno,
                                col=node.col_offset,
                                message=(
                                    f"published snapshot stored into global "
                                    f"`{target.id}` in `{short}` — snapshots are "
                                    "per-request/batch; re-read the handle "
                                    "instead of pinning one globally"
                                ),
                            )

    def check(self, project: "Project", source: SourceFile) -> Iterator[Finding]:
        del project
        yield from self._findings.get(source.rel, [])
