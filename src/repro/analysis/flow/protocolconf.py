"""R11 — pipe-protocol conformance across the shard process boundary.

The coordinator (:class:`~repro.shard.pool.ShardPool`) and the worker
loop (:func:`~repro.shard.worker.worker_main`) agree on a dict protocol
— ``{"op": ..., ...fields}`` out, one reply back — but that agreement
lives in two files and nothing type-checks a pickle.  A send whose op
the worker does not dispatch fails *at runtime on every shard at once*
(an ``unknown op`` error reply), and a missing required field fails
inside the handler as a ``KeyError`` forwarded back as a string.  Both
are statically visible, and a routed query's bit-identity with the
local engine requires the worker to see the complete message.

What the rule extracts (from ``shard/*.py`` only — the serve layer has
its own, differently-shaped ``op`` protocol):

- **Sends** — every dict literal containing an ``"op"`` key with a
  string constant value; its other string-constant keys are the carried
  fields.  Fields added generically downstream (``dict(msg, id=...)``)
  are credited to every send in the same file.
- **Handlers** — in any function that binds ``op = msg.get("op")``,
  each ``if/elif op == "<name>"`` arm; ``msg["field"]`` subscripts in
  an arm are *required* fields, ``msg.get("field")`` are optional.

Findings: a sent op with no handler arm, a handler arm no send
constructs (dead protocol — or a test hook, which earns a reasoned
noqa), and a send missing a field its handler reads unconditionally.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.graph import FunctionInfo, flow_index
from repro.analysis.rules import Rule
from repro.analysis.source import SourceFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.runner import Project

__all__ = ["PipeProtocolRule"]


def _in_shard(rel: str) -> bool:
    parts = rel.replace("\\", "/").split("/")
    return "shard" in parts[:-1]


class _Send:
    """One ``{"op": ...}`` dict literal on the coordinator side."""

    __slots__ = ("op", "fields", "rel", "line", "col")

    def __init__(self, op: str, fields: Set[str], rel: str, line: int, col: int) -> None:
        self.op = op
        self.fields = fields
        self.rel = rel
        self.line = line
        self.col = col


class _Handler:
    """One ``elif op == "<name>":`` arm of the worker dispatch."""

    __slots__ = ("op", "required", "optional", "rel", "line")

    def __init__(self, op: str, rel: str, line: int) -> None:
        self.op = op
        self.required: Set[str] = set()
        self.optional: Set[str] = set()
        self.rel = rel
        self.line = line


class PipeProtocolRule(Rule):
    id = "R11"
    name = "pipe-protocol"
    summary = (
        "every shard message op must have a worker dispatch arm, every "
        "arm a sender, and every send the fields its handler reads "
        "unconditionally"
    )

    def __init__(self) -> None:
        self._findings: Dict[str, List[Finding]] = {}

    def prepare(self, project: "Project") -> None:
        self._findings = {}
        index = flow_index(project)

        sends: List[_Send] = []
        #: rel -> fields added generically via ``dict(msg, field=...)``.
        augmented: Dict[str, Set[str]] = {}
        handlers: Dict[str, _Handler] = {}

        for source in project.sources:
            if source.syntax_error is not None or not _in_shard(source.rel):
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Dict):
                    send = self._send_of(node, source.rel)
                    if send is not None:
                        sends.append(send)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "dict"
                    and node.args
                    and node.keywords
                ):
                    bucket = augmented.setdefault(source.rel, set())
                    bucket.update(
                        kw.arg for kw in node.keywords if kw.arg is not None
                    )

        for info in index.iter_functions():
            if not _in_shard(info.rel):
                continue
            self._collect_handlers(info, handlers)

        if not handlers:
            # Partial tree (no worker dispatch parsed): conformance is
            # undecidable, and flagging every send would be pure noise.
            return

        sent_ops = {send.op for send in sends}
        for send in sends:
            handler = handlers.get(send.op)
            if handler is None:
                self._emit(
                    send.rel, send.line, send.col,
                    f"message op '{send.op}' constructed here has no handler "
                    "arm in the worker dispatch (handled ops: "
                    + ", ".join(sorted(handlers)) + ") — the worker will "
                    "reply 'unknown op' on every shard",
                )
                continue
            provided = send.fields | augmented.get(send.rel, set()) | {"op"}
            missing = sorted(handler.required - provided)
            if missing:
                self._emit(
                    send.rel, send.line, send.col,
                    f"message op '{send.op}' lacks required field(s) "
                    + ", ".join(f"'{f}'" for f in missing)
                    + f" — the handler at {handler.rel}:{handler.line} reads "
                    "them unconditionally (msg[...]), so every shard raises",
                )
        for op, handler in sorted(handlers.items()):
            if op not in sent_ops:
                self._emit(
                    handler.rel, handler.line, 0,
                    f"handler arm for op '{op}' is dead — no coordinator "
                    "code constructs this op; delete the arm or the missing "
                    "sender is the bug",
                )

    # -- extraction ----------------------------------------------------

    @staticmethod
    def _send_of(node: ast.Dict, rel: str) -> Optional[_Send]:
        op: Optional[str] = None
        fields: Set[str] = set()
        for key, value in zip(node.keys, node.values):
            if not isinstance(key, ast.Constant) or not isinstance(key.value, str):
                continue
            if key.value == "op":
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    op = value.value
            else:
                fields.add(key.value)
        if op is None:
            return None
        return _Send(op, fields, rel, node.lineno, node.col_offset)

    def _collect_handlers(
        self, info: FunctionInfo, handlers: Dict[str, _Handler]
    ) -> None:
        #: name bound via ``<var> = <msg>.get("op")`` -> the msg name.
        op_vars: Dict[str, str] = {}
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target, value = node.targets[0], node.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "get"
                and isinstance(value.func.value, ast.Name)
                and value.args
                and isinstance(value.args[0], ast.Constant)
                and value.args[0].value == "op"
            ):
                op_vars[target.id] = value.func.value.id
        if not op_vars:
            return
        for node in ast.walk(info.node):
            if not isinstance(node, ast.If):
                continue
            op_name, msg_var = self._dispatch_test(node.test, op_vars)
            if op_name is None or msg_var is None:
                continue
            handler = handlers.setdefault(
                op_name, _Handler(op_name, info.rel, node.test.lineno)
            )
            for inner in node.body:
                for sub in ast.walk(inner):
                    if (
                        isinstance(sub, ast.Subscript)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == msg_var
                    ):
                        key = sub.slice
                        # py3.8 wraps constant indices in ast.Index.
                        if key.__class__.__name__ == "Index":
                            key = key.value  # type: ignore[attr-defined]
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            handler.required.add(key.value)
                    elif (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "get"
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == msg_var
                        and sub.args
                        and isinstance(sub.args[0], ast.Constant)
                        and isinstance(sub.args[0].value, str)
                    ):
                        handler.optional.add(sub.args[0].value)

    @staticmethod
    def _dispatch_test(
        test: ast.expr, op_vars: Dict[str, str]
    ) -> Tuple[Optional[str], Optional[str]]:
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.left, ast.Name)
            and test.left.id in op_vars
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and isinstance(test.comparators[0].value, str)
        ):
            return test.comparators[0].value, op_vars[test.left.id]
        return None, None

    def _emit(self, rel: str, line: int, col: int, message: str) -> None:
        self._findings.setdefault(rel, []).append(
            Finding(rule=self.id, path=rel, line=line, col=col, message=message)
        )

    def check(self, project: "Project", source: SourceFile) -> Iterator[Finding]:
        del project
        yield from self._findings.get(source.rel, [])
