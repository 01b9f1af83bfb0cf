"""Rule registry of the project linter.

Each rule is a class with a stable ``id``, a short ``name``, and a
``check(project, source)`` generator yielding
:class:`~repro.analysis.findings.Finding`.  This package holds the
per-file rules (R1, R3, R4); the whole-program rules (R6-R16) live in
:mod:`repro.analysis.flow` and implement ``prepare(project)``, called
once before any ``check``.  :func:`all_rules` registers both, and every
run runs every registered rule unless ``--select``/``--ignore`` narrow it.

The registry is ordered and append-only: rule ids are referenced from
``# repro: noqa R<N>`` comments in source, so renumbering would silently
invalidate existing waivers.  Retired ids are never reused: R2
(snapshot immutability; its snapshot-store check now runs under R8) and
R5 (dtype contracts; its declaration checks now run under R16).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Type

from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.runner import Project

__all__ = ["Rule", "all_rules"]


class Rule:
    """Base class: one project invariant checked over the AST."""

    id: str = "R0"
    name: str = "abstract"
    #: One-line description rendered by ``repro lint --explain``.
    summary: str = ""

    def prepare(self, project: "Project") -> None:
        """Cross-file collection pass; default is no-op."""

    def check(self, project: "Project", source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.id} {self.name}>"


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    from repro.analysis.flow import flow_rules
    from repro.analysis.rules.locks import LockDisciplineRule
    from repro.analysis.rules.obsguard import ObsGuardRule
    from repro.analysis.rules.rng import SeededRngRule

    ordered: List[Type[Rule]] = [LockDisciplineRule, SeededRngRule, ObsGuardRule]
    return [rule() for rule in ordered] + flow_rules()
