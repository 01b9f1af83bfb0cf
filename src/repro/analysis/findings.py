"""Finding and suppression primitives of the static analyzer.

A :class:`Finding` is one diagnostic: a rule id, a location, and a
message.  Findings render as ``path:line:col: R<N> message`` — the same
``file:line`` shape compilers and ruff use, so editors and CI log
scrapers pick them up for free.

Suppressions are per-line comments::

    self._snapshot = snapshot  # repro: noqa R1 -- read is atomic here

``# repro: noqa`` with no rule list suppresses every rule on that line;
with a comma-separated list it suppresses only those rules.  The
``-- reason`` tail is required: a suppression without a recorded reason
is itself reported (rule R0), so waivers stay auditable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

__all__ = [
    "Finding",
    "Suppressions",
    "format_findings",
    "parse_suppressions",
]

#: ``# repro: noqa [R1[, R2...]] [-- reason]``
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"
    r"(?:\s+(?P<rules>R\d+(?:\s*,\s*R\d+)*))?"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: R<N> message`` (the CLI output line)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> "tuple[str, int, int, str]":
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class _LineSuppression:
    """The parsed ``# repro: noqa`` comment of one line."""

    rules: Optional[Set[str]]  # None = all rules
    reason: Optional[str]


class Suppressions:
    """Per-file map of line number -> suppression directive."""

    def __init__(self, by_line: Dict[int, _LineSuppression]) -> None:
        self._by_line = by_line

    def covers(self, line: int, rule: str) -> bool:
        """Whether ``rule`` is suppressed on ``line``."""
        directive = self._by_line.get(line)
        if directive is None:
            return False
        return directive.rules is None or rule in directive.rules

    def missing_reasons(self) -> List[int]:
        """Lines carrying a noqa directive without a ``-- reason`` tail."""
        return sorted(
            line
            for line, directive in self._by_line.items()
            if not directive.reason
        )

    def lines(self) -> List[int]:
        """Every line carrying a noqa directive."""
        return sorted(self._by_line)

    def __len__(self) -> int:
        return len(self._by_line)


def parse_suppressions(lines: Iterable[str]) -> Suppressions:
    """Extract every ``# repro: noqa`` directive from a file's lines."""
    by_line: Dict[int, _LineSuppression] = {}
    for number, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        # The directive must BE the comment, not be quoted inside one
        # ("see `# repro: noqa` below" is prose, not a waiver).
        if match.start() != text.index("#"):
            continue
        raw_rules = match.group("rules")
        rules: Optional[Set[str]] = None
        if raw_rules:
            rules = {part.strip() for part in raw_rules.split(",")}
        by_line[number] = _LineSuppression(rules=rules, reason=match.group("reason"))
    return Suppressions(by_line)


def format_findings(findings: Iterable[Finding]) -> str:
    """Sorted one-per-line rendering of a finding collection."""
    return "\n".join(f.render() for f in sorted(findings, key=Finding.sort_key))
