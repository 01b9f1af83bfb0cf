"""Project loading and rule dispatch for ``repro lint``.

A :class:`Project` is the set of parsed :class:`SourceFile` objects the
rules operate on.  Each rule runs only over the files its invariant
governs (:data:`DEFAULT_SCOPES`): lock discipline is a serve-layer
contract, the RNG rule governs the Monte-Carlo code, the hot-path obs
guard applies to the three query-path modules, and the whole-program
rules analyse every file but report only inside their scope.  Every
run runs every registered rule (:func:`repro.analysis.rules.all_rules`)
unless ``only``/``ignore`` narrow it.  Scope patterns are
:mod:`fnmatch` globs matched against the repo-relative posix path, with
an implicit ``*/`` prefix so the same patterns work from any checkout
root (and from test fixtures that mimic the layout).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.cache import LintCache
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, all_rules
from repro.analysis.source import SourceFile, load_source

__all__ = [
    "DEFAULT_SCOPES",
    "LintReport",
    "Project",
    "discover_files",
    "run_analysis",
    "run_lint",
    "scope_match",
]

#: rule id -> path globs the rule applies to (posix, repo-relative).
DEFAULT_SCOPES: Dict[str, Tuple[str, ...]] = {
    "R1": ("serve/*.py", "core/dynamic.py", "workloads.py"),
    "R3": (
        "core/*.py",
        "baselines/*.py",
        "graph/generators.py",
        "experiments/*.py",
    ),
    "R4": ("core/query.py", "core/walks.py", "core/montecarlo.py"),
    # Flow rules (R6-R16) are whole-program: prepare() analyses every
    # parsed file; the scope only controls where findings may land.
    "R6": ("*.py",),
    "R7": ("*.py",),
    "R8": ("*.py",),
    "R9": ("*.py",),
    "R10": ("*.py",),
    # The serve layer speaks its own NDJSON ``op`` protocol; the pipe
    # rule governs only the shard boundary.
    "R11": ("shard/*.py",),
    "R12": ("*.py",),
    "R13": ("*.py",),
    # Index-dtype discipline governs the CSR/walk storage layers and the
    # serialization boundary; baselines/ compresses to int32 by design.
    "R14": ("core/*.py", "graph/*.py", "shard/codec.py"),
    "R15": ("*.py",),
    "R16": ("*.py",),
}

#: directories never worth parsing.
_SKIP_DIRS = {".git", "__pycache__", ".venv", "node_modules", "build", "dist"}


@dataclass
class Project:
    """Every parsed source file of one lint invocation."""

    root: Path
    sources: List[SourceFile] = field(default_factory=list)

    def by_rel(self, rel: str) -> Optional[SourceFile]:
        for source in self.sources:
            if source.rel == rel:
                return source
        return None


def scope_match(rel: str, patterns: Sequence[str]) -> bool:
    """Whether a repo-relative path falls inside a rule's scope."""
    path = rel.replace("\\", "/")
    for pattern in patterns:
        if fnmatch.fnmatch(path, pattern) or fnmatch.fnmatch(path, "*/" + pattern):
            return True
    return False


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    found.append(candidate)
        elif path.suffix == ".py":
            found.append(path)
    # De-duplicate while keeping order (a file given twice, or both a dir
    # and a file inside it).
    seen = set()
    unique: List[Path] = []
    for path in found:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def _rel_of(path: Path, root: Path) -> str:
    """The repo-relative path findings render (mirrors ``load_source``)."""
    try:
        return str(path.resolve().relative_to(root.resolve()))
    except ValueError:
        return str(path)


def load_project(paths: Iterable[Path], root: Optional[Path] = None) -> Project:
    root = root or Path.cwd()
    project = Project(root=root)
    for path in discover_files(paths):
        project.sources.append(load_source(path, root))
    return project


@dataclass
class LintReport:
    """Everything one lint invocation learned.

    ``findings`` is what the CLI prints and gates on (stale-noqa R0
    findings included); ``suppressed`` is what per-line waivers hid
    (``--show-suppressed``); ``stale`` is the subset of ``findings``
    flagging noqa directives that suppressed nothing.
    """

    findings: List[Finding]
    suppressed: List[Finding]
    stale: List[Finding]


def run_analysis(
    paths: Iterable[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    only: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    scopes: Optional[Dict[str, Tuple[str, ...]]] = None,
    cache: Optional[LintCache] = None,
) -> LintReport:
    """Run the project linter and return the full :class:`LintReport`.

    ``only`` restricts to a set of rule ids and ``ignore`` drops ids
    from whatever set would otherwise run (``--select``/``--ignore`` on
    the CLI); ``scopes`` overrides :data:`DEFAULT_SCOPES` (useful in
    tests to point one rule at a fixture file regardless of its name).
    ``cache`` enables the content-keyed incremental store
    (:class:`repro.analysis.cache.LintCache`); it is ignored when
    ``rules`` passes custom rule objects, which cannot be content-keyed.
    """
    root = root or Path.cwd()
    only = list(only) if only is not None else None
    ignore = list(ignore) if ignore is not None else None
    scope_map = DEFAULT_SCOPES if scopes is None else scopes
    if rules is not None:
        cache = None

    files = discover_files(paths)
    sha_by_rel: Dict[str, str] = {}
    invocation_key: Optional[str] = None
    if cache is not None:
        try:
            for path in files:
                rel = _rel_of(path, root)
                sha_by_rel[rel] = LintCache.file_sha(
                    path.read_text(encoding="utf-8")
                )
        except (OSError, UnicodeDecodeError):
            cache = None  # unreadable tree: run uncached, let load_source report
        else:
            scopes_sig = repr(sorted(scope_map.items()))
            invocation_key = LintCache.invocation_key(
                sorted(sha_by_rel.items()), only, scopes_sig, ignore
            )
            hit = cache.load_report(invocation_key)
            if hit is not None:
                return LintReport(
                    findings=hit["findings"],
                    suppressed=hit["suppressed"],
                    stale=hit["stale"],
                )

    project = Project(root=root)
    for path in files:
        project.sources.append(load_source(path, root))
    active = list(all_rules() if rules is None else rules)
    # Stale-noqa detection needs every registered rule to have run:
    # under a restricted run, a waiver for an unrun rule is dormant.
    full_run = rules is None and only is None and not ignore
    if only is not None:
        wanted = set(only)
        active = [rule for rule in active if rule.id in wanted]
    if ignore is not None:
        dropped = set(ignore)
        active = [rule for rule in active if rule.id not in dropped]

    findings: List[Finding] = []
    suppressed: List[Finding] = []
    #: rel -> lines whose noqa directive suppressed at least one finding.
    used_waivers: Dict[str, set] = {}
    for source in project.sources:
        if source.syntax_error is not None:
            exc = source.syntax_error
            findings.append(
                Finding(
                    rule="R0",
                    path=source.rel,
                    line=exc.lineno or 0,
                    col=(exc.offset or 1) - 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        for line in source.suppressions.missing_reasons():
            findings.append(
                Finding(
                    rule="R0",
                    path=source.rel,
                    line=line,
                    col=0,
                    message=(
                        "`# repro: noqa` without a `-- reason` tail — waivers "
                        "must record why they are safe"
                    ),
                )
            )

    for rule in active:
        rule.prepare(project)
    for rule in active:
        patterns = scope_map.get(rule.id, ("*.py",))
        # Rules with no cross-file prepare phase depend on one file's
        # bytes alone, so their raw check output is per-file cacheable.
        per_file = cache is not None and type(rule).prepare is Rule.prepare
        for source in project.sources:
            if source.syntax_error is not None:
                continue
            if not scope_match(source.rel, patterns):
                continue
            raw: Optional[List[Finding]] = None
            entry_key: Optional[str] = None
            if per_file and source.rel in sha_by_rel:
                entry_key = LintCache.perfile_key(
                    rule.id, source.rel, sha_by_rel[source.rel]
                )
                raw = cache.load_file_findings(entry_key)
            if raw is None:
                raw = list(rule.check(project, source))
                if entry_key is not None:
                    cache.store_file_findings(entry_key, raw)
            for finding in raw:
                if source.suppressed(finding):
                    suppressed.append(finding)
                    used_waivers.setdefault(source.rel, set()).add(finding.line)
                else:
                    findings.append(finding)

    stale: List[Finding] = []
    if full_run:
        for source in project.sources:
            if source.syntax_error is not None:
                continue
            for line in source.suppressions.lines():
                if line in used_waivers.get(source.rel, ()):
                    continue
                stale.append(
                    Finding(
                        rule="R0",
                        path=source.rel,
                        line=line,
                        col=0,
                        message=(
                            "stale `# repro: noqa` — it suppresses nothing on "
                            "this line; remove the waiver"
                        ),
                    )
                )
        findings.extend(stale)

    report = LintReport(
        findings=sorted(findings, key=Finding.sort_key),
        suppressed=sorted(suppressed, key=Finding.sort_key),
        stale=sorted(stale, key=Finding.sort_key),
    )
    if cache is not None and invocation_key is not None:
        cache.store_report(
            invocation_key, report.findings, report.suppressed, report.stale
        )
        cache.flush()
    return report


def run_lint(
    paths: Iterable[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    only: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    scopes: Optional[Dict[str, Tuple[str, ...]]] = None,
) -> List[Finding]:
    """Run the project linter and return sorted, unsuppressed findings.

    Thin wrapper over :func:`run_analysis` for callers that only need
    the gating finding list.
    """
    return run_analysis(
        paths, root=root, rules=rules, only=only, ignore=ignore, scopes=scopes
    ).findings
