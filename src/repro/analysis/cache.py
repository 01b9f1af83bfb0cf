"""Incremental-analysis cache for ``repro lint`` (``.repro-lint-cache/``).

Two tiers, both keyed by *content*, never by timestamps:

- **Tier 1 — whole invocation.**  The key digests the analyzer's own
  sources, the invocation shape (``only``/``ignore``/scope overrides),
  and every ``(rel path, file sha)`` pair.  An unchanged tree is a
  single JSON read — this is what makes the warm ``repro lint`` run a
  multiple faster than the cold one (asserted in tests, recorded in
  ``BENCH_lint.json``).
- **Tier 2 — per file, per rule.**  Only rules with no cross-file
  ``prepare`` phase qualify (detected structurally:
  ``type(rule).prepare is Rule.prepare``); their ``check`` output on a
  file depends on that file's bytes alone, so edited trees re-analyze
  only the changed files under R1, R3 and R4.  The whole-program rules
  (R6–R16, built on the flow package's :class:`ProjectIndex`) are
  *deliberately excluded*: one changed file can move their findings in
  any other file, so they re-run whenever tier 1 misses.

Correctness before speed: a key mismatch anywhere falls back to a full
run, and corrupt or unreadable cache files are treated as misses — the
cache can change lint wall time, never lint output.  ``--no-cache``
bypasses both tiers entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

__all__ = ["CACHE_DIR_NAME", "LintCache", "analyzer_digest"]

CACHE_DIR_NAME = ".repro-lint-cache"

#: bump to invalidate every cache entry on disk-format changes.
_SCHEMA = 1

#: keep at most this many tier-1 reports / tier-2 entries on disk.
_MAX_FULL_REPORTS = 8
_MAX_PERFILE_ENTRIES = 8192

_analyzer_digest: Optional[str] = None


def analyzer_digest() -> str:
    """Content hash of the ``repro.analysis`` package itself.

    Any edit to a rule, the runner, or this module must invalidate
    every cached result; hashing the package sources is the only salt
    that cannot be forgotten.
    """
    global _analyzer_digest
    if _analyzer_digest is None:
        package_dir = Path(__file__).resolve().parent
        hasher = hashlib.sha256(f"schema={_SCHEMA}".encode())
        for path in sorted(package_dir.rglob("*.py")):
            hasher.update(str(path.relative_to(package_dir)).encode())
            try:
                hasher.update(path.read_bytes())
            except OSError:  # pragma: no cover - unreadable own source
                hasher.update(b"?")
        _analyzer_digest = hasher.hexdigest()
    return _analyzer_digest


def _finding_to_row(finding: Finding) -> List[object]:
    return [finding.rule, finding.path, finding.line, finding.col, finding.message]


def _finding_from_row(row: Sequence[object]) -> Finding:
    rule, path, line, col, message = row
    return Finding(
        rule=str(rule), path=str(path), line=int(line), col=int(col),
        message=str(message),
    )


def _atomic_write(path: Path, payload: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


class LintCache:
    """One invocation's view of the on-disk cache (created lazily)."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self._perfile: Optional[Dict[str, List[List[object]]]] = None
        self._perfile_dirty = False

    # -- keys ----------------------------------------------------------

    @staticmethod
    def file_sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @staticmethod
    def invocation_key(
        file_shas: Sequence[Tuple[str, str]],
        only: Optional[Sequence[str]],
        scopes_sig: str,
        ignore: Optional[Sequence[str]] = None,
    ) -> str:
        hasher = hashlib.sha256(analyzer_digest().encode())
        hasher.update(f"only={sorted(only) if only else None};".encode())
        hasher.update(f"ignore={sorted(ignore) if ignore else None};".encode())
        hasher.update(scopes_sig.encode())
        for rel, sha in sorted(file_shas):
            hasher.update(f"{rel}\x00{sha}\x00".encode())
        return hasher.hexdigest()

    @staticmethod
    def perfile_key(rule_id: str, rel: str, sha: str) -> str:
        return hashlib.sha256(
            f"{analyzer_digest()}\x00{rule_id}\x00{rel}\x00{sha}".encode()
        ).hexdigest()

    # -- tier 1: whole reports ----------------------------------------

    def load_report(self, key: str) -> Optional[Dict[str, List[Finding]]]:
        path = self.directory / f"report-{key}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            loaded = {
                section: [_finding_from_row(row) for row in payload[section]]
                for section in ("findings", "suppressed", "stale")
            }
        except (OSError, ValueError, KeyError, TypeError):
            return None
        # Refresh mtime so steadily-used reports survive pruning.
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - cosmetic only
            pass
        return loaded

    def store_report(
        self,
        key: str,
        findings: Sequence[Finding],
        suppressed: Sequence[Finding],
        stale: Sequence[Finding],
    ) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "findings": [_finding_to_row(f) for f in findings],
                "suppressed": [_finding_to_row(f) for f in suppressed],
                "stale": [_finding_to_row(f) for f in stale],
            }
        )
        _atomic_write(self.directory / f"report-{key}.json", payload)
        self._prune_reports()

    def _prune_reports(self) -> None:
        reports = sorted(
            self.directory.glob("report-*.json"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        for path in reports[_MAX_FULL_REPORTS:]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent prune
                pass

    # -- tier 2: per-file rule results --------------------------------

    def _load_perfile(self) -> Dict[str, List[List[object]]]:
        if self._perfile is None:
            try:
                raw = (self.directory / "perfile.json").read_text(encoding="utf-8")
                data = json.loads(raw)
                self._perfile = data if isinstance(data, dict) else {}
            except (OSError, ValueError):
                self._perfile = {}
        return self._perfile

    def load_file_findings(self, key: str) -> Optional[List[Finding]]:
        rows = self._load_perfile().get(key)
        if rows is None:
            return None
        try:
            return [_finding_from_row(row) for row in rows]
        except (ValueError, TypeError):
            return None

    def store_file_findings(self, key: str, findings: Sequence[Finding]) -> None:
        self._load_perfile()[key] = [_finding_to_row(f) for f in findings]
        self._perfile_dirty = True

    def flush(self) -> None:
        """Persist tier-2 updates collected during this invocation."""
        if not self._perfile_dirty or self._perfile is None:
            return
        if len(self._perfile) > _MAX_PERFILE_ENTRIES:
            for key in list(self._perfile)[: len(self._perfile) - _MAX_PERFILE_ENTRIES]:
                del self._perfile[key]
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.directory / "perfile.json", json.dumps(self._perfile))
        self._perfile_dirty = False
