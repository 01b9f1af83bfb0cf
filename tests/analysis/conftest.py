"""Shared helper: materialise fixture trees and lint them."""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.analysis import Finding, run_lint


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relpath: source}`` under a tmp root and run the linter.

    Fixture files mimic the package layout (``serve/x.py``,
    ``core/dynamic.py``) so the default rule scopes apply to them.
    """

    def _lint(
        files: Dict[str, str],
        only: Optional[List[str]] = None,
    ) -> List[Finding]:
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        return run_lint([tmp_path], root=tmp_path, only=only)

    return _lint


@pytest.fixture
def write_tree(tmp_path):
    """Just materialise the files; returns the root."""

    def _write(files: Dict[str, str]) -> Path:
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")
        return tmp_path

    return _write
