"""Command-line entry point: ``repro lint`` / ``python -m repro.analysis``.

Exit codes: 0 — clean; 1 — findings reported; 2 — usage error *or*
analyzer crash.  A crash still emits output in the selected format — a
synthetic R0 finding plus the traceback on stderr — so CI pipelines
that parse the output (problem matchers, SARIF uploads) record the
failure instead of green-washing an analyzer that never ran.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.cache import CACHE_DIR_NAME, LintCache
from repro.analysis.findings import Finding, format_findings
from repro.analysis.rules import all_rules
from repro.analysis.runner import LintReport, run_analysis

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Project-specific static analysis: lock discipline (R1), seeded "
            "RNG (R3), hot-path obs guards (R4), and the interprocedural "
            "rules: lock-order consistency (R6), RNG-stream purity (R7), "
            "snapshot escape analysis (R8), event-loop hygiene (R9), "
            "resource lifecycle (R10), pipe-protocol conformance (R11), "
            "metrics-catalog conformance (R12), shape conformance (R13), "
            "index-dtype discipline (R14), hot-path allocation hygiene "
            "(R15), and contract drift (R16). See docs/static-analysis.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        "--rules",
        dest="rules",
        default=None,
        metavar="R1,R3,...",
        help="comma-separated rule ids to run (default: all; "
        "--rules is the legacy spelling)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="R1,R3,...",
        help="comma-separated rule ids to drop from the selected set",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="directory findings are rendered relative to (default: cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="output_format",
        help="output format (json: machine-readable finding list; "
        "sarif: SARIF 2.1.0 for code-scanning uploads)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also report findings waived by `# repro: noqa` directives",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"bypass the {CACHE_DIR_NAME}/ incremental-analysis cache",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _finding_dict(finding: Finding) -> dict:
    return {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
    }


def _emit(report: LintReport, options: argparse.Namespace) -> int:
    if options.output_format == "sarif":
        from repro.analysis.sarif import to_sarif

        log = to_sarif(
            report.findings,
            all_rules(),
            suppressed=report.suppressed if options.show_suppressed else None,
        )
        print(json.dumps(log, indent=2))
        return 1 if report.findings else 0

    if options.output_format == "json":
        payload = {
            "findings": [_finding_dict(f) for f in report.findings],
            "suppressed_count": len(report.suppressed),
            "stale_count": len(report.stale),
        }
        if options.show_suppressed:
            payload["suppressed"] = [_finding_dict(f) for f in report.suppressed]
        print(json.dumps(payload, indent=2))
        return 1 if report.findings else 0

    if report.findings:
        print(format_findings(report.findings))
    if options.show_suppressed and report.suppressed:
        print(
            f"\n{len(report.suppressed)} suppressed finding(s):", file=sys.stderr
        )
        for finding in report.suppressed:
            print(f"  [waived] {finding.render()}", file=sys.stderr)
    elif report.suppressed:
        print(
            f"{len(report.suppressed)} finding(s) suppressed by `# repro: noqa` "
            "(run with --show-suppressed to list them)",
            file=sys.stderr,
        )
    if report.findings:
        print(f"\n{len(report.findings)} finding(s).", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.explain:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name}: {rule.summary}")
        return 0

    def _parse_ids(raw: Optional[str], flag: str) -> Optional[List[str]]:
        if not raw:
            return None
        ids = [part.strip() for part in raw.split(",") if part.strip()]
        known = {rule.id for rule in all_rules()} | {"R0"}
        unknown = [rule_id for rule_id in ids if rule_id not in known]
        if unknown:
            parser.error(f"unknown rule id(s) in {flag}: {', '.join(unknown)}")
        return ids

    only = _parse_ids(options.rules, "--select")
    ignore = _parse_ids(options.ignore, "--ignore")

    paths: List[Path] = [Path(p) for p in options.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(str(p) for p in missing)}")

    root = Path(options.root) if options.root else None
    cache = None
    if not options.no_cache:
        cache = LintCache((root or Path.cwd()) / CACHE_DIR_NAME)
    try:
        report = run_analysis(
            paths, root=root, only=only, ignore=ignore, cache=cache
        )
    except Exception as exc:  # noqa: BLE001 - anything except SystemExit
        # An analyzer crash must never look like a clean run: print the
        # traceback for humans, synthesize an R0 finding so machine
        # formats record it, and exit 2 (distinct from 1 = findings).
        traceback.print_exc(file=sys.stderr)
        crash = Finding(
            rule="R0",
            path="<repro-lint>",
            line=0,
            col=0,
            message=(
                f"internal analyzer error: {type(exc).__name__}: {exc} "
                "(full traceback on stderr)"
            ),
        )
        _emit(LintReport(findings=[crash], suppressed=[], stale=[]), options)
        return 2

    return _emit(report, options)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
