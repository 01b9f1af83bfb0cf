"""AST-based static analysis enforcing this project's invariants.

The serve layer's thread-safety, the snapshot-swap immutability
contract, Monte-Carlo seeding discipline, the hot-path observability
guard idiom, and kernel dtype contracts are all *conventions* — easy to
state in a review, easy to erode one commit at a time.  This package
turns them into machine-checked rules (``repro lint``):

- **R1 lock-discipline** — attributes declared ``# locked-by: <lock>``
  may only be accessed inside ``with self.<lock>:``.
- **R3 seeded-rng** — Monte-Carlo code threads seeded numpy Generators;
  module-level ``np.random.*`` and stdlib ``random`` are banned.
- **R4 hot-path-obs-guard** — recording hooks in the query path sit
  inside ``if obs.OBS.enabled:``.

and the interprocedural rules of :mod:`repro.analysis.flow` (call
graph + lock model + array facts):

- **R6 lock-order** — all code paths must agree on one global lock
  acquisition order (static deadlock detection).
- **R7 rng-purity** — a live numpy Generator never crosses a
  thread/process dispatch boundary; seeds do.
- **R8 snapshot-escape** — published snapshots are never stored into
  and never flow into a call that mutates them.
- **R9 event-loop-hygiene** — coroutines never block the serve loop
  (directly or through sync helpers) and never await under a thread
  lock.
- **R10 resource-lifecycle** — shared-memory segments, executors and
  shard pools are released on every path; ``# owns: <param>`` marks
  ownership transfer at function boundaries.
- **R11 pipe-protocol** — every ``{"op": ...}`` message the shard
  coordinator sends has a worker dispatch arm carrying the fields it
  reads, and every arm has a sender.
- **R12 metrics-catalog** — instruments created in code and entries in
  :data:`repro.obs.catalog.CATALOG` agree exactly, both directions.
- **R13-R15** — shape conformance, index-dtype discipline and hot-path
  allocation hygiene over inferred array facts.
- **R16 contract-drift** — :func:`repro.utils.contracts.contract`
  declarations are literal, parse, name real parameters, sit on the
  designated kernels, and agree with the inferred facts at the body
  and at every call site.

Every run runs every rule; ``--select``/``--ignore`` narrow it.  R2
and R5 are retired ids (their live checks moved into R8 and R16) and
are never reused.

Per-line waivers: ``# repro: noqa R<N> -- reason`` (reason required;
a waiver that suppresses nothing is itself flagged as stale).
Reports cache incrementally in ``.repro-lint-cache/``
(:mod:`repro.analysis.cache`) and export as SARIF
(:mod:`repro.analysis.sarif`).  See ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, format_findings
from repro.analysis.flow import flow_rules
from repro.analysis.rules import Rule, all_rules
from repro.analysis.runner import (
    DEFAULT_SCOPES,
    LintReport,
    Project,
    run_analysis,
    run_lint,
)
from repro.analysis.source import SourceFile, load_source

__all__ = [
    "DEFAULT_SCOPES",
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "SourceFile",
    "all_rules",
    "flow_rules",
    "format_findings",
    "load_source",
    "run_analysis",
    "run_lint",
]
