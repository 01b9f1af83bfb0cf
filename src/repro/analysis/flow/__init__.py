"""Interprocedural flow rules (R6–R16) of the project linter.

Where ``repro.analysis.rules`` holds the per-file rules, this package
holds the whole-program ones: a call graph and lock-acquisition model
(:mod:`~repro.analysis.flow.graph`) feeding lock-order consistency
(R6), RNG-stream purity across dispatch boundaries (R7), escape
analysis for published snapshots (R8), event-loop hygiene (R9),
resource-lifecycle typestate (R10), shard pipe-protocol conformance
(R11), and metrics-catalog conformance (R12); plus the array-flow
rules built on the shape/dtype abstract interpreter
(:mod:`~repro.analysis.flow.arrayflow`): shape/broadcast conformance
(R13), index-dtype discipline (R14), hot-path allocation hygiene
(R15), and contract drift (R16).  :func:`repro.analysis.rules.all_rules`
registers them next to the per-file rules, so every run runs them.
"""

from __future__ import annotations

from typing import List

from repro.analysis.flow.graph import ProjectIndex, flow_index
from repro.analysis.rules import Rule

__all__ = ["ProjectIndex", "flow_index", "flow_rules"]


def flow_rules() -> List[Rule]:
    """Fresh instances of the flow rules, in id order."""
    from repro.analysis.flow.allochygiene import AllocHygieneRule
    from repro.analysis.flow.arrayshape import ShapeConformanceRule
    from repro.analysis.flow.asynchygiene import AsyncHygieneRule
    from repro.analysis.flow.contractdrift import ContractDriftRule
    from repro.analysis.flow.escape import SnapshotEscapeRule
    from repro.analysis.flow.indexdtype import IndexDtypeRule
    from repro.analysis.flow.lockorder import LockOrderRule
    from repro.analysis.flow.metricscatalog import MetricsCatalogRule
    from repro.analysis.flow.protocolconf import PipeProtocolRule
    from repro.analysis.flow.resources import ResourceLifecycleRule
    from repro.analysis.flow.rngflow import RngPurityRule

    return [
        LockOrderRule(),
        RngPurityRule(),
        SnapshotEscapeRule(),
        AsyncHygieneRule(),
        ResourceLifecycleRule(),
        PipeProtocolRule(),
        MetricsCatalogRule(),
        ShapeConformanceRule(),
        IndexDtypeRule(),
        AllocHygieneRule(),
        ContractDriftRule(),
    ]
