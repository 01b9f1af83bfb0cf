"""R16 — drift between ``@contract`` declarations and inferred facts.

A contract is only worth its runtime cost while it tells the truth.
Code evolves; the decorator is a string literal nobody's refactoring
tool updates.  This rule cross-checks every declaration against what
the abstract interpreter proved, in both directions — the contract as
a claim about the body, and the body as evidence about the contract:

- **returns drift** — the declared ``returns=`` dtype/rank contradicts
  the fact inferred from the function's own ``return`` statements
  (seeded with the declared *param* specs, so the comparison is
  self-consistent);
- **missing returns** — a contracted function provably returns an
  array (known dtype) but declares no ``returns=`` — the one spec a
  caller would most want is the one missing;
- **call-site dtype drift** — an argument whose proven dtype
  contradicts the callee's declared param spec (the runtime would
  raise on the first call that reaches it; this fires without running);
- **untied parallel arrays** — a boolean mask computed from one
  contracted param (``alive = positions >= 0``) indexes *another*
  contracted param, but their specs share no shape symbol: the code
  requires equal lengths, the contract fails to say so, and the
  runtime check silently under-enforces.  Declaring a shared symbol
  (``positions="int64[W]", segments="int64[W]"``) both documents and
  enforces the invariant.

Same bargain as the rest of the flow package: every check needs two
*known*, conflicting facts — unknown stays silent.

Two checks guard the declarations themselves, since a contract the
analyzer cannot read is one nothing enforces statically:

- **unreadable declarations** — a spec that is not a string literal or
  is ``**``-unpacked, a spec :func:`~repro.utils.contracts.parse_spec`
  rejects, and a spec naming a parameter the function does not have;
- **required contracts** — the kernels in :data:`REQUIRED_CONTRACTS`,
  whose payload crosses module boundaries, must carry ``@contract``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.arrayflow import (
    ArrayFlowIndex,
    FunctionFacts,
    arrayflow_index,
)
from repro.analysis.rules import Rule
from repro.analysis.source import SourceFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.runner import Project

__all__ = ["ContractDriftRule", "REQUIRED_CONTRACTS"]

#: rel-path suffix -> function/method names that must carry @contract.
REQUIRED_CONTRACTS: Dict[str, Tuple[str, ...]] = {
    "core/walks.py": (
        "step",
        "step_live",
        "walk_matrix",
        "walk_matrix_seeded",
        "tagged_collisions",
        "segment_self_collisions",
    ),
    "core/bounds.py": ("compute_gamma",),
}


class ContractDriftRule(Rule):
    id = "R16"
    name = "contract-drift"
    summary = (
        "@contract declarations must be literal, parseable and name real "
        "parameters, the designated kernels must carry one, and each must "
        "agree with inferred facts: returns dtype/rank, call-site argument "
        "dtypes, array params without specs, and mask-coupled parallel "
        "arrays without a shared shape symbol"
    )

    def __init__(self) -> None:
        self._findings: Dict[str, List[Finding]] = {}

    def prepare(self, project: "Project") -> None:
        self._findings = {}
        flow = arrayflow_index(project)
        for facts in flow.functions.values():
            source = flow.index.source_by_rel.get(facts.info.rel)
            if source is None:
                continue
            if facts.contract is None:
                self._check_required(facts, source)
            else:
                for node, message in facts.contract.problems:
                    self._emit(source, node, message)
                self._check_returns(facts, source)
                self._check_unspecced_params(facts, source)
                self._check_parallel_arrays(facts, source)
            self._check_call_sites(flow, facts, source)

    # -- declarations ------------------------------------------------

    def _check_required(self, facts: FunctionFacts, source: SourceFile) -> None:
        rel = facts.info.rel.replace("\\", "/")
        for suffix, names in REQUIRED_CONTRACTS.items():
            if rel.endswith(suffix) and facts.info.name in names:
                self._emit(
                    source, facts.info.node,
                    f"kernel `{facts.info.name}` must declare its array dtypes "
                    "with @contract (repro.utils.contracts) — its payload "
                    "crosses module boundaries",
                )

    # -- declaration vs body ------------------------------------------

    def _check_returns(self, facts: FunctionFacts, source: SourceFile) -> None:
        contract = facts.contract
        assert contract is not None
        inferred = facts.return_fact
        declared = contract.returns
        if declared is None:
            if inferred is not None and inferred.dtype is not None:
                self._emit(
                    source, contract.node,
                    f"{facts.info.name}() provably returns a "
                    f"{inferred.describe()} array but its @contract declares "
                    "no returns= spec — callers lose the one fact the "
                    "runtime could enforce for them",
                )
            return
        if inferred is None:
            return
        if (
            inferred.dtype is not None
            and declared.dtype != inferred.dtype
        ):
            self._emit(
                source, contract.node,
                f"@contract on {facts.info.name}() declares "
                f"returns=\"{declared.describe()}\" but the body provably "
                f"returns {inferred.describe()} — the spec has drifted from "
                "the code",
            )
            return
        if (
            declared.ndim is not None
            and inferred.rank is not None
            and declared.ndim != inferred.rank
        ):
            self._emit(
                source, contract.node,
                f"@contract on {facts.info.name}() declares returns rank "
                f"{declared.ndim} but the body provably returns rank "
                f"{inferred.rank} ({inferred.describe()})",
            )

    def _check_unspecced_params(
        self, facts: FunctionFacts, source: SourceFile
    ) -> None:
        contract = facts.contract
        assert contract is not None
        for param, classes in facts.info.param_classes.items():
            if "ndarray" not in classes:
                continue
            if param in contract.params:
                continue
            self._emit(
                source, contract.node,
                f"parameter `{param}` of {facts.info.name}() is annotated "
                "np.ndarray but the @contract declares no spec for it — "
                "the runtime validates every other array argument except "
                "this one",
            )

    # -- call sites ----------------------------------------------------

    def _check_call_sites(
        self, flow: ArrayFlowIndex, facts: FunctionFacts, source: SourceFile
    ) -> None:
        from repro.analysis.flow.arrayshape import _map_args

        for site in flow.index.calls.get(facts.info.qual, ()):
            if site.callee is None:
                continue
            callee = flow.facts_for(site.callee)
            if callee is None or callee.contract is None:
                continue
            for param, arg in _map_args(callee, site.node):
                spec = callee.contract.params.get(param)
                if spec is None:
                    continue
                fact = facts.fact(arg)
                if fact is None or fact.dtype is None:
                    continue
                if fact.dtype != spec.dtype:
                    self._emit(
                        source, arg,
                        f"argument `{param}` of {callee.info.name}() is "
                        f"proven {fact.describe()} but the contract requires "
                        f"{spec.describe()} — the runtime will reject this "
                        "call",
                    )

    # -- parallel arrays -----------------------------------------------

    def _check_parallel_arrays(
        self, facts: FunctionFacts, source: SourceFile
    ) -> None:
        contract = facts.contract
        assert contract is not None
        for node in ast.walk(facts.info.node):
            if not isinstance(node, ast.Subscript) or not isinstance(
                node.value, ast.Name
            ):
                continue
            indexed = node.value.id
            mask_param = self._mask_param(facts, node.slice)
            if mask_param is None or indexed == mask_param:
                continue
            spec_indexed = contract.params.get(indexed)
            spec_mask = contract.params.get(mask_param)
            if spec_indexed is None or spec_mask is None:
                continue
            shared = set(spec_indexed.symbols()) & set(spec_mask.symbols())
            if shared:
                continue
            self._emit(
                source, node,
                f"`{indexed}` is indexed by a mask of `{mask_param}` — the "
                "code requires equal lengths, but their contract specs "
                f"({spec_indexed.describe()} / {spec_mask.describe()}) share "
                "no shape symbol, so the runtime never enforces it; declare "
                "a common symbol (e.g. int64[W] on both)",
            )

    @staticmethod
    def _mask_param(facts: FunctionFacts, slice_node: ast.expr) -> Optional[str]:
        """Contracted param a mask subscript traces to, or None.

        Two spellings: a named mask recorded by the evaluator
        (``alive = positions >= 0`` then ``x[alive]``), or the inline
        form ``x[positions >= 0]``.
        """
        if isinstance(slice_node, ast.Name):
            return facts.mask_sources.get(slice_node.id)
        if isinstance(slice_node, ast.Compare) and isinstance(
            slice_node.left, ast.Name
        ):
            contract = facts.contract
            if contract is not None and slice_node.left.id in contract.params:
                return slice_node.left.id
        return None

    # -- plumbing ------------------------------------------------------

    def _emit(self, source: SourceFile, node: ast.AST, message: str) -> None:
        self._findings.setdefault(source.rel, []).append(
            source.finding(self.id, node, message)
        )

    def check(self, project: "Project", source: SourceFile) -> Iterator[Finding]:
        del project
        yield from self._findings.get(source.rel, [])
