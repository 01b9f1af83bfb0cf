"""The array-flow rules (R13-R16) on fixture trees.

Every rule gets the same three-way treatment as the other flow suites:
a violating fixture (the finding fires, with the right rule id and
line), a clean twin (the precision-first bargain: no finding without
two known conflicting facts), and a waived variant (``# repro: noqa``
suppresses it).  R14 fixtures live under ``core/`` because its default
scope covers only the storage layers.
"""

from __future__ import annotations


def _rules(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# R13 — shape conformance
# ----------------------------------------------------------------------


class TestShapeConformance:
    def test_contract_symbol_broadcast_conflict_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(x="float64[T]", y="float64[R]")
                def mix(x, y):
                    return x + y
                """
            },
            only=["R13"],
        )
        assert _rules(findings) == ["R13"]
        assert "broadcast" in findings[0].message
        assert findings[0].line == 8

    def test_shared_symbol_is_clean(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(x="float64[T]", y="float64[T]")
                def mix(x, y):
                    return x + y
                """
            },
            only=["R13"],
        )
        assert findings == []

    def test_concrete_extent_conflict_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def mix():
                    a = np.zeros(3)
                    b = np.zeros(4)
                    return a + b
                """
            },
            only=["R13"],
        )
        assert _rules(findings) == ["R13"]
        assert "3" in findings[0].message and "4" in findings[0].message

    def test_broadcastable_extents_are_clean(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def mix():
                    a = np.zeros((3, 4))
                    b = np.zeros(4)
                    c = np.zeros(1)
                    return a + b + c
                """
            },
            only=["R13"],
        )
        assert findings == []

    def test_concatenate_rank_mismatch_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def build():
                    return np.concatenate([np.zeros((2, 3)), np.zeros(4)])
                """
            },
            only=["R13"],
        )
        assert _rules(findings) == ["R13"]
        assert "rank" in findings[0].message

    def test_reshape_double_wildcard_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def flatten(a):
                    return np.zeros((2, 3)).reshape(-1, -1)
                """
            },
            only=["R13"],
        )
        assert _rules(findings) == ["R13"]
        assert "-1" in findings[0].message

    def test_contracted_call_rank_mismatch_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(table="int64[2d]")
                def consume(table):
                    return table


                def produce():
                    return consume(np.zeros(3, dtype=np.int64))
                """
            },
            only=["R13"],
        )
        assert _rules(findings) == ["R13"]
        assert "rank" in findings[0].message

    def test_call_site_symbol_binding_conflict_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(a="int64[W]", b="int64[W]")
                def paired(a, b):
                    return a


                def caller():
                    return paired(
                        np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)
                    )
                """
            },
            only=["R13"],
        )
        assert _rules(findings) == ["R13"]
        assert "`W`" in findings[0].message

    def test_noqa_waives_the_finding(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def mix():
                    a = np.zeros(3)
                    b = np.zeros(4)
                    return a + b  # repro: noqa R13 -- fixture: waived on purpose
                """
            },
            only=["R13"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R14 — index-dtype discipline
# ----------------------------------------------------------------------


class TestIndexDtype:
    def test_narrowing_cast_of_proven_int64_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(positions="int64")
                def shrink(positions):
                    return positions.astype(np.int32)
                """
            },
            only=["R14"],
        )
        assert _rules(findings) == ["R14"]
        assert "narrows" in findings[0].message

    def test_widening_cast_is_clean(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(positions="int64")
                def widen(positions):
                    return positions.astype(np.float64)
                """
            },
            only=["R14"],
        )
        assert findings == []

    def test_platform_astype_fires_without_facts(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def cast(x):
                    return x.astype(np.int_)
                """
            },
            only=["R14"],
        )
        assert _rules(findings) == ["R14"]
        assert "platform" in findings[0].message

    def test_platform_dtype_keyword_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def alloc(n):
                    return np.zeros(n, dtype=np.intc)
                """
            },
            only=["R14"],
        )
        assert _rules(findings) == ["R14"]

    def test_untyped_arange_used_as_index_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def gather(data, n):
                    idx = np.arange(n)
                    return data[idx]
                """
            },
            only=["R14"],
        )
        assert _rules(findings) == ["R14"]
        assert "arange" in findings[0].message

    def test_typed_arange_as_index_is_clean(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def gather(data, n):
                    idx = np.arange(n, dtype=np.int64)
                    return data[idx]
                """
            },
            only=["R14"],
        )
        assert findings == []

    def test_untyped_arange_never_indexed_is_clean(self, lint_tree):
        # Origin alone is not a finding: np.arange of float work that
        # never reaches an index sink stays silent.
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def weights(n):
                    t = np.arange(n)
                    return 0.5 ** t
                """
            },
            only=["R14"],
        )
        assert findings == []

    def test_untyped_alloc_into_int64_contract_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(idx="int64")
                def consume(idx):
                    return idx


                def produce(n):
                    return consume(np.arange(n))
                """
            },
            only=["R14"],
        )
        assert _rules(findings) == ["R14"]
        assert "consume" in findings[0].message

    def test_out_of_scope_file_is_clean(self, lint_tree):
        # baselines/ compresses to int32 deliberately — R14 never looks.
        findings = lint_tree(
            {
                "baselines/fp.py": """\
                import numpy as np


                def compress(fingerprints):
                    return fingerprints.astype(np.int_)
                """
            },
            only=["R14"],
        )
        assert findings == []

    def test_noqa_waives_the_finding(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def cast(x):
                    return x.astype(np.int_)  # repro: noqa R14 -- fixture: waived
                """
            },
            only=["R14"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R15 — hot-path allocation hygiene
# ----------------------------------------------------------------------


class TestAllocHygiene:
    def test_tracked_allocator_in_hot_loop_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def accumulate(rows):  # hot-path
                    out = np.empty(0, dtype=np.int64)
                    for row in rows:
                        out = np.append(out, row)
                    return out
                """
            },
            only=["R15"],
        )
        assert _rules(findings) == ["R15"]
        assert "np.append" in findings[0].message

    def test_allocation_outside_the_loop_is_clean(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def accumulate(rows):  # hot-path
                    out = np.concatenate(rows)
                    for i in range(3):
                        out += i
                    return out
                """
            },
            only=["R15"],
        )
        assert findings == []

    def test_unmarked_function_is_never_scanned(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def accumulate(rows):
                    out = np.empty(0, dtype=np.int64)
                    for row in rows:
                        out = np.append(out, row)
                    return out
                """
            },
            only=["R15"],
        )
        assert findings == []

    def test_array_copy_in_hot_loop_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(positions="int64")
                def churn(positions, steps):  # hot-path
                    for _ in range(steps):
                        scratch = positions.copy()
                    return scratch
                """
            },
            only=["R15"],
        )
        assert _rules(findings) == ["R15"]
        assert ".copy()" in findings[0].message

    def test_mask_compaction_in_hot_loop_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def compact(rows):  # hot-path
                    total = 0.0
                    for row in rows:
                        total += row[row >= 0].sum()
                    return total
                """
            },
            only=["R15"],
        )
        assert _rules(findings) == ["R15"]
        assert "mask" in findings[0].message

    def test_transitive_allocator_call_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def joined(parts):
                    return np.concatenate(parts)


                def reduce_all(batches):  # hot-path
                    total = 0.0
                    for batch in batches:
                        total += joined(batch).sum()
                    return total
                """
            },
            only=["R15"],
        )
        assert _rules(findings) == ["R15"]
        assert "joined" in findings[0].message
        assert "np.concatenate" in findings[0].message

    def test_noqa_waives_the_finding(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np


                def compact(rows):  # hot-path
                    total = 0.0
                    for row in rows:
                        total += row[row >= 0].sum()  # repro: noqa R15 -- fixture: waived
                    return total
                """
            },
            only=["R15"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R16 — contract drift
# ----------------------------------------------------------------------


class TestContractDrift:
    def test_returns_dtype_drift_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(returns="float64[1d]")
                def table(n):
                    return np.zeros(3, dtype=np.int64)
                """
            },
            only=["R16"],
        )
        assert _rules(findings) == ["R16"]
        assert "drifted" in findings[0].message

    def test_agreeing_returns_is_clean(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(returns="int64[1d]")
                def table(n):
                    return np.zeros(3, dtype=np.int64)
                """
            },
            only=["R16"],
        )
        assert findings == []

    def test_missing_returns_spec_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(x="int64")
                def passthrough(x):
                    return np.zeros(4)
                """
            },
            only=["R16"],
        )
        assert _rules(findings) == ["R16"]
        assert "returns" in findings[0].message

    def test_call_site_dtype_drift_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(idx="int64", returns="int64")
                def consume(idx):
                    return idx


                def produce():
                    return consume(np.zeros(3, dtype=np.float64))
                """
            },
            only=["R16"],
        )
        assert _rules(findings) == ["R16"]
        assert "reject" in findings[0].message

    def test_ndarray_param_without_spec_fires(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(a="int64", returns="int64")
                def blend(a, b: np.ndarray):
                    return a
                """
            },
            only=["R16"],
        )
        assert _rules(findings) == ["R16"]
        assert "`b`" in findings[0].message

    def test_untied_parallel_arrays_fire(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(positions="int64", segments="int64", returns="int64")
                def collide(positions, segments):
                    alive = positions >= 0
                    return segments[alive]
                """
            },
            only=["R16"],
        )
        assert _rules(findings) == ["R16"]
        assert "shape symbol" in findings[0].message

    def test_shared_symbol_ties_parallel_arrays(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(positions="int64[W]", segments="int64[W]", returns="int64")
                def collide(positions, segments):
                    alive = positions >= 0
                    return segments[alive]
                """
            },
            only=["R16"],
        )
        assert findings == []

    def test_noqa_waives_the_finding(self, lint_tree):
        findings = lint_tree(
            {
                "core/kernel.py": """\
                import numpy as np

                from repro.utils.contracts import contract


                @contract(idx="int64", returns="int64")
                def consume(idx):
                    return idx


                def produce():
                    return consume(np.zeros(3, dtype=np.float64))  # repro: noqa R16 -- fixture: waived
                """
            },
            only=["R16"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# The interpreter itself, through the public index
# ----------------------------------------------------------------------


class TestArrayFlowIndex:
    def test_interprocedural_return_summary_reaches_callers(self, write_tree):
        from repro.analysis.flow.arrayflow import arrayflow_index
        from repro.analysis.runner import load_project

        root = write_tree(
            {
                "core/kernel.py": (
                    "import numpy as np\n\n\n"
                    "def make(n):\n"
                    "    return np.zeros((n, 4), dtype=np.int64)\n\n\n"
                    "def use(n):\n"
                    "    table = make(n)\n"
                    "    return table\n"
                )
            }
        )
        flow = arrayflow_index(load_project([root], root=root))
        use = flow.facts_for("core/kernel.py::use")
        assert use is not None
        assert use.return_fact is not None
        assert use.return_fact.dtype == "int64"
        assert use.return_fact.shape == ("n", 4)

    def test_branch_join_degrades_disagreement_to_unknown(self, write_tree):
        from repro.analysis.flow.arrayflow import arrayflow_index
        from repro.analysis.runner import load_project

        root = write_tree(
            {
                "core/kernel.py": (
                    "import numpy as np\n\n\n"
                    "def pick(flag):\n"
                    "    if flag:\n"
                    "        a = np.zeros(3, dtype=np.int64)\n"
                    "    else:\n"
                    "        a = np.zeros(3, dtype=np.float64)\n"
                    "    return a\n"
                )
            }
        )
        flow = arrayflow_index(load_project([root], root=root))
        pick = flow.facts_for("core/kernel.py::pick")
        assert pick is not None
        # dtype disagrees across branches -> unknown; shape agrees -> kept.
        assert pick.return_fact is not None
        assert pick.return_fact.dtype is None
        assert pick.return_fact.shape == (3,)

    def test_hot_path_marker_parsed_from_header(self, write_tree):
        from repro.analysis.flow.arrayflow import arrayflow_index
        from repro.analysis.runner import load_project

        root = write_tree(
            {
                "core/kernel.py": (
                    "def warm():  # hot-path\n"
                    "    return 1\n\n\n"
                    "def cold():\n"
                    "    return 2  # hot-path\n"
                )
            }
        )
        flow = arrayflow_index(load_project([root], root=root))
        assert flow.facts_for("core/kernel.py::warm").hot_path is True
        # The marker only counts on header lines, not in the body.
        assert flow.facts_for("core/kernel.py::cold").hot_path is False
