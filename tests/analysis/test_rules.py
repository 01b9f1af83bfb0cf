"""Positive and negative fixtures for every analyzer rule."""

from __future__ import annotations


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# R1 — lock discipline
# ----------------------------------------------------------------------

LOCKED_CLASS = '''
import threading

class Handle:
    def __init__(self):
        self._lock = threading.Lock()
        self._snapshot = object()  # locked-by: _lock

    def bad(self):
        return self._snapshot

    def good(self):
        with self._lock:
            return self._snapshot
'''


def test_r1_flags_unlocked_access(lint_tree):
    findings = lint_tree({"serve/handle.py": LOCKED_CLASS}, only=["R1"])
    assert len(findings) == 1
    assert findings[0].rule == "R1"
    assert "bad" in findings[0].message
    assert "_snapshot" in findings[0].message


def test_r1_registry_form(lint_tree):
    findings = lint_tree(
        {
            "serve/handle.py": '''
            import threading

            class Handle:
                _locked_ = {"_state": "_mu"}

                def __init__(self):
                    self._mu = threading.Lock()
                    self._state = []

                def peek(self):
                    return len(self._state)
            '''
        },
        only=["R1"],
    )
    assert rules_of(findings) == ["R1"]


def test_r1_annassign_declaration(lint_tree):
    findings = lint_tree(
        {
            "core/dynamic.py": '''
            import threading
            from typing import List

            class Engine:
                def __init__(self):
                    self._mu = threading.Lock()
                    self._pending: List[int] = []  # locked-by: _mu

                def count(self):
                    return len(self._pending)
            '''
        },
        only=["R1"],
    )
    assert rules_of(findings) == ["R1"]


def test_r1_nested_function_resets_guard(lint_tree):
    findings = lint_tree(
        {
            "serve/handle.py": '''
            import threading

            class Handle:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = 0  # locked-by: _lock

                def schedule(self):
                    with self._lock:
                        def later():
                            # runs after the lock is released
                            return self._state
                        return later
            '''
        },
        only=["R1"],
    )
    assert rules_of(findings) == ["R1"]


def test_r1_outside_scope_not_checked(lint_tree):
    # Same violation, but in a module no scope covers.
    findings = lint_tree({"graph/handle.py": LOCKED_CLASS}, only=["R1"])
    assert findings == []


def test_r1_locked_suffix_helper_exempt(lint_tree):
    # ``*_locked`` helpers are called with the lock held by convention;
    # their bodies are scanned with every registered lock considered
    # held, while ordinary call sites stay checked.
    findings = lint_tree(
        {
            "serve/handle.py": '''
import threading

class Handle:
    def __init__(self):
        self._lock = threading.Lock()
        self._snapshot = object()  # locked-by: _lock

    def _peek_locked(self):
        return self._snapshot

    def good(self):
        with self._lock:
            return self._peek_locked()

    def bad(self):
        return self._snapshot
'''
        },
        only=["R1"],
    )
    assert rules_of(findings) == ["R1"]
    assert "bad" in findings[0].message


def test_r1_suppression_with_reason(lint_tree):
    findings = lint_tree(
        {
            "serve/handle.py": LOCKED_CLASS.replace(
                "return self._snapshot\n\n    def good",
                "return self._snapshot  # repro: noqa R1 -- ref read is atomic\n\n"
                "    def good",
            )
        },
        only=["R1"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# R2 — snapshot immutability (retired id; snapshot stores are R8's)
# ----------------------------------------------------------------------


def test_r2_annotated_receiver_assignment(lint_tree):
    findings = lint_tree(
        {
            "serve/handler.py": '''
            class EngineSnapshot:
                pass

            def tamper(snapshot: EngineSnapshot):
                snapshot.epoch = 7
            '''
        },
        only=["R8"],
    )
    assert rules_of(findings) == ["R8"]
    assert "snapshot.epoch" in findings[0].message


def test_r8_store_into_current_result(lint_tree):
    findings = lint_tree(
        {
            "serve/handler.py": '''
            def tamper(handle):
                snap = handle.current()
                snap.epoch = 7
                snap.engine.index.gamma[3] += 1.0
            '''
        },
        only=["R8"],
    )
    assert rules_of(findings) == ["R8", "R8"]


def test_r8_store_into_constructed_snapshot_is_clean(lint_tree):
    findings = lint_tree(
        {
            "serve/handler.py": '''
            class EngineSnapshot:
                pass

            def build(handle):
                snap = EngineSnapshot()
                snap.epoch = handle.current().epoch + 1
                return snap
            '''
        },
        only=["R8"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# R3 — seeded RNG
# ----------------------------------------------------------------------


def test_r3_flags_global_numpy_draws(lint_tree):
    findings = lint_tree(
        {
            "core/mc.py": '''
            import numpy as np

            def walk(n):
                return np.random.rand(n)
            '''
        },
        only=["R3"],
    )
    assert rules_of(findings) == ["R3"]


def test_r3_flags_stdlib_random(lint_tree):
    findings = lint_tree(
        {
            "baselines/naive.py": '''
            import random

            def pick(items):
                return random.choice(items)
            '''
        },
        only=["R3"],
    )
    # Both the import and the call are flagged.
    assert rules_of(findings) == ["R3", "R3"]


def test_r3_generator_api_allowed(lint_tree):
    findings = lint_tree(
        {
            "core/mc.py": '''
            import numpy as np

            def walk(n, seed):
                rng = np.random.default_rng(seed)
                return rng.random(n)
            '''
        },
        only=["R3"],
    )
    assert findings == []


def test_r3_from_import_of_draw(lint_tree):
    findings = lint_tree(
        {"core/mc.py": "from numpy.random import rand\n"},
        only=["R3"],
    )
    assert rules_of(findings) == ["R3"]


def test_r3_ignores_out_of_scope_modules(lint_tree):
    findings = lint_tree(
        {"obs/plots.py": "import random\n"},
        only=["R3"],
    )
    assert findings == []


def test_r3_covers_experiments_modules(lint_tree):
    # experiments/ produces the paper's figures — unseeded randomness
    # there silently breaks reproduction, so it joined the R3 scope.
    findings = lint_tree(
        {"experiments/plots.py": "import random\n"},
        only=["R3"],
    )
    assert rules_of(findings) == ["R3"]


# ----------------------------------------------------------------------
# R4 — hot-path obs guard
# ----------------------------------------------------------------------

HOT_MODULE = '''
from repro.obs import instrument as obs

def answer(stats):
    {call}
    return stats
'''


def test_r4_flags_unguarded_hook(lint_tree):
    findings = lint_tree(
        {"core/query.py": HOT_MODULE.format(call="obs.record_query(stats)")},
        only=["R4"],
    )
    assert rules_of(findings) == ["R4"]
    assert "record_query" in findings[0].message


def test_r4_guarded_hook_is_clean(lint_tree):
    findings = lint_tree(
        {
            "core/query.py": HOT_MODULE.format(
                call="if obs.OBS.enabled:\n        obs.record_query(stats)"
            )
        },
        only=["R4"],
    )
    assert findings == []


def test_r4_guard_as_first_and_operand(lint_tree):
    findings = lint_tree(
        {
            "core/query.py": HOT_MODULE.format(
                call="if obs.OBS.enabled and stats:\n        obs.record_query(stats)"
            )
        },
        only=["R4"],
    )
    assert findings == []


def test_r4_else_branch_is_not_guarded(lint_tree):
    findings = lint_tree(
        {
            "core/walks.py": HOT_MODULE.format(
                call=(
                    "if obs.OBS.enabled:\n        pass\n"
                    "    else:\n        obs.record_walks(1)"
                )
            )
        },
        only=["R4"],
    )
    assert rules_of(findings) == ["R4"]


def test_r4_only_hot_modules_in_scope(lint_tree):
    # The same unguarded call is fine outside the hot path.
    findings = lint_tree(
        {"core/engine.py": HOT_MODULE.format(call="obs.record_query(stats)")},
        only=["R4"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# R5 — dtype contracts (retired id; the checks are R16's)
# ----------------------------------------------------------------------


def r16_not_returns(findings):
    """R16 findings other than the missing-``returns=`` note."""
    return [f for f in findings if "declares no returns=" not in f.message]


def test_r5_requires_contract_on_kernels(lint_tree):
    findings = lint_tree(
        {
            "core/walks.py": '''
            class WalkEngine:
                def step(self, positions):
                    return positions
            '''
        },
        only=["R16"],
    )
    findings = r16_not_returns(findings)
    assert rules_of(findings) == ["R16"]
    assert "step" in findings[0].message


def test_r5_malformed_spec(lint_tree):
    findings = lint_tree(
        {
            "core/kernels.py": '''
            from repro.utils.contracts import contract

            @contract(x="floaty64")
            def f(x):
                return x
            '''
        },
        only=["R16"],
    )
    findings = r16_not_returns(findings)
    assert rules_of(findings) == ["R16"]
    assert "floaty64" in findings[0].message


def test_r5_unknown_parameter(lint_tree):
    findings = lint_tree(
        {
            "core/kernels.py": '''
            from repro.utils.contracts import contract

            @contract(y="int64")
            def f(x):
                return x
            '''
        },
        only=["R16"],
    )
    findings = r16_not_returns(findings)
    assert rules_of(findings) == ["R16"]
    assert "unknown parameter" in findings[0].message


def test_r5_call_site_dtype_mismatch(lint_tree):
    findings = lint_tree(
        {
            "core/kernels.py": '''
            import numpy as np
            from repro.utils.contracts import contract

            @contract(positions="int64")
            def advance(positions):
                return positions

            def driver(n):
                return advance(np.zeros(n, dtype=np.int32))
            ''',
        },
        only=["R16"],
    )
    findings = r16_not_returns(findings)
    assert rules_of(findings) == ["R16"]
    assert "int32" in findings[0].message and "int64" in findings[0].message


def test_r5_call_sites_checked_across_files(lint_tree):
    findings = lint_tree(
        {
            "core/kernels.py": '''
            from repro.utils.contracts import contract

            @contract(positions="int64")
            def advance(positions):
                return positions
            ''',
            "serve/driver.py": '''
            import numpy as np
            from core.kernels import advance

            def run(n):
                return advance(np.zeros(n, dtype="float32"))
            ''',
        },
        only=["R16"],
    )
    findings = r16_not_returns(findings)
    assert rules_of(findings) == ["R16"]
    assert findings[0].path.endswith("driver.py")


def test_r5_matching_call_site_is_clean(lint_tree):
    findings = lint_tree(
        {
            "core/kernels.py": '''
            import numpy as np
            from repro.utils.contracts import contract

            @contract(positions="int64")
            def advance(positions):
                return positions

            def driver(n):
                return advance(np.zeros(n, dtype=np.int64))
            ''',
        },
        only=["R16"],
    )
    assert r16_not_returns(findings) == []


# ----------------------------------------------------------------------
# R0 — suppression hygiene & syntax errors
# ----------------------------------------------------------------------


def test_r0_noqa_without_reason(lint_tree):
    # A reasonless waiver on a clean line draws two R0s: no reason
    # recorded, and the waiver is stale (it suppresses nothing).
    findings = lint_tree(
        {"core/x.py": "VALUE = 1  # repro: noqa R3\n"},
    )
    assert rules_of(findings) == ["R0", "R0"]
    assert any("without a `-- reason`" in f.message for f in findings)
    assert any("stale" in f.message for f in findings)


def test_r0_prose_mention_is_not_a_directive(lint_tree):
    findings = lint_tree(
        {"core/x.py": '"""Docs quoting `# repro: noqa` are not waivers."""\n'},
    )
    assert findings == []


def test_syntax_error_reported_not_crashing(lint_tree):
    findings = lint_tree({"core/broken.py": "def f(:\n"})
    assert rules_of(findings) == ["R0"]
    assert "syntax error" in findings[0].message
