"""Lint coverage for the live-tunables apply path (R1 + R8 fixtures).

The `TunableSet` apply path is the one write surface the self-tuning
controller has over a serving process, so its lock discipline is
load-bearing: values and listeners live behind `_lock`, listeners fire
outside the critical section, and readers only ever get copies.  These
fixtures pin the linter's view of that pattern — both that the
sanctioned shape stays clean and that the tempting shortcuts (reading
the store without the lock, firing listeners while holding it, mutating
a `.current()` result) are flagged.
"""

from __future__ import annotations


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# R1 — the store's lock discipline
# ----------------------------------------------------------------------

UNLOCKED_READ = """
    import threading


    class KnobStore:
        def __init__(self):
            self._lock = threading.Lock()
            self._values = {}  # locked-by: _lock

        def get(self, name):
            return self._values[name]
"""


def test_r1_flags_unlocked_knob_read(lint_tree):
    findings = lint_tree({"serve/knobs.py": UNLOCKED_READ}, only=["R1"])
    assert rules_of(findings) == ["R1"]
    assert "_values" in findings[0].message


APPLY_PATTERN = """
    import threading


    class KnobStore:
        def __init__(self):
            self._lock = threading.Lock()
            self._values = {}  # locked-by: _lock
            self._listeners = []  # locked-by: _lock

        def get(self, name):
            with self._lock:
                return self._values[name]

        def current(self):
            with self._lock:
                return dict(self._values)

        def apply(self, name, value):
            with self._lock:
                previous = self._values[name]
                self._values[name] = value
                listeners = list(self._listeners)
            for listener in listeners:
                listener(name, value)
            return previous

        def subscribe(self, listener):
            with self._lock:
                self._listeners.append(listener)
"""


def test_r1_apply_pattern_is_clean(lint_tree):
    # Swap under the lock, snapshot the listener list, fire outside —
    # the exact shape repro.serve.tunables uses.
    assert lint_tree({"serve/knobs.py": APPLY_PATTERN}, only=["R1"]) == []


LISTENERS_FIRED_FROM_CLOSURE = """
    import threading


    class KnobStore:
        def __init__(self):
            self._lock = threading.Lock()
            self._listeners = []  # locked-by: _lock

        def apply(self, name, value):
            def notify():
                for listener in self._listeners:
                    listener(name, value)
            with self._lock:
                notify
            return notify
"""


def test_r1_closure_does_not_inherit_the_guard(lint_tree):
    # A closure created inside (or near) the critical section may run
    # long after the lock is gone; its reads count as unlocked.
    findings = lint_tree(
        {"serve/knobs.py": LISTENERS_FIRED_FROM_CLOSURE}, only=["R1"]
    )
    assert rules_of(findings) == ["R1"]
    assert "_listeners" in findings[0].message


# ----------------------------------------------------------------------
# R8 — override views must never leak a mutable path to published state
# ----------------------------------------------------------------------

MUTATED_CURRENT = """
    def merge_defaults(values, defaults):
        values.update(defaults)


    def bad_report(handle, defaults):
        live = handle.current()
        merge_defaults(live, defaults)
        return live


    def good_report(handle, defaults):
        live = dict(handle.current())
        merge_defaults(live, defaults)
        return live
"""


def test_r8_mutating_a_current_result_is_flagged(lint_tree):
    # `.current()` results are treated as published state project-wide;
    # consumers that want to edit must take their own dict() copy (the
    # controller and /healthz paths only ever read).
    findings = lint_tree(
        {"serve/report.py": MUTATED_CURRENT}, only=["R8"]
    )
    assert rules_of(findings) == ["R8"]
    bad_call_line = MUTATED_CURRENT.index("merge_defaults(live, defaults)")
    assert findings[0].line == MUTATED_CURRENT[:bad_call_line].count("\n") + 1


OVERRIDE_VIEW_REPUBLISH = """
    import threading


    class Handle:
        def __init__(self, engine):
            self._lock = threading.Lock()
            self._base = engine  # locked-by: _lock
            self._overrides = {}  # locked-by: _lock

        def apply_engine_overrides(self, **overrides):
            with self._lock:
                merged = dict(self._overrides, **overrides)
                serving = self._base.with_config(**merged)
                self._overrides = merged
            return serving
"""


def test_r1_override_republish_is_clean(lint_tree):
    # The EngineHandle override path: merge + view-build + publish all
    # inside one critical section, no shared state touched outside it.
    assert lint_tree(
        {"serve/handle.py": OVERRIDE_VIEW_REPUBLISH}, only=["R1"]
    ) == []
