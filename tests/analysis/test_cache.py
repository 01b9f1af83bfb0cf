"""The incremental lint cache: correctness first, then the speedup."""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import run_analysis
from repro.analysis.cache import CACHE_DIR_NAME, LintCache
from repro.analysis.rules.rng import SeededRngRule

RNG_BAD = "import numpy as np\n\nx = np.random.rand(3)\n"
RNG_GOOD = "import numpy as np\n\nrng = np.random.default_rng(7)\nx = rng.random(3)\n"


def _write(root: Path, files) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _report(root: Path, cache=None):
    return run_analysis([root], root=root, cache=cache)


def test_warm_run_reproduces_cold_report(tmp_path):
    _write(tmp_path, {"core/a.py": RNG_BAD, "core/b.py": RNG_GOOD})
    cache = LintCache(tmp_path / CACHE_DIR_NAME)
    cold = _report(tmp_path, cache)
    warm = _report(tmp_path, LintCache(tmp_path / CACHE_DIR_NAME))
    assert [f.render() for f in warm.findings] == [f.render() for f in cold.findings]
    assert warm.findings and warm.findings[0].rule == "R3"
    assert (tmp_path / CACHE_DIR_NAME).is_dir()


def test_edit_invalidates_whole_report(tmp_path):
    _write(tmp_path, {"core/a.py": RNG_BAD})
    cache_dir = tmp_path / CACHE_DIR_NAME
    first = _report(tmp_path, LintCache(cache_dir))
    assert [f.rule for f in first.findings] == ["R3"]
    _write(tmp_path, {"core/a.py": RNG_GOOD})
    second = _report(tmp_path, LintCache(cache_dir))
    assert second.findings == []
    # And back again: the old cached report must not resurface stale state.
    _write(tmp_path, {"core/a.py": RNG_BAD})
    third = _report(tmp_path, LintCache(cache_dir))
    assert [f.rule for f in third.findings] == ["R3"]


def test_suppressions_survive_the_cache(tmp_path):
    waived = (
        "import numpy as np\n\n"
        "x = np.random.rand(3)  # repro: noqa R3 -- fixture: cached waiver\n"
    )
    _write(tmp_path, {"core/a.py": waived})
    cache_dir = tmp_path / CACHE_DIR_NAME
    cold = _report(tmp_path, LintCache(cache_dir))
    warm = _report(tmp_path, LintCache(cache_dir))
    assert cold.findings == [] and warm.findings == []
    assert len(cold.suppressed) == 1
    assert [f.render() for f in warm.suppressed] == [
        f.render() for f in cold.suppressed
    ]


def test_per_file_tier_skips_unchanged_files(tmp_path, monkeypatch):
    _write(tmp_path, {"core/a.py": RNG_BAD, "core/b.py": RNG_GOOD})
    cache_dir = tmp_path / CACHE_DIR_NAME
    checked = []
    original = SeededRngRule.check

    def counting(self, project, source):
        checked.append(source.rel)
        return original(self, project, source)

    monkeypatch.setattr(SeededRngRule, "check", counting)
    _report(tmp_path, LintCache(cache_dir))
    assert sorted(checked) == ["core/a.py", "core/b.py"]

    checked.clear()
    _write(tmp_path, {"core/b.py": RNG_GOOD + "y = rng.random(2)\n"})
    report = _report(tmp_path, LintCache(cache_dir))
    # Tier 1 missed (tree changed) but only the edited file re-ran R3.
    assert checked == ["core/b.py"]
    assert [f.rule for f in report.findings] == ["R3"]
    assert report.findings[0].path == "core/a.py"


def test_select_and_ignore_salt_the_invocation_key(tmp_path):
    # A report cached under one rule selection must never answer an
    # invocation with a different --select/--ignore set.
    _write(tmp_path, {"core/a.py": RNG_BAD})
    cache_dir = tmp_path / CACHE_DIR_NAME
    full = run_analysis(
        [tmp_path], root=tmp_path, cache=LintCache(cache_dir)
    )
    assert [f.rule for f in full.findings] == ["R3"]
    ignored = run_analysis(
        [tmp_path], root=tmp_path, cache=LintCache(cache_dir),
        ignore=["R3"],
    )
    assert ignored.findings == []
    selected = run_analysis(
        [tmp_path], root=tmp_path, cache=LintCache(cache_dir),
        only=["R3"],
    )
    assert [f.rule for f in selected.findings] == ["R3"]


def test_analyzer_edit_busts_stale_entries(tmp_path, monkeypatch):
    # The invocation key digests the analyzer's own sources: simulate a
    # rule edit by changing the digest and assert the old report is not
    # replayed (the rule genuinely re-runs).
    from repro.analysis import cache as cache_mod
    from repro.analysis.rules.rng import SeededRngRule

    _write(tmp_path, {"core/a.py": RNG_BAD})
    cache_dir = tmp_path / CACHE_DIR_NAME
    first = _report(tmp_path, LintCache(cache_dir))
    assert [f.rule for f in first.findings] == ["R3"]

    checked = []
    original = SeededRngRule.check

    def counting(self, project, source):
        checked.append(source.rel)
        return original(self, project, source)

    monkeypatch.setattr(SeededRngRule, "check", counting)
    # Unchanged digest: tier-1 hit, the rule never runs.
    _report(tmp_path, LintCache(cache_dir))
    assert checked == []
    # "Edited" analyzer: every cached key is stale, the rule runs again.
    monkeypatch.setattr(cache_mod, "_analyzer_digest", "different-analyzer")
    report = _report(tmp_path, LintCache(cache_dir))
    assert checked == ["core/a.py"]
    assert [f.rule for f in report.findings] == ["R3"]


def test_no_cache_means_no_cache_dir(tmp_path):
    _write(tmp_path, {"core/a.py": RNG_GOOD})
    _report(tmp_path, cache=None)
    assert not (tmp_path / CACHE_DIR_NAME).exists()


def test_custom_rule_objects_bypass_cache(tmp_path):
    _write(tmp_path, {"core/a.py": RNG_BAD})
    cache = LintCache(tmp_path / CACHE_DIR_NAME)
    report = run_analysis(
        [tmp_path], root=tmp_path, rules=[SeededRngRule()], cache=cache
    )
    assert [f.rule for f in report.findings] == ["R3"]
    assert not (tmp_path / CACHE_DIR_NAME).exists()


def test_corrupt_cache_is_a_miss(tmp_path):
    _write(tmp_path, {"core/a.py": RNG_BAD})
    cache_dir = tmp_path / CACHE_DIR_NAME
    _report(tmp_path, LintCache(cache_dir))
    for path in cache_dir.iterdir():
        path.write_text("{ not json", encoding="utf-8")
    report = _report(tmp_path, LintCache(cache_dir))
    assert [f.rule for f in report.findings] == ["R3"]


def test_warm_run_is_at_least_twice_as_fast(tmp_path):
    # A tree big enough that parse + flow-index dominate; the warm run
    # is file hashing plus one JSON read and must win by >= 2x (the CI
    # incremental-lint budget assumes this).
    files = {}
    for i in range(24):
        files[f"core/mod_{i}.py"] = (
            "import threading\n\n\n"
            f"class Worker{i}:\n"
            "    def __init__(self):\n"
            "        self._lock_a = threading.Lock()\n"
            "        self._lock_b = threading.Lock()\n\n"
            "    def forward(self):\n"
            "        with self._lock_a:\n"
            "            with self._lock_b:\n"
            "                return 1\n\n"
            "    def helper(self):\n"
            "        with self._lock_a:\n"
            "            return self.forward()\n"
        )
    _write(tmp_path, files)
    cache_dir = tmp_path / CACHE_DIR_NAME

    start = time.perf_counter()
    cold = _report(tmp_path, LintCache(cache_dir))
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = _report(tmp_path, LintCache(cache_dir))
    warm_seconds = time.perf_counter() - start

    assert [f.render() for f in warm.findings] == [
        f.render() for f in cold.findings
    ]
    assert cold_seconds >= 2 * warm_seconds, (
        f"warm cache not fast enough: cold={cold_seconds:.4f}s "
        f"warm={warm_seconds:.4f}s"
    )
