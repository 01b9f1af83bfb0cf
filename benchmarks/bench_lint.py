"""Analyzer wall time: cold vs. warm incremental-lint cache.

The full ``repro lint`` pass (every rule over ``src/``) is priced
into every CI run and every pre-commit hook, so its wall time is a
budget the analysis layer must keep.  This benchmark runs the exact CI
invocation twice against a fresh ``.repro-lint-cache/`` directory — a
cold run that parses, flow-indexes and checks every file, then a warm
run that should reduce to content hashing plus one JSON read — and
writes ``BENCH_lint.json`` with both timings.

The regression gate is the cache's reason to exist: the warm run must
be at least 2x faster than the cold run (the same floor
``tests/analysis/test_cache.py`` asserts on a synthetic tree), and its
report must be finding-for-finding identical.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import run_analysis
from repro.analysis.cache import LintCache
from repro.utils.bench import write_sidecar

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
SIDECAR_PATH = REPO_ROOT / "BENCH_lint.json"

#: The warm/cold speedup floor CI budgets for incremental lint.
SPEEDUP_FLOOR = 2.0


def _timed_lint(cache_dir: Path):
    start = time.perf_counter()
    cache = LintCache(cache_dir)
    report = run_analysis([SRC_ROOT], root=SRC_ROOT, cache=cache)
    return report, time.perf_counter() - start


class TestLintWallTime:
    def test_warm_cache_speedup_and_sidecar(self, tmp_path):
        cache_dir = tmp_path / "lint-cache"

        cold, cold_seconds = _timed_lint(cache_dir)
        warm, warm_seconds = _timed_lint(cache_dir)

        assert [f.render() for f in warm.findings] == [
            f.render() for f in cold.findings
        ]
        assert [f.render() for f in warm.suppressed] == [
            f.render() for f in cold.suppressed
        ]

        n_files = sum(1 for _ in SRC_ROOT.rglob("*.py"))
        speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
        write_sidecar(
            SIDECAR_PATH,
            "lint",
            {
                "tree": {"root": "src", "python_files": n_files},
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "speedup": speedup,
                "speedup_floor": SPEEDUP_FLOOR,
                "findings": len(cold.findings),
                "suppressed": len(cold.suppressed),
            },
        )

        assert speedup >= SPEEDUP_FLOOR, (
            f"warm lint cache below the {SPEEDUP_FLOOR}x floor: "
            f"cold={cold_seconds:.3f}s warm={warm_seconds:.3f}s"
        )
