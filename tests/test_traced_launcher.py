"""The end-to-end benchmark's traced launcher still finds what it patches.

``benchmarks/e2e/traced_server.py`` replaces engine entry points by name
(``repro.core.query.bfs_distances``, ``CandidateIndex.candidates``, ...).
A rename in ``src/`` would only surface when a traced benchmark run
starts; this test installs every wrapper in a fresh interpreter instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = ROOT / "benchmarks" / "e2e" / "traced_server.py"


def test_every_traced_entry_point_resolves():
    script = (
        "import runpy\n"
        f"launcher = runpy.run_path({str(LAUNCHER)!r})\n"
        "launcher['install'](launcher['Recorder']())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
