"""Compare two sets of benchmark runs, metric by metric, workload by workload.

Usage::

    python3 benchmarks/e2e/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --out`` appends, one per run.  Run
``i`` of BASE is paired with run ``i`` of CHANGE; make the pairs
alternate which side runs first (README.md shows a loop).  A pair with
a run that ``run.py`` marked invalid (its load generator fell behind
schedule) is left out.  Every
``end_to_end`` metric of ``BENCHMARK.json`` gets one verdict per
workload:

- ``better``: at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), the medians differ by more than
  the parent's interquartile spread, and no more requests failed than at
  the parent;
- ``worse``: the change's median is worse than the parent's by more than
  the bound, and either both spreads are within the bound or every run
  of the change reads worse than every run of the parent;
- ``unresolved``: the run-to-run spread of either side is wider than the
  metric's bound, so a regression cannot be excluded, unless every run
  of the change reads better than every run of the parent;
- ``same``: none of the above.

The exit code is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The bounds and directions every verdict applies.
SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9

Runs = Dict[str, List[Optional[Dict[str, float]]]]


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float,
            base_failed: int = 0, change_failed: int = 0) -> str:
    """One of ``better``, ``same``, ``worse`` or ``unresolved`` (see module doc)."""
    n = min(len(base), len(change))
    if n < 2:
        return "unresolved"
    base, change = list(base[:n]), list(change[:n])
    sign = 1.0 if better == "higher" else -1.0
    base_median, change_median = statistics.median(base), statistics.median(change)
    gain = sign * (change_median - base_median)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    if (n >= MIN_PAIRS and wins >= WIN_SHARE * n and gain > iqr(base)
            and change_failed <= base_failed):
        return "better"
    scale = abs(base_median) or 1.0
    spread = max(iqr(base) / scale, iqr(change) / (abs(change_median) or 1.0))
    every_run_better = min(sign * c for c in change) > max(sign * b for b in base)
    every_run_worse = max(sign * c for c in change) < min(sign * b for b in base)
    if -gain > bound * scale and (spread <= bound or every_run_worse):
        return "worse"
    if spread > bound and not every_run_better:
        return "unresolved"
    return "same"


def load(path: Path) -> Tuple[Runs, Dict[str, int]]:
    """Untraced results per workload, in run order, and failed requests.

    A run whose load generator fell behind its schedule (``valid`` false)
    keeps its place as ``None``, so that it and its partner drop out of
    the pairing together.
    """
    runs: Runs = defaultdict(list)
    failed: Dict[str, int] = defaultdict(int)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            if run.get("trace"):
                continue
            for workload, result in run["workloads"].items():
                failed[workload] += int(result["failed"])
                runs[workload].append(result["metrics"] if result["valid"] else None)
    return runs, failed


def compare(spec: dict, base_path: Path, change_path: Path) -> List[Tuple[str, ...]]:
    base, base_failed = load(base_path)
    change, change_failed = load(change_path)
    rows = []
    for workload in sorted(set(base) & set(change)):
        pairs = [(b, c) for b, c in zip(base[workload], change[workload])
                 if b is not None and c is not None]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [float(pb[name]) for pb, pc in pairs if name in pb and name in pc]
            c = [float(pc[name]) for pb, pc in pairs if name in pb and name in pc]
            if not b:
                continue
            result = verdict(b, c, metric["better"], metric["bound"],
                             base_failed[workload], change_failed[workload])
            b_med, c_med = statistics.median(b), statistics.median(c)
            delta = 100.0 * (c_med - b_med) / b_med if b_med else 0.0
            rows.append((workload, name, f"{b_med:.4g}", f"{c_med:.4g}", f"{delta:+.1f}%",
                         str(min(len(b), len(c))), result))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Per-metric verdicts for two sets of runs.")
    parser.add_argument("base", type=Path, help="runs of the parent commit (JSON lines)")
    parser.add_argument("change", type=Path, help="runs of the change (JSON lines)")
    args = parser.parse_args(argv)
    rows = compare(json.loads(SPEC.read_text()), args.base, args.change)
    header = ("workload", "metric", "base", "change", "delta", "pairs", "verdict")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
