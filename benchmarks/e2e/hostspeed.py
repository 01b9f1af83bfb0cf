"""Host speed, from a fixed unit of work timed in a side process.

The benchmark was sized on a virtual machine whose speed drifts with the
load of other tenants: the same code runs up to 1.8 times slower in a
busy period, for minutes at a time, and its CPU time grows as much as
its wall time.  A side process times a fixed unit of pure-Python work
every 10 ms (about 2% of one CPU) while the benchmark runs.
``SpeedProbe.factor`` turns the timings of a window into the ratio that
scales a time measured in that window to the reference speed, the speed
at which the unit takes ``REFERENCE_UNIT_S`` of CPU time.

Run as a script, this module is the side process: it times units until
its standard input closes, then prints ``[start, cpu seconds]`` pairs as
one JSON list.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Tuple

#: CPU seconds of one unit at the reference speed (a quiet period of the
#: 2-CPU host the benchmark was sized on).
REFERENCE_UNIT_S = 210e-6
INTERVAL_S = 0.01
STOP_TIMEOUT_S = 30.0


def unit() -> int:
    """The fixed work: interpreted integer arithmetic, like the server's Python."""
    total = 0
    for i in range(4000):
        total += i * i
    return total


def _probe() -> None:
    closed = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), closed.set()), daemon=True).start()
    timings: List[Tuple[float, float]] = []
    while not closed.wait(INTERVAL_S):
        start, cpu = time.monotonic(), time.thread_time()
        unit()
        timings.append((start, time.thread_time() - cpu))
    print(json.dumps(timings))


class SpeedProbe:
    """The side process, from start until ``stop``."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.timings: List[Tuple[float, float]] = []

    def stop(self) -> None:
        """End the side process and collect its timings."""
        out, _ = self.proc.communicate(b"", timeout=STOP_TIMEOUT_S)
        self.timings = json.loads(out)

    def factor(self, start: float, end: float) -> float:
        """Reference over measured unit time in ``[start, end]`` (below 1 on a slow host)."""
        units = [cpu for t, cpu in self.timings if start <= t <= end]
        return REFERENCE_UNIT_S / statistics.median(units)


if __name__ == "__main__":
    _probe()
