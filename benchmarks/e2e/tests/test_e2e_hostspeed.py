"""The host-speed probe times its unit until stopped and scales by window."""

import statistics
import time

from hostspeed import REFERENCE_UNIT_S, SpeedProbe


def test_probe_times_units_and_scales_by_the_window_median():
    probe = SpeedProbe()
    time.sleep(0.5)
    start = time.monotonic()
    time.sleep(0.3)
    end = time.monotonic()
    probe.stop()
    assert probe.proc.returncode == 0
    inside = [cpu for t, cpu in probe.timings if start <= t <= end]
    assert len(inside) >= 10 and all(cpu > 0 for cpu in inside)
    assert probe.factor(start, end) == REFERENCE_UNIT_S / statistics.median(inside)
